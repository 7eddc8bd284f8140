"""Tests for overlap-save PolyHankel (``algorithm="polyhankel_os"``).

The route runs the engine's ``overlap_save`` strategy: each image is cut
into blocks of the cost model's block size, and every block is one row of
the sum strategy's channel contraction.
"""

import numpy as np
import pytest

from repro.baselines.registry import convolve
from repro.core.multichannel import get_plan
from repro.core.planning import overlap_save_blocks, polyhankel_block_size
from repro.utils.shapes import ConvShape
from tests.conftest import naive_conv2d_reference


def _os(x, w, **kwargs):
    return convolve(x, w, algorithm="polyhankel_os", **kwargs)


def _full_convolve(signals, kernel, **kwargs):
    """``np.convolve(signal, kernel)`` along the last axis of *signals*,
    as a conv1d: the reversed kernel correlated over ``K - 1`` zeros on
    each side, one depthwise group per leading row."""
    signals = np.asarray(signals, dtype=float)
    k = len(kernel)
    rows = signals.reshape(1, -1, signals.shape[-1])
    c = rows.shape[1]
    w = np.broadcast_to(kernel[::-1], (c, 1, k)).copy()
    out = _os(rows, w, padding=k - 1, groups=c, **kwargs)
    return out.reshape(signals.shape[:-1] + (-1,))


class TestOverlapSaveConvolve:
    """Linear convolution of 1D signals, streamed through the blocks."""

    @pytest.mark.parametrize("length,klen", [(1, 1), (10, 3), (100, 7),
                                             (64, 64), (200, 17), (5, 9)])
    def test_matches_numpy_convolve(self, rng, length, klen):
        signal = rng.standard_normal(length)
        kernel = rng.standard_normal(klen)
        got = _full_convolve(signal, kernel)
        np.testing.assert_allclose(got, np.convolve(signal, kernel),
                                   atol=1e-8)

    @pytest.mark.parametrize("klen", [8, 17, 64, 1000])
    def test_block_length_choices(self, rng, klen):
        """The block length follows the kernel polynomial: each kernel
        picks its model block size, and the result stays exact."""
        signal = rng.standard_normal(120)
        kernel = rng.standard_normal(klen)
        shape = ConvShape((120,), (klen,), padding=klen - 1)
        assert get_plan(shape, strategy="overlap_save").nfft \
            == polyhankel_block_size(shape) > klen
        got = _full_convolve(signal, kernel)
        np.testing.assert_allclose(got, np.convolve(signal, kernel),
                                   atol=1e-8)

    def test_batched_signals(self, rng):
        signals = rng.standard_normal((3, 2, 50))
        kernel = rng.standard_normal(6)
        got = _full_convolve(signals, kernel)
        assert got.shape == (3, 2, 55)
        for i in range(3):
            for j in range(2):
                np.testing.assert_allclose(
                    got[i, j], np.convolve(signals[i, j], kernel), atol=1e-8)

    def test_builtin_backend(self, rng):
        signal = rng.standard_normal(40)
        kernel = rng.standard_normal(4)
        got = _full_convolve(signal, kernel, backend="builtin")
        np.testing.assert_allclose(got, np.convolve(signal, kernel),
                                   atol=1e-8)

    def test_empty_signal_rejected(self):
        with pytest.raises(ValueError):
            _full_convolve(np.zeros(0), np.ones(3))


class TestConv2dOverlapSave:
    @pytest.mark.parametrize("case", [
        (1, 1, 1, 5, 5, 3, 3, 0, 1),
        (3, 2, 4, 8, 9, 3, 3, 1, 1),
        (2, 3, 2, 10, 6, 2, 4, 0, 2),
        (4, 1, 1, 6, 6, 3, 3, 2, 1),
    ])
    def test_matches_naive(self, rng, case):
        n, c, f, ih, iw, kh, kw, p, s = case
        x = rng.standard_normal((n, c, ih, iw))
        w = rng.standard_normal((f, c, kh, kw))
        got = _os(x, w, padding=p, stride=s)
        np.testing.assert_allclose(got, naive_conv2d_reference(x, w, p, s),
                                   atol=1e-8)

    def test_agrees_with_monolithic_path(self, rng):
        x = rng.standard_normal((3, 2, 9, 9))
        w = rng.standard_normal((2, 2, 3, 3))
        np.testing.assert_allclose(
            _os(x, w, padding=1),
            convolve(x, w, algorithm="polyhankel", padding=1), atol=1e-8)

    def test_small_blocks_still_correct(self, rng):
        """Several blocks per image stress the block-boundary logic."""
        x = rng.standard_normal((1, 1, 40, 40))
        w = rng.standard_normal((1, 1, 3, 3))
        nfft, _, blocks = overlap_save_blocks(
            ConvShape.from_tensors(x.shape, w.shape))
        assert nfft == 512 and blocks >= 3
        np.testing.assert_allclose(_os(x, w), naive_conv2d_reference(x, w),
                                   atol=1e-8)

    def test_batch_images_do_not_leak(self, rng):
        """Each image streams through its own blocks: its rows of a batch
        are the bits of the call on that image alone."""
        x = rng.standard_normal((3, 1, 6, 6))
        w = rng.standard_normal((1, 1, 3, 3))
        batched = _os(x, w)
        for i in range(3):
            assert np.array_equal(batched[i:i + 1], _os(x[i:i + 1], w))
