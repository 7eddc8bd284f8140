"""Tests for the FFT-family algorithms."""

import numpy as np
import pytest

from repro.baselines.fft2d import conv2d_fft, irfft2, rfft2
from repro.baselines.fft_tiling import conv2d_fft_tiling
from repro.baselines.finegrain_fft import conv2d_finegrain_fft
from repro.baselines.naive import convnd_naive

CASES = [
    (1, 1, 1, 5, 5, 3, 3, 0, 1),
    (2, 3, 4, 8, 9, 3, 3, 1, 1),
    (2, 2, 3, 10, 6, 2, 4, 0, 2),
    (1, 4, 2, 7, 7, 5, 5, 2, 1),
    (1, 1, 2, 12, 12, 3, 3, 1, 1),
]


class TestRfft2:
    def test_matches_numpy(self, rng):
        x = rng.standard_normal((2, 3, 6, 7))
        got = rfft2(x, (8, 10))
        expected = np.fft.rfft2(x, s=(8, 10))
        np.testing.assert_allclose(got, expected, atol=1e-8)

    def test_roundtrip(self, rng):
        x = rng.standard_normal((5, 6))
        np.testing.assert_allclose(irfft2(rfft2(x, (5, 6)), (5, 6)), x,
                                   atol=1e-9)

    def test_builtin_backend(self, rng):
        x = rng.standard_normal((4, 4))
        np.testing.assert_allclose(rfft2(x, (6, 6), backend="builtin"),
                                   np.fft.rfft2(x, s=(6, 6)), atol=1e-8)


@pytest.mark.parametrize("case", CASES)
def test_fft2d_matches_naive(rng, case):
    n, c, f, ih, iw, kh, kw, p, s = case
    x = rng.standard_normal((n, c, ih, iw))
    w = rng.standard_normal((f, c, kh, kw))
    np.testing.assert_allclose(conv2d_fft(x, w, padding=p, stride=s),
                               convnd_naive(x, w, p, s), atol=1e-8)


@pytest.mark.parametrize("policy", ["pow2", "smooth7"])
def test_fft2d_policies(rng, policy):
    x = rng.standard_normal((1, 2, 9, 9))
    w = rng.standard_normal((2, 2, 3, 3))
    np.testing.assert_allclose(conv2d_fft(x, w, fft_policy=policy),
                               convnd_naive(x, w), atol=1e-8)


class TestFftTiling:
    @pytest.mark.parametrize("case", CASES)
    def test_matches_naive(self, rng, case):
        n, c, f, ih, iw, kh, kw, p, s = case
        x = rng.standard_normal((n, c, ih, iw))
        w = rng.standard_normal((f, c, kh, kw))
        np.testing.assert_allclose(
            conv2d_fft_tiling(x, w, padding=p, stride=s),
            convnd_naive(x, w, p, s), atol=1e-8)

    @pytest.mark.parametrize("tile", [1, 3, 4, 7, 32])
    def test_tile_sizes_including_non_dividing(self, rng, tile):
        x = rng.standard_normal((1, 1, 10, 11))
        w = rng.standard_normal((1, 1, 3, 3))
        np.testing.assert_allclose(conv2d_fft_tiling(x, w, tile=tile),
                                   convnd_naive(x, w), atol=1e-8)

    def test_invalid_tile(self, rng):
        with pytest.raises(ValueError, match="tile"):
            conv2d_fft_tiling(rng.standard_normal((1, 1, 5, 5)),
                              rng.standard_normal((1, 1, 3, 3)), tile=0)


@pytest.mark.parametrize("case", CASES)
def test_finegrain_matches_naive(rng, case):
    n, c, f, ih, iw, kh, kw, p, s = case
    x = rng.standard_normal((n, c, ih, iw))
    w = rng.standard_normal((f, c, kh, kw))
    np.testing.assert_allclose(
        conv2d_finegrain_fft(x, w, padding=p, stride=s),
        convnd_naive(x, w, p, s), atol=1e-8)


def test_finegrain_builtin_backend(rng):
    x = rng.standard_normal((1, 1, 6, 6))
    w = rng.standard_normal((1, 1, 3, 3))
    np.testing.assert_allclose(conv2d_finegrain_fft(x, w, backend="builtin"),
                               convnd_naive(x, w), atol=1e-8)
