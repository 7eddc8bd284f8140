"""Tests for the algorithm registry and dispatch."""

import numpy as np
import pytest

from repro.baselines.naive import convnd_naive
from repro.baselines.registry import (
    ConvAlgorithm,
    convolve,
    get_entry,
    list_algorithms,
    supports,
)
from repro.utils.shapes import ConvShape


class TestListing:
    def test_all_enum_members_registered(self):
        assert set(list_algorithms()) == set(ConvAlgorithm)

    def test_entries_have_descriptions(self):
        for algo in list_algorithms():
            entry = get_entry(algo)
            assert entry.description
            assert callable(entry.fn)


class TestResolution:
    def test_by_enum(self):
        assert get_entry(ConvAlgorithm.FFT).algorithm is ConvAlgorithm.FFT

    def test_by_string(self):
        assert get_entry("polyhankel").algorithm is ConvAlgorithm.POLYHANKEL

    def test_unknown_string(self):
        with pytest.raises(ValueError, match="unknown algorithm"):
            get_entry("quantum")


class TestCapabilities:
    def test_winograd_rejects_stride(self):
        shape = ConvShape((9, 9), (3, 3), stride=2)
        assert not supports(ConvAlgorithm.WINOGRAD, shape)
        assert not supports(ConvAlgorithm.WINOGRAD_NONFUSED, shape)

    def test_winograd_rejects_huge_kernels(self):
        shape = ConvShape((30, 30), (12, 12))
        assert not supports(ConvAlgorithm.WINOGRAD, shape)

    def test_everything_else_supports_strides(self):
        shape = ConvShape((9, 9), (3, 3), stride=2)
        for algo in (ConvAlgorithm.GEMM, ConvAlgorithm.FFT,
                     ConvAlgorithm.POLYHANKEL, ConvAlgorithm.FINEGRAIN_FFT):
            assert supports(algo, shape)


class TestConvolve:
    def test_dispatch_by_string(self, rng):
        x = rng.standard_normal((1, 2, 6, 6))
        w = rng.standard_normal((2, 2, 3, 3))
        got = convolve(x, w, algorithm="fft", padding=1)
        np.testing.assert_allclose(got, convnd_naive(x, w, 1), atol=1e-8)

    def test_unsupported_shape_raises(self, rng):
        x = rng.standard_normal((1, 1, 9, 9))
        w = rng.standard_normal((1, 1, 3, 3))
        with pytest.raises(ValueError, match="does not support"):
            convolve(x, w, algorithm="winograd", stride=2)

    def test_kwargs_forwarded(self, rng):
        x = rng.standard_normal((1, 1, 6, 6))
        w = rng.standard_normal((1, 1, 3, 3))
        got = convolve(x, w, algorithm="polyhankel", fft_policy="smooth7")
        np.testing.assert_allclose(got, convnd_naive(x, w), atol=1e-8)

    def test_every_capable_algorithm_agrees(self, rng):
        x = rng.standard_normal((2, 2, 8, 8))
        w = rng.standard_normal((3, 2, 3, 3))
        shape = ConvShape.from_tensors(x.shape, w.shape, 1, 1)
        ref = convnd_naive(x, w, 1)
        for algo in list_algorithms():
            if supports(algo, shape):
                got = convolve(x, w, algorithm=algo, padding=1)
                np.testing.assert_allclose(got, ref, atol=1e-7,
                                           err_msg=str(algo))
