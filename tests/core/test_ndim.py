"""Tests for the N-dimensional PolyHankel extension."""

import numpy as np
import pytest

from repro.baselines.naive import convnd_naive
from repro.core.ndim import (
    conv1d_polyhankel,
    conv3d_polyhankel,
    convnd_polyhankel,
    kernel_polynomial_nd,
    max_kernel_degree_nd,
)


class TestConv1d:
    @pytest.mark.parametrize("length,klen,p,s", [
        (10, 3, 0, 1), (16, 5, 2, 1), (12, 4, 0, 2), (9, 3, 1, 3),
        (5, 5, 0, 1), (1, 1, 0, 1),
    ])
    def test_matches_naive(self, rng, length, klen, p, s):
        x = rng.standard_normal((2, 3, length))
        w = rng.standard_normal((4, 3, klen))
        got = conv1d_polyhankel(x, w, padding=p, stride=s)
        ref = convnd_naive(x, w, padding=p, stride=s)
        np.testing.assert_allclose(got, ref, atol=1e-8)

    def test_matches_numpy_correlate(self, rng):
        x = rng.standard_normal(20)
        w = rng.standard_normal(4)
        got = conv1d_polyhankel(x[None, None], w[None, None])[0, 0]
        ref = np.correlate(x, w, mode="valid")
        np.testing.assert_allclose(got, ref, atol=1e-9)

    def test_wrong_rank_rejected(self, rng):
        with pytest.raises(ValueError, match="length"):
            conv1d_polyhankel(rng.standard_normal((2, 3, 4, 5)),
                              rng.standard_normal((1, 3, 2)))


class TestConv2dViaNd:
    def test_agrees_with_dedicated_2d_path(self, rng):
        from repro.core.multichannel import conv2d_polyhankel

        x = rng.standard_normal((2, 3, 8, 7))
        w = rng.standard_normal((4, 3, 3, 2))
        np.testing.assert_allclose(
            convnd_polyhankel(x, w, padding=1, stride=2),
            conv2d_polyhankel(x, w, padding=1, stride=2), atol=1e-8)

    def test_per_dimension_padding_and_stride(self, rng):
        x = rng.standard_normal((1, 2, 9, 7))
        w = rng.standard_normal((2, 2, 3, 3))
        got = convnd_polyhankel(x, w, padding=(2, 1), stride=(1, 2))
        ref = convnd_naive(x, w, padding=(2, 1), stride=(1, 2))
        np.testing.assert_allclose(got, ref, atol=1e-8)


class TestConv3d:
    @pytest.mark.parametrize("case", [
        ((1, 1, 4, 4, 4), (1, 1, 2, 2, 2), 0, 1),
        ((2, 2, 5, 6, 4), (3, 2, 2, 3, 2), 0, 1),
        ((1, 2, 6, 6, 6), (2, 2, 3, 3, 3), 1, 1),
        ((1, 1, 6, 5, 7), (1, 1, 2, 2, 2), 0, 2),
    ])
    def test_matches_naive(self, rng, case):
        x_shape, w_shape, p, s = case
        x = rng.standard_normal(x_shape)
        w = rng.standard_normal(w_shape)
        got = conv3d_polyhankel(x, w, padding=p, stride=s)
        ref = convnd_naive(x, w, padding=p, stride=s)
        np.testing.assert_allclose(got, ref, atol=1e-8)

    def test_wrong_rank_rejected(self, rng):
        with pytest.raises(ValueError, match="d, h, w"):
            conv3d_polyhankel(rng.standard_normal((2, 3, 4)),
                              rng.standard_normal((1, 3, 2)))


class TestFourDimensional:
    def test_4d_convolution_works(self, rng):
        """The construction is rank-generic; 4D as a stress test."""
        x = rng.standard_normal((1, 1, 3, 4, 3, 5))
        w = rng.standard_normal((2, 1, 2, 2, 2, 3))
        got = convnd_polyhankel(x, w)
        ref = convnd_naive(x, w)
        np.testing.assert_allclose(got, ref, atol=1e-8)


class TestConstruction:
    def test_2d_kernel_polynomial_matches_dedicated(self, rng):
        from repro.core.construction import kernel_polynomial

        k = rng.standard_normal((3, 2))
        np.testing.assert_array_equal(kernel_polynomial_nd(k, (6, 5)),
                                      kernel_polynomial(k, 5))

    def test_max_degree_2d_matches(self):
        from repro.core.degree_map import max_kernel_degree

        assert max_kernel_degree_nd((3, 3), (5, 1)) == \
            max_kernel_degree(3, 3, 5)

    def test_validation(self, rng):
        x = rng.standard_normal((1, 2, 5, 5))
        w = rng.standard_normal((1, 3, 2, 2))
        with pytest.raises(ValueError, match="channel mismatch"):
            convnd_polyhankel(x, w)
        with pytest.raises(ValueError, match="one entry per spatial"):
            convnd_polyhankel(rng.standard_normal((1, 2, 5, 5)),
                              rng.standard_normal((1, 2, 2, 2)),
                              padding=(1, 1, 1))
        with pytest.raises(ValueError, match="exceeds padded input"):
            convnd_polyhankel(rng.standard_normal((1, 1, 3, 3)),
                              rng.standard_normal((1, 1, 5, 5)))


class TestOptions:
    def test_builtin_backend(self, rng):
        x = rng.standard_normal((1, 1, 4, 4, 4))
        w = rng.standard_normal((1, 1, 2, 2, 2))
        np.testing.assert_allclose(
            conv3d_polyhankel(x, w, backend="builtin"),
            convnd_naive(x, w), atol=1e-8)

    def test_fft_policy(self, rng):
        x = rng.standard_normal((1, 2, 10))
        w = rng.standard_normal((2, 2, 3))
        np.testing.assert_allclose(
            conv1d_polyhankel(x, w, fft_policy="smooth7"),
            convnd_naive(x, w), atol=1e-9)
