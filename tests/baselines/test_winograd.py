"""Tests for Winograd convolution and its generated transforms."""

import numpy as np
import pytest

from repro.baselines.naive import convnd_naive
from repro.baselines.winograd import (
    MAX_ALPHA,
    conv2d_winograd,
    conv2d_winograd_nonfused,
    winograd_correlate_1d,
    winograd_transforms,
)


class TestTransforms:
    def test_f23_shapes(self):
        at, g, bt = winograd_transforms(2, 3)
        assert at.shape == (2, 4)
        assert g.shape == (4, 3)
        assert bt.shape == (4, 4)

    def test_f23_bilinear_identity(self, rng):
        """A^T [(G g) . (B^T d)] computes the correlation for all d, g."""
        at, g_m, bt = winograd_transforms(2, 3)
        for _ in range(5):
            d = rng.standard_normal(4)
            g = rng.standard_normal(3)
            expected = [d[0:3] @ g, d[1:4] @ g]
            got = at @ ((g_m @ g) * (bt @ d))
            np.testing.assert_allclose(got, expected, atol=1e-10)

    def test_f23_matches_classic_up_to_scaling(self):
        """The classic Lavin F(2,3) matrices satisfy the same identity; our
        generated ones agree on every product (scaling freedom aside)."""
        at, g_m, bt = winograd_transforms(2, 3)
        d = np.arange(1.0, 5.0)
        g = np.array([1.0, -2.0, 0.5])
        classic_bt = np.array([[1, 0, -1, 0], [0, 1, 1, 0],
                               [0, -1, 1, 0], [0, 1, 0, -1]], dtype=float)
        classic_g = np.array([[1, 0, 0], [0.5, 0.5, 0.5],
                              [0.5, -0.5, 0.5], [0, 0, 1]])
        classic_at = np.array([[1, 1, 1, 0], [0, 1, -1, -1]], dtype=float)
        classic = classic_at @ ((classic_g @ g) * (classic_bt @ d))
        ours = at @ ((g_m @ g) * (bt @ d))
        np.testing.assert_allclose(ours, classic, atol=1e-10)

    def test_transform_caching(self):
        assert winograd_transforms(2, 3) is winograd_transforms(2, 3)

    def test_alpha_limit(self):
        with pytest.raises(ValueError, match="too ill-conditioned"):
            winograd_transforms(8, 8)

    def test_invalid_mr(self):
        with pytest.raises(ValueError):
            winograd_transforms(0, 3)


class TestCorrelate1d:
    @pytest.mark.parametrize("m,r", [(1, 2), (2, 2), (2, 3), (4, 3), (6, 3),
                                     (2, 5), (3, 4), (4, 5), (1, 3)])
    def test_matches_direct(self, rng, m, r):
        d = rng.standard_normal(m + r - 1)
        g = rng.standard_normal(r)
        expected = np.array([d[k:k + r] @ g for k in range(m)])
        np.testing.assert_allclose(winograd_correlate_1d(d, g, m), expected,
                                   atol=1e-8)

    def test_segment_length_checked(self, rng):
        with pytest.raises(ValueError, match="samples"):
            winograd_correlate_1d(rng.standard_normal(5),
                                  rng.standard_normal(3), m=2)


CASES = [
    (1, 1, 1, 6, 6, 3, 3, 0),
    (2, 3, 4, 8, 9, 3, 3, 1),
    (1, 2, 2, 7, 7, 2, 2, 0),
    (1, 1, 2, 10, 10, 5, 5, 2),
    (2, 2, 1, 9, 7, 3, 2, 1),
]


@pytest.mark.parametrize("case", CASES)
@pytest.mark.parametrize("variant", ["fused", "nonfused"])
def test_conv2d_matches_naive(rng, case, variant):
    n, c, f, ih, iw, kh, kw, p = case
    x = rng.standard_normal((n, c, ih, iw))
    w = rng.standard_normal((f, c, kh, kw))
    got = conv2d_winograd(x, w, padding=p, variant=variant)
    np.testing.assert_allclose(got, convnd_naive(x, w, p), atol=1e-7)


def test_variants_identical(rng):
    x = rng.standard_normal((1, 2, 8, 8))
    w = rng.standard_normal((2, 2, 3, 3))
    np.testing.assert_allclose(conv2d_winograd(x, w, padding=1),
                               conv2d_winograd_nonfused(x, w, padding=1),
                               atol=1e-9)


@pytest.mark.parametrize("m", [2, 3, 4])
def test_tile_sizes(rng, m):
    x = rng.standard_normal((1, 1, 11, 11))
    w = rng.standard_normal((1, 1, 3, 3))
    np.testing.assert_allclose(conv2d_winograd(x, w, m=m),
                               convnd_naive(x, w), atol=1e-7)


def test_output_not_multiple_of_tile(rng):
    """Oh=5 with m=2 needs a partial final tile."""
    x = rng.standard_normal((1, 1, 7, 7))
    w = rng.standard_normal((1, 1, 3, 3))
    np.testing.assert_allclose(conv2d_winograd(x, w, m=2),
                               convnd_naive(x, w), atol=1e-8)


def test_stride_rejected(rng):
    with pytest.raises(ValueError, match="stride 1"):
        conv2d_winograd(rng.standard_normal((1, 1, 8, 8)),
                        rng.standard_normal((1, 1, 3, 3)), stride=2)


def test_unknown_variant(rng):
    with pytest.raises(ValueError, match="variant"):
        conv2d_winograd(rng.standard_normal((1, 1, 8, 8)),
                        rng.standard_normal((1, 1, 3, 3)), variant="magic")


def test_max_alpha_exported():
    assert MAX_ALPHA >= 8
