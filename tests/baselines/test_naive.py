"""Tests for the direct convolution reference."""

import numpy as np
import pytest

from repro.baselines.naive import convnd_naive
from tests.conftest import naive_conv2d_reference


@pytest.mark.parametrize("case", [
    (1, 1, 1, 5, 5, 3, 3, 0, 1),
    (2, 3, 4, 7, 8, 3, 2, 1, 1),
    (1, 2, 2, 9, 9, 3, 3, 0, 2),
    (3, 1, 1, 4, 4, 4, 4, 0, 1),
])
def test_matches_independent_reference(rng, case):
    n, c, f, ih, iw, kh, kw, p, s = case
    x = rng.standard_normal((n, c, ih, iw))
    w = rng.standard_normal((f, c, kh, kw))
    np.testing.assert_allclose(convnd_naive(x, w, p, s),
                               naive_conv2d_reference(x, w, p, s),
                               atol=1e-10)


def test_identity_kernel(rng):
    x = rng.standard_normal((1, 1, 5, 5))
    w = np.zeros((1, 1, 3, 3))
    w[0, 0, 1, 1] = 1.0
    np.testing.assert_allclose(convnd_naive(x, w, padding=1), x, atol=1e-12)


def test_is_cross_correlation_not_flipped(rng):
    """Deep-learning convention: no kernel flip."""
    x = np.zeros((1, 1, 3, 3))
    x[0, 0, 0, 0] = 1.0
    w = np.arange(4.0).reshape(1, 1, 2, 2)
    out = convnd_naive(x, w)
    assert out[0, 0, 0, 0] == w[0, 0, 0, 0]


def test_validates_inputs(rng):
    with pytest.raises(ValueError):
        convnd_naive(rng.standard_normal((1, 1, 3, 3)),
                     rng.standard_normal((1, 2, 2, 2)))
