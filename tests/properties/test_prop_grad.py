"""Property-based tests for the convolution backward passes.

The key algebraic fact: backward-input is the *adjoint* of the forward
map, so for all x, g:  <conv(x, w), g> == <x, backward_input(g, w)>.
Similarly for the weights.  These inner-product identities must hold
exactly (up to float error) for every shape — a much stronger check than
spot finite differences.
"""

import numpy as np
from hypothesis import given, strategies as st

from repro.baselines.naive import convnd_naive
from repro.nn.grad import (
    convnd_backward_input,
    convnd_backward_weight,
    dilate_spatial,
)
from repro.utils.shapes import ConvShape


@st.composite
def grad_problems(draw):
    ih = draw(st.integers(2, 10))
    iw = draw(st.integers(2, 10))
    padding = draw(st.integers(0, 2))
    kh = draw(st.integers(1, min(4, ih + 2 * padding)))
    kw = draw(st.integers(1, min(4, iw + 2 * padding)))
    stride = draw(st.integers(1, 3))
    n = draw(st.integers(1, 2))
    c = draw(st.integers(1, 2))
    f = draw(st.integers(1, 2))
    shape = ConvShape((ih, iw), (kh, kw), n=n, c=c, f=f, padding=padding,
                      stride=stride)
    seed = draw(st.integers(0, 2 ** 31 - 1))
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(shape.input_shape())
    w = rng.standard_normal(shape.weight_shape())
    g = rng.standard_normal(shape.output_shape())
    return shape, x, w, g


@given(grad_problems())
def test_backward_input_is_adjoint(problem):
    shape, x, w, g = problem
    forward = convnd_naive(x, w, shape.padding, shape.stride)
    dx = convnd_backward_input(g, w, x.shape, shape.padding, shape.stride)
    np.testing.assert_allclose(np.sum(forward * g), np.sum(x * dx),
                               rtol=1e-7, atol=1e-7)


@given(grad_problems())
def test_backward_weight_is_adjoint(problem):
    shape, x, w, g = problem
    forward = convnd_naive(x, w, shape.padding, shape.stride)
    dw = convnd_backward_weight(g, x, (shape.kh, shape.kw), shape.padding,
                                shape.stride)
    np.testing.assert_allclose(np.sum(forward * g), np.sum(w * dw),
                               rtol=1e-7, atol=1e-7)


@given(grad_problems())
def test_gradients_linear_in_upstream(problem):
    shape, x, w, g = problem
    dx1 = convnd_backward_input(g, w, x.shape, shape.padding, shape.stride)
    dx2 = convnd_backward_input(2.0 * g, w, x.shape, shape.padding,
                                shape.stride)
    np.testing.assert_allclose(dx2, 2.0 * dx1, atol=1e-8)


@given(st.integers(1, 4), st.integers(1, 4), st.integers(1, 4))
def test_dilate_roundtrip(h, w, stride):
    rng = np.random.default_rng(h * 100 + w * 10 + stride)
    x = rng.standard_normal((1, 1, h, w))
    dilated = dilate_spatial(x, stride)
    np.testing.assert_array_equal(dilated[..., ::stride, ::stride], x)
    assert np.count_nonzero(dilated) <= x.size
