"""The cyclic transform-length bound of the PolyHankel product.

Eq. 12 reads only degrees ``M ... poly_input_len - 1`` of the product
polynomial, so a cyclic product of any length ``L >= poly_input_len``
wraps the overflow below ``M`` and returns the same outputs.  These
checks pin the bound: plans built under the ``"exact"`` policy use
exactly that length and stay correct across every rank and geometry,
one coefficient less breaks them, and the weight-gradient shape (a
kernel nearly as large as its input) is covered too.
"""

import itertools

import numpy as np
import pytest

from repro.baselines.registry import convolve
from repro.core.construction import output_gather_indices, tap_degrees
from repro.core.multichannel import get_plan
from repro.utils.shapes import ConvShape
from tests.conftest import assert_conv_close, naive_convnd_reference

#: Spatial extents and kernel per rank: small, odd-sized, with room for a
#: dilated kernel under zero padding.
GEOMETRY = {
    1: ((13,), (3,)),
    2: ((9, 8), (3, 2)),
    3: ((6, 7, 5), (2, 3, 2)),
}

#: The last id token names the spectrum layout each case once ran under;
#: there is one pipeline now, and the token picks the batch size instead.
BATCH = {"planar": 1, "interleaved": 2}

GRID = [
    pytest.param(ndim, s, d, p, g, layout,
                 id=f"{ndim}d-s{s}-d{d}-p{p}-g{g}-{layout}")
    for ndim, s, d, p, g, layout in itertools.product(
        (1, 2, 3), (1, 2), (1, 2), (0, "same"), (1, 2), BATCH)
]


def _shape_type(ndim):
    return ConvShape if ndim == 2 else ConvShape


def _exact_plan_output(x, w, padding, stride, dilation, groups):
    shape = _shape_type(x.ndim - 2).from_tensors(x.shape, w.shape, padding,
                                                 stride, dilation, groups)
    plan = get_plan(shape, "exact", backend="numpy")
    assert plan.nfft == shape.poly_input_len
    return plan.execute(x, plan.transform_weight(w))


@pytest.mark.parametrize("ndim,stride,dilation,padding,groups,layout", GRID)
def test_exact_plan_uses_cyclic_length(ndim, stride, dilation, padding,
                                       groups, layout):
    """Correct at the cyclic length; a batch's rows are also the bits of
    the single-image calls."""
    extents, kernel = GEOMETRY[ndim]
    rng = np.random.default_rng(ndim * 100 + stride * 10 + dilation)
    x = rng.standard_normal((BATCH[layout], 4) + extents)
    w = rng.standard_normal((4, 4 // groups) + kernel)
    params = (padding, stride, dilation, groups)
    got = _exact_plan_output(x, w, *params)
    assert_conv_close(got, naive_convnd_reference(x, w, *params))
    for i in range(len(x)):
        assert np.array_equal(got[i:i + 1],
                              _exact_plan_output(x[i:i + 1], w, *params))


def _cyclic_product_output(x, w, shape, length):
    """Single-image, single-filter PolyHankel output from a cyclic
    product of *length* coefficients, read at the Eq. 12 degrees."""
    a = np.pad(x[0, 0], shape.pad_pairs).reshape(-1)
    u = np.zeros(shape.poly_kernel_len)
    u[tap_degrees(shape)] = w[0, 0]
    product = np.fft.irfft(np.fft.rfft(a, length) * np.fft.rfft(u, length),
                           length)
    return product[output_gather_indices(shape) % length]


@pytest.mark.parametrize("ndim", [1, 2, 3])
def test_bound_is_tight_at_stride_one(ndim):
    """At stride 1 the last output sits at degree ``poly_input_len - 1``,
    so one coefficient less wraps the product onto the outputs.  No
    padding: the input's top coefficient is data, not a zero border."""
    extents, kernel = GEOMETRY[ndim]
    rng = np.random.default_rng(ndim)
    x = rng.standard_normal((1, 1) + extents)
    w = rng.standard_normal((1, 1) + kernel)
    shape = _shape_type(ndim).from_tensors(x.shape, w.shape)
    want = naive_convnd_reference(x, w)[0, 0]
    len_a = shape.poly_input_len

    assert_conv_close(_cyclic_product_output(x, w, shape, len_a), want)
    short = _cyclic_product_output(x, w, shape, len_a - 1)
    assert not np.allclose(short, want, atol=1e-6)


def test_weight_gradient_shape_matches_naive():
    """The weight gradient of a padded 3x3 conv on 32x32 inputs correlates
    the 34x34 padded input with a 32x32 gradient "kernel": the kernel
    polynomial nearly fills the input polynomial, the case where the
    cyclic bound saves the least and wraps the most."""
    rng = np.random.default_rng(19)
    x_t = rng.standard_normal((2, 3, 34, 34))   # (c, n, *padded)
    g_t = rng.standard_normal((4, 3, 32, 32))   # (f, n, *grad)
    want = naive_convnd_reference(x_t, g_t)
    assert_conv_close(convolve(x_t, g_t, "polyhankel"), want)
    shape = ConvShape.from_tensors(x_t.shape, g_t.shape)
    plan = get_plan(shape, "exact", backend="numpy")
    assert plan.nfft == 34 * 34
    assert_conv_close(plan.execute(x_t, plan.transform_weight(g_t)), want)
