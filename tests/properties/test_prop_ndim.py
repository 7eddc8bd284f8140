"""Property-based tests for the N-dimensional PolyHankel extension.

Two layers of properties:

- Core engine laws (match-the-oracle, linearity, channel decomposition)
  directly on :func:`convnd_polyhankel`.
- Operator-level laws on :func:`repro.baselines.registry.convolve` — the
  adjoint inner-product identity that *defines* transposed convolution,
  and the shape-formula round-trip showing ``output_padding`` recovers
  the exact forward input extent for any stride/dilation/padding draw.
"""

import numpy as np
from hypothesis import given, strategies as st

from repro.baselines.naive import convnd_naive
from repro.baselines.ndops import conv_transpose2d_output_shape
from repro.baselines.registry import ConvOp, convolve
from repro.core.ndim import convnd_polyhankel
from repro.utils.shapes import ConvShape


@st.composite
def nd_problems(draw):
    ndim = draw(st.integers(1, 3))
    spatial = tuple(draw(st.integers(2, 7)) for _ in range(ndim))
    padding = tuple(draw(st.integers(0, 1)) for _ in range(ndim))
    kernel = tuple(
        draw(st.integers(1, min(3, e + 2 * p)))
        for e, p in zip(spatial, padding)
    )
    stride = tuple(draw(st.integers(1, 2)) for _ in range(ndim))
    n = draw(st.integers(1, 2))
    c = draw(st.integers(1, 2))
    f = draw(st.integers(1, 2))
    seed = draw(st.integers(0, 2 ** 31 - 1))
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, c, *spatial))
    w = rng.standard_normal((f, c, *kernel))
    return x, w, padding, stride


@given(nd_problems())
def test_polyhankel_matches_naive_any_rank(problem):
    x, w, padding, stride = problem
    got = convnd_polyhankel(x, w, padding=padding, stride=stride)
    ref = convnd_naive(x, w, padding=padding, stride=stride)
    np.testing.assert_allclose(got, ref, atol=1e-7)


@given(nd_problems())
def test_linearity_any_rank(problem):
    x, w, padding, stride = problem
    rng = np.random.default_rng(0)
    x2 = rng.standard_normal(x.shape)
    lhs = convnd_polyhankel(x + x2, w, padding=padding, stride=stride)
    rhs = (convnd_polyhankel(x, w, padding=padding, stride=stride)
           + convnd_polyhankel(x2, w, padding=padding, stride=stride))
    np.testing.assert_allclose(lhs, rhs, atol=1e-7)


@st.composite
def adjoint_problems(draw):
    """Random rank-2 forward-conv problems with the full parameter space:
    per-axis stride and dilation, asymmetric padding, groups."""
    groups = draw(st.sampled_from([1, 2]))
    c = groups * draw(st.integers(1, 2))
    f = groups * draw(st.integers(1, 2))
    stride = tuple(draw(st.integers(1, 3)) for _ in range(2))
    dilation = tuple(draw(st.integers(1, 2)) for _ in range(2))
    padding = tuple(draw(st.integers(0, 2)) for _ in range(4))
    kernel = tuple(draw(st.integers(1, 3)) for _ in range(2))
    eff = tuple(d * (k - 1) + 1 for d, k in zip(dilation, kernel))
    spatial = tuple(
        max(draw(st.integers(2, 6)), e - lo - hi)
        for e, (lo, hi) in zip(eff, [padding[:2], padding[2:]])
    )
    seed = draw(st.integers(0, 2 ** 31 - 1))
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((draw(st.integers(1, 2)), c, *spatial))
    w = rng.standard_normal((f, c // groups, *kernel))
    params = dict(padding=padding, stride=stride, dilation=dilation,
                  groups=groups)
    return x, w, params, seed


@given(adjoint_problems())
def test_transpose_is_the_adjoint(problem):
    """``<conv(x, w), y> == <x, conv_T(y, w)>`` for random y: the
    transposed op is exactly the linear-algebra adjoint of the forward
    convolution with the same parameters."""
    x, w, params, seed = problem
    y = convolve(x, w, op=ConvOp.CONV2D, **params)
    y_coeff = np.random.default_rng(seed ^ 0x5EED).standard_normal(y.shape)
    shape = ConvShape.from_tensors(x.shape, w.shape, **params)
    out_pad = tuple(
        (p - e) % s for p, e, s in zip(
            shape.padded_extents, shape.eff_kernel, shape.stride_nd))
    xt = convolve(y_coeff, w, op=ConvOp.CONV_TRANSPOSE2D,
                  output_padding=out_pad, **params)
    assert xt.shape == x.shape
    scale = max(abs(float(np.vdot(y, y_coeff))), 1.0)
    np.testing.assert_allclose(float(np.vdot(x, xt)),
                               float(np.vdot(y, y_coeff)),
                               atol=1e-8 * scale)


@given(adjoint_problems())
def test_shape_formula_roundtrip(problem):
    """The tconv output-shape formula with the remainder as
    ``output_padding`` recovers the forward input extent exactly."""
    x, w, params, _ = problem
    shape = ConvShape.from_tensors(x.shape, w.shape, **params)
    out_pad = tuple(
        (p - e) % s for p, e, s in zip(
            shape.padded_extents, shape.eff_kernel, shape.stride_nd))
    y_shape = shape.output_shape()
    # The forward weight re-read in the tconv (c_in, c_out/g, kh, kw)
    # layout: the forward filters become the adjoint's input channels.
    got = conv_transpose2d_output_shape(
        y_shape, w.shape, padding=params["padding"],
        stride=params["stride"], dilation=params["dilation"],
        output_padding=out_pad, groups=params["groups"])
    assert got == x.shape


@given(nd_problems())
def test_channel_sum_decomposition(problem):
    """Multi-channel output equals the sum of single-channel convolutions —
    the frequency-domain channel aggregation is exact."""
    x, w, padding, stride = problem
    full = convnd_polyhankel(x, w, padding=padding, stride=stride)
    per_channel = sum(
        convnd_polyhankel(x[:, c: c + 1], w[:, c: c + 1],
                          padding=padding, stride=stride)
        for c in range(x.shape[1])
    )
    np.testing.assert_allclose(full, per_channel, atol=1e-7)
