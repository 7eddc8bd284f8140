"""PolyHankel gradients through the forward plan's adjoint.

``PolyHankelPlan.adjoint`` computes both gradients as cyclic correlations
at the forward's own ``nfft``.  They are checked against the naive
algorithm's convolution-based gradients over the parameter space, for the
transposed convolution's swapped-role weight gradient and on the builtin
FFT backend; the input gradient is pinned batch-invariant bit for bit, and
both satisfy the adjoint identity of the forward.
"""

import itertools

import numpy as np
import pytest

from repro import fft as _fft
from repro.baselines.registry import ConvAlgorithm, convolve
from repro.core.multichannel import get_plan
from repro.nn.grad import (
    conv_transpose2d_backward_weight,
    convnd_backward,
    convnd_backward_input,
    convnd_backward_weight,
)
from repro.observe import tracing
from repro.utils.shapes import ConvShape

NAIVE = ConvAlgorithm.NAIVE
C, F = 4, 8
#: Spatial extents and kernel per rank.
GEOMETRY = {1: ((11,), (3,)), 2: ((7, 8), (3, 2)), 3: ((5, 6, 5), (2, 3, 2))}
STRIDES = ("1", "2", "per-axis")
DILATIONS = (1, 2)
PADDINGS = ("0", "asymmetric", "same")
GROUPS = ("1", "2", "depthwise")


def _params(ndim, stride, dilation, padding, groups):
    """Convolution keywords and the filter count for one grid point."""
    stride = {"1": 1, "2": 2, "per-axis": (3, 1, 2)[:ndim]}[stride]
    padding = {"0": 0, "asymmetric": sum(((1, 0), (0, 2), (2, 1))[:ndim],
                                         ()),
               "same": "same"}[padding]
    # Depthwise with one filter per channel: no sum in the input
    # gradient's contraction, so its broadcast-multiply branch runs.
    groups, f = {"1": (1, F), "2": (2, F), "depthwise": (C, C)}[groups]
    return dict(padding=padding, stride=stride, dilation=dilation,
                groups=groups), f


def _rel_err(got, ref):
    return float(np.max(np.abs(got - ref)) / np.max(np.abs(ref)))


def _problem(rng, ndim, f, params, n=2):
    extents, kernel = GEOMETRY[ndim]
    x = rng.standard_normal((n, C, *extents))
    w = rng.standard_normal((f, C // params["groups"], *kernel))
    grad_out = rng.standard_normal(convolve(x, w, NAIVE, **params).shape)
    return x, w, grad_out


@pytest.mark.parametrize("ndim,stride,dilation,padding,groups",
                         list(itertools.product(GEOMETRY, STRIDES, DILATIONS,
                                                PADDINGS, GROUPS)))
def test_gradients_match_naive(rng, ndim, stride, dilation, padding,
                               groups):
    params, f = _params(ndim, stride, dilation, padding, groups)
    x, w, grad_out = _problem(rng, ndim, f, params)
    dx, dw = convnd_backward(grad_out, x, w, **params)
    assert _rel_err(dx, convnd_backward_input(
        grad_out, w, x.shape, algorithm=NAIVE, **params)) < 1e-12
    assert _rel_err(dw, convnd_backward_weight(
        grad_out, x, w.shape[2:], algorithm=NAIVE, **params)) < 1e-12


def test_single_gradient_entry_points_match_the_joint_call(rng):
    params, f = _params(2, "per-axis", 2, "asymmetric", "2")
    x, w, grad_out = _problem(rng, 2, f, params)
    dx, dw = convnd_backward(grad_out, x, w, **params)
    assert np.array_equal(
        convnd_backward_input(grad_out, w, x.shape, **params), dx)
    assert np.array_equal(
        convnd_backward_weight(grad_out, x, w.shape[2:], **params), dw)
    only_dx = convnd_backward(grad_out, x, w, weight_grad=False, **params)
    only_dw = convnd_backward(grad_out, x, w, input_grad=False, **params)
    assert only_dx[1] is None and np.array_equal(only_dx[0], dx)
    assert only_dw[0] is None and np.array_equal(only_dw[1], dw)


@pytest.mark.parametrize("stride,padding,groups", [
    (1, 0, 1), (2, 1, 1), ((2, 1), (1, 0, 0, 1), 2)])
def test_transposed_conv_weight_gradient(rng, stride, padding, groups):
    # A tconv weight (c_in, c_out/g, kh, kw); its input x has c_in
    # channels and its output gradient c_out.
    w = rng.standard_normal((4, 6 // groups, 3, 3))
    x = rng.standard_normal((2, 4, 5, 6))
    y = convolve(x, w, NAIVE, padding=padding, stride=stride,
                 groups=groups, op="conv_transpose2d")
    grad_out = rng.standard_normal(y.shape)
    params = dict(padding=padding, stride=stride, groups=groups)
    got = conv_transpose2d_backward_weight(grad_out, x, (3, 3), **params)
    ref = conv_transpose2d_backward_weight(grad_out, x, (3, 3),
                                           algorithm=NAIVE, **params)
    assert got.shape == w.shape
    assert _rel_err(got, ref) < 1e-12


@pytest.mark.parametrize("ndim", [1, 2])
def test_builtin_backend(rng, ndim):
    params, f = _params(ndim, "per-axis", 2, "asymmetric", "2")
    x, w, grad_out = _problem(rng, ndim, f, params)
    with _fft.use_backend("builtin"):
        dx, dw = convnd_backward(grad_out, x, w, **params)
        plan = get_plan(ConvShape.from_tensors(x.shape, w.shape, **params))
    assert plan.backend == "builtin"
    assert _rel_err(dx, convnd_backward_input(
        grad_out, w, x.shape, algorithm=NAIVE, **params)) < 1e-12
    assert _rel_err(dw, convnd_backward_weight(
        grad_out, x, w.shape[2:], algorithm=NAIVE, **params)) < 1e-12


@pytest.mark.parametrize("groups,f", [(1, 8), (2, 8), (4, 8), (4, 4)])
def test_input_gradient_is_batch_invariant(rng, groups, f):
    params = dict(padding=1, stride=(2, 1), groups=groups)
    x, w, grad_out = _problem(rng, 2, f, params, n=4)
    batch = convnd_backward_input(grad_out, w, x.shape, **params)
    for i in range(4):
        single = convnd_backward_input(grad_out[i:i + 1], w,
                                       (1,) + x.shape[1:], **params)
        assert np.array_equal(batch[i:i + 1], single)


@pytest.mark.parametrize("ndim", [1, 2, 3])
def test_adjoint_identity(rng, ndim):
    """``<conv(e, w), dy> == <e, dx>`` and ``<conv(x, e), dy> == <e,
    dw>`` for random directions ``e``, with the PolyHankel forward."""
    params, f = _params(ndim, "per-axis", 2, "asymmetric", "2")
    x, w, grad_out = _problem(rng, ndim, f, params)
    dx, dw = convnd_backward(grad_out, x, w, **params)
    e_x, e_w = rng.standard_normal(x.shape), rng.standard_normal(w.shape)
    lhs = np.vdot(convolve(e_x, w, **params), grad_out)
    assert lhs == pytest.approx(np.vdot(e_x, dx), rel=1e-12)
    lhs = np.vdot(convolve(x, e_w, **params), grad_out)
    assert lhs == pytest.approx(np.vdot(e_w, dw), rel=1e-12)


def test_adjoint_records_no_engine_stage_spans(rng):
    """The engine's ``stage.*`` spans belong to ``execute``; the adjoint
    names its own ``grad.*``."""
    params, f = _params(2, "1", 1, "0", "1")
    x, w, grad_out = _problem(rng, 2, f, params)
    plan = get_plan(ConvShape.from_tensors(x.shape, w.shape, **params))
    with tracing() as spans:
        plan.adjoint(grad_out, x=x, weight=w)
    names = {s.name for s in spans}
    assert not any(name.startswith("stage.") for name in names)
    assert {"grad.output_fft", "grad.input_fft", "grad.pointwise",
            "grad.inverse_fft"} <= names


def test_adjoint_checks_shapes_and_strategy(rng):
    shape = ConvShape((6, 6), (3, 3), n=1, c=2, f=3)
    plan = get_plan(shape)
    with pytest.raises(ValueError, match="grad_out shape"):
        plan.adjoint(rng.standard_normal((1, 3, 5, 5)))
    with pytest.raises(ValueError, match="input shape"):
        plan.adjoint(rng.standard_normal((1, 3, 4, 4)),
                     x=rng.standard_normal((1, 2, 7, 7)))
    with pytest.raises(ValueError, match="sum-strategy"):
        get_plan(shape, strategy="merge").adjoint(
            rng.standard_normal((1, 3, 4, 4)))
