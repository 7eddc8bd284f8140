"""Convolution gradients.

The paper evaluates the forward operator, but a drop-in convolution
implementation must also serve training.

**PolyHankel** differentiates through its own spectra: the forward is a
cyclic product of length ``nfft`` read at alias-free degrees, so both
gradients are cyclic correlations at that same length, computed by
:meth:`repro.core.multichannel.PolyHankelPlan.adjoint` on the forward's
plan — one transform of the output gradient shared by both, and the
forward's cached weight spectrum for the input gradient.

**Every other algorithm** reduces both backward passes to convolutions
run through :func:`repro.baselines.registry.convolve`:

- **input gradient**: correlate the (stride-dilated, fully padded) output
  gradient with the spatially flipped, channel-transposed weights;
- **weight gradient**: correlate the padded input with the (stride-dilated)
  output gradient, treating batch as the contraction axis.

One rank-generic body per gradient serves conv1d, conv2d and conv3d.
Gradient correctness is established against finite differences in
``tests/nn/test_grad.py`` and ``tests/nn/test_grad_ndim.py``, and the
spectral adjoint against the naive algorithm's gradients in
``tests/nn/test_spectral_grad.py``.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.registry import ConvAlgorithm, convolve, get_entry
from repro.core.multichannel import get_plan
from repro.hankel.im2col_view import pad_spatial
from repro.utils.shapes import ConvShape, normalize_tuple
from repro.utils.validation import ensure_array


def _spectral(algorithm: ConvAlgorithm | str) -> bool:
    """Whether *algorithm* differentiates through the PolyHankel adjoint."""
    return get_entry(algorithm).algorithm is ConvAlgorithm.POLYHANKEL


def dilate_spatial(x: np.ndarray, stride) -> np.ndarray:
    """Insert zeros between samples of the spatial axes of an
    ``(n, c, *spatial)`` array.

    *stride* may be one factor for every axis or a per-axis tuple;
    ``stride - 1`` zeros go between consecutive samples.
    """
    stride_nd = normalize_tuple(stride, x.ndim - 2, "stride")
    if all(s == 1 for s in stride_nd):
        return x
    lead, spatial = x.shape[:2], x.shape[2:]
    out = np.zeros(
        (*lead, *((e - 1) * s + 1 for e, s in zip(spatial, stride_nd))),
        dtype=x.dtype)
    out[(...,) + tuple(slice(None, None, s) for s in stride_nd)] = x
    return out


def convnd_backward(grad_out: np.ndarray, x: np.ndarray,
                    weight: np.ndarray, padding=0, stride: int | tuple = 1,
                    dilation: int | tuple = 1, groups: int = 1,
                    algorithm: ConvAlgorithm | str =
                    ConvAlgorithm.POLYHANKEL, input_grad: bool = True,
                    weight_grad: bool = True
                    ) -> tuple[np.ndarray | None, np.ndarray | None]:
    """Input and weight gradients ``(dx, dw)`` of one 1D/2D/3D
    convolution, ``None`` for a gradient not asked for.

    PolyHankel computes both in one adjoint call, so the output gradient
    is transformed once; every other algorithm runs
    :func:`convnd_backward_input` and :func:`convnd_backward_weight`.
    """
    if not _spectral(algorithm):
        params = dict(padding=padding, stride=stride, dilation=dilation,
                      groups=groups, algorithm=algorithm)
        return (convnd_backward_input(grad_out, weight, np.shape(x),
                                      **params) if input_grad else None,
                convnd_backward_weight(grad_out, x, np.shape(weight)[2:],
                                       **params) if weight_grad else None)
    x = ensure_array(x, "x", dtype=float)
    weight = ensure_array(weight, "weight", dtype=float)
    shape = ConvShape.from_tensors(x.shape, weight.shape, padding, stride,
                                   dilation, groups)
    return get_plan(shape).adjoint(grad_out, x=x if weight_grad else None,
                                   weight=weight if input_grad else None)


def convnd_backward_input(grad_out: np.ndarray, weight: np.ndarray,
                          input_shape: tuple, padding=0,
                          stride: int | tuple = 1,
                          dilation: int | tuple = 1, groups: int = 1,
                          algorithm: ConvAlgorithm | str =
                          ConvAlgorithm.POLYHANKEL) -> np.ndarray:
    """Gradient of a 1D/2D/3D convolution output w.r.t. its input.

    *grad_out* is ``(n, f, *out)``; returns ``(n, c, *spatial)`` matching
    *input_shape* (whose rank picks the op).  PolyHankel runs the
    forward plan's adjoint against the cached weight spectrum.  For every
    other algorithm the computation is itself a convolution: the
    stride-dilated, fully padded gradient correlated with the spatially
    flipped, per-group channel-transposed weights at the *forward*
    dilation.
    """
    grad_out = ensure_array(grad_out, "grad_out", dtype=float)
    weight = ensure_array(weight, "weight", dtype=float)
    shape = ConvShape.from_tensors(input_shape, weight.shape, padding,
                                   stride, dilation, groups)
    ndim = shape.ndim
    if grad_out.shape != shape.output_shape():
        raise ValueError(
            f"grad_out shape {grad_out.shape} does not match "
            f"{shape.output_shape()}"
        )
    if _spectral(algorithm):
        return get_plan(shape).adjoint(grad_out, weight=weight)[0]
    f_per, c_per = shape.group_filters, shape.group_channels
    # Stride-dilate the gradient, then full-pad by (eff_k - 1) for the
    # transposed correlation.
    g = dilate_spatial(grad_out, shape.stride_nd)
    g = pad_spatial(g, [(ek - 1, ek - 1) for ek in shape.eff_kernel])
    # Flip the kernel spatially and swap its filter/channel roles within
    # each group: backward group gi maps f_per gradient channels onto
    # c_per input channels.
    flip = (slice(None), slice(None)) + (slice(None, None, -1),) * ndim
    perm = (0, 2, 1) + tuple(range(3, 3 + ndim))
    w_t = np.ascontiguousarray(
        weight[flip].reshape(shape.groups, f_per, c_per, *shape.kernel)
        .transpose(perm)
    ).reshape(shape.c, f_per, *shape.kernel)
    dx_core = convolve(g, w_t, algorithm, dilation=shape.dilation_nd,
                       groups=shape.groups)
    # The transposed convolution only covers the input region the forward
    # stride actually visited; positions beyond the last kernel placement
    # receive zero gradient.
    padded = shape.padded_extents
    dx_padded = np.zeros((shape.n, shape.c, *padded), dtype=dx_core.dtype)
    core = (slice(None), slice(None)) + tuple(
        slice(None, min(e, p)) for e, p in zip(dx_core.shape[2:], padded))
    dx_padded[core] = dx_core[(slice(None), slice(None)) + tuple(
        slice(None, p) for p in padded)]
    crop = (slice(None), slice(None)) + tuple(
        slice(lo, lo + e) for (lo, _), e in zip(shape.pad_pairs,
                                                shape.extents))
    return dx_padded[crop]


def convnd_backward_weight(grad_out: np.ndarray, x: np.ndarray,
                           kernel_size: tuple, padding=0,
                           stride: int | tuple = 1,
                           dilation: int | tuple = 1, groups: int = 1,
                           algorithm: ConvAlgorithm | str =
                           ConvAlgorithm.POLYHANKEL) -> np.ndarray:
    """Gradient of a 1D/2D/3D convolution output w.r.t. the weights.

    *x* is the forward input ``(n, c, *spatial)`` (whose rank picks the
    op); returns ``(f, c // groups, *kernel_size)``.  PolyHankel runs the
    forward plan's adjoint, which needs no weight.  For every other
    algorithm, per group, this is a correlation of the padded input with
    the stride-dilated gradient, sampled at the forward dilation (the
    dilation becomes the *stride* of the backward convolution).
    """
    grad_out = ensure_array(grad_out, "grad_out", dtype=float)
    x = ensure_array(x, "x", dtype=float)
    kernel_size = tuple(kernel_size)
    shape = ConvShape(extents=x.shape[2:], kernel=kernel_size,
                      n=x.shape[0], c=x.shape[1], f=grad_out.shape[1],
                      padding=padding, stride=stride, dilation=dilation,
                      groups=groups)
    if _spectral(algorithm):
        return get_plan(shape).adjoint(grad_out, x=x)[1]
    f_per, c_per = shape.group_filters, shape.group_channels
    xp = pad_spatial(x, shape.pad_pairs)
    g = dilate_spatial(grad_out, shape.stride_nd)
    # The dilated gradient may be shorter than the padded input allows;
    # crop the input so the "valid" correlation yields exactly
    # kernel_size samples at stride dilation.
    need = tuple(ge + (k - 1) * d for ge, k, d in
                 zip(g.shape[2:], kernel_size, shape.dilation_nd))
    xp = xp[(slice(None), slice(None)) + tuple(slice(None, e)
                                               for e in need)]
    # Contract over batch: treat channels as batch and (f, n) as kernels,
    # one backward convolution per group.
    perm = (1, 0) + tuple(range(2, 2 + shape.ndim))
    grads = []
    for gi in range(shape.groups):
        x_t = xp[:, gi * c_per:(gi + 1) * c_per].transpose(perm)
        g_t = g[:, gi * f_per:(gi + 1) * f_per].transpose(perm)
        dw = convolve(x_t, g_t, algorithm, stride=shape.dilation_nd)
        grads.append(dw.transpose(perm))      # (f_per, c_per, *kernel)
    return np.concatenate(grads, axis=0)      # (f, c_per, *kernel)


def convnd_backward_bias(grad_out: np.ndarray) -> np.ndarray:
    """Gradient w.r.t. the per-filter bias (any spatial rank)."""
    grad_out = np.asarray(grad_out)
    return grad_out.sum(axis=(0,) + tuple(range(2, grad_out.ndim)))


# ---------------------------------------------------------------------------
# Transposed convolution gradients
# ---------------------------------------------------------------------------

def conv_transpose2d_backward_input(grad_out: np.ndarray,
                                    weight: np.ndarray, padding=0,
                                    stride: int | tuple = 1,
                                    dilation: int | tuple = 1,
                                    groups: int = 1,
                                    algorithm: ConvAlgorithm | str =
                                    ConvAlgorithm.POLYHANKEL) -> np.ndarray:
    """Input gradient of a transposed convolution.

    ``conv_transpose2d`` is the adjoint ``M^T`` of the forward conv with
    the same parameters, so its input gradient is that forward conv
    applied to *grad_out* — no new machinery, just :func:`convolve` with
    the tconv weight read in its natural ``(F=c_in, C=c_out/g)`` layout.
    """
    grad_out = ensure_array(grad_out, "grad_out", ndim=4, dtype=float)
    weight = ensure_array(weight, "weight", ndim=4, dtype=float)
    return convolve(grad_out, weight, algorithm=algorithm,
                    padding=padding, stride=stride, dilation=dilation,
                    groups=groups)


def conv_transpose2d_backward_weight(grad_out: np.ndarray, x: np.ndarray,
                                     kernel_size: tuple[int, int],
                                     padding=0, stride: int | tuple = 1,
                                     dilation: int | tuple = 1,
                                     groups: int = 1,
                                     algorithm: ConvAlgorithm | str =
                                     ConvAlgorithm.POLYHANKEL
                                     ) -> np.ndarray:
    """Weight gradient of a transposed convolution.

    In the adjoint's forward-conv view *grad_out* plays the conv input
    and the tconv input *x* plays the conv output's gradient, so this is
    :func:`convnd_backward_weight` with the two roles swapped; the result
    lands directly in the tconv ``(c_in, c_out/g, kh, kw)`` layout.
    """
    return convnd_backward_weight(x, grad_out, kernel_size,
                                  padding=padding, stride=stride,
                                  dilation=dilation, groups=groups,
                                  algorithm=algorithm)
