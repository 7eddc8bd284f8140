"""Op-specific shape algebra for conv1d and conv_transpose2d.

:func:`repro.baselines.registry.convolve` is the one dispatch for every
op; what is particular to an op lives here:

- ``conv1d`` runs an algorithm's rank-generic engine where it has one
  (PolyHankel's plan, naive, GEMM); every other registered 2D algorithm
  serves it as a ``1 x L`` image (the degree map degenerates to
  ``t^j``), and :func:`lift_1d_shape` is that lift.
- ``conv_transpose2d`` is the adjoint the backward pass already
  computes: its output extent is :func:`conv_transpose2d_output_shape`,
  and for any 2D algorithm it executes as the zero-stuffed stride-1
  convolution :func:`transpose_internal_shape` describes.  The ``naive``
  entry is instead a direct output-scatter
  (:func:`conv_transpose2d_naive`) — an independent oracle that shares
  no code with the adjoint route.
"""

from __future__ import annotations

import itertools

import numpy as np

from repro.utils.shapes import (
    ConvShape,
    normalize_padding_nd,
    normalize_tuple,
)
from repro.utils.validation import ensure_array, require


def lift_1d_shape(shape: ConvShape) -> ConvShape:
    """The 2D problem a rank-1 *shape* lowers onto (singleton height)."""
    require(shape.ndim == 1, "lift_1d_shape needs a rank-1 problem")
    (lo, hi), = shape.pad_pairs
    return shape.with_(extents=(1, *shape.extents),
                       kernel=(1, *shape.kernel), padding=(0, 0, lo, hi),
                       stride=(1, *shape.stride_nd),
                       dilation=(1, *shape.dilation_nd))


def conv_transpose2d_output_shape(x_shape, w_shape, padding=0, stride=1,
                                  dilation=1, groups: int = 1,
                                  output_padding=0) -> tuple:
    """Output shape ``(n, c_out, oh, ow)`` of a transposed convolution.

    Per axis: ``o = (i - 1) * s - (p_lo + p_hi) + d * (k - 1) + 1 + op``
    with ``0 <= op < s`` (the output padding resolves the ambiguity of
    which forward input extents map to the same conv output extent).
    """
    x_shape, w_shape = tuple(x_shape), tuple(w_shape)
    require(len(x_shape) == 4,
            "conv_transpose2d input must be (n, c, h, w)")
    require(len(w_shape) == 4,
            "conv_transpose2d weight must be (c_in, c_out/groups, kh, kw)")
    n, c_in = x_shape[:2]
    if x_shape[1] != w_shape[0]:
        raise ValueError(
            f"channel mismatch: input C={x_shape[1]}, transposed weight "
            f"expects C_in={w_shape[0]}"
        )
    require(c_in % groups == 0,
            f"input channels ({c_in}) must be divisible by groups "
            f"({groups})")
    c_out = w_shape[1] * groups
    # "same" makes no sense for a transposed conv; the forward-conv fit
    # check makes no sense either, so canonicalize parameters directly.
    require(padding != "same",
            'conv_transpose2d does not accept padding="same"')
    stride_nd = normalize_tuple(stride, 2, "stride")
    dilation_nd = normalize_tuple(dilation, 2, "dilation")
    pad_pairs = normalize_padding_nd(padding, x_shape[2:], w_shape[2:],
                                     stride, dilation)
    require(all(p >= 0 for pair in pad_pairs for p in pair),
            f"padding must be non-negative, got {padding!r}")
    require(all(s >= 1 for s in stride_nd),
            f"stride must be >= 1 in every axis, got {stride!r}")
    require(all(d >= 1 for d in dilation_nd),
            f"dilation must be >= 1 in every axis, got {dilation!r}")
    out_pad = normalize_tuple(output_padding, 2, "output_padding")
    extents = []
    for i, s, d, k, (lo, hi), op in zip(x_shape[2:], stride_nd,
                                        dilation_nd, w_shape[2:],
                                        pad_pairs, out_pad):
        require(0 <= op < s,
                f"output_padding must satisfy 0 <= output_padding < "
                f"stride, got {op} with stride {s}")
        o = (i - 1) * s - (lo + hi) + d * (k - 1) + 1 + op
        require(o >= 1,
                f"transposed output extent {o} is empty (input {i}, "
                f"stride {s}, padding {(lo, hi)}, kernel {k}, "
                f"dilation {d}); reduce padding")
        extents.append(o)
    return (n, c_out, *extents)


def transpose_internal_shape(x_shape, w_shape, padding=0, stride=1,
                             dilation=1, groups: int = 1,
                             output_padding=0) -> ConvShape:
    """The rank-2 conv problem a transposed conv actually executes.

    The adjoint route zero-stuffs the input by *stride*, applies a full
    ``eff_k - 1`` pad, and convolves at stride 1 with the forward
    dilation — this is that problem's :class:`ConvShape`, the thing
    ``supports`` predicates and the perfmodel must consult (the nominal
    tconv parameters describe a different, never-executed geometry).
    """
    n, c_in = tuple(x_shape)[:2]
    out_shape = conv_transpose2d_output_shape(
        x_shape, w_shape, padding, stride, dilation, groups, output_padding)
    stride_nd = normalize_tuple(stride, 2, "stride")
    dilation_nd = normalize_tuple(dilation, 2, "dilation")
    kh, kw = tuple(w_shape)[2:]
    dilated = tuple((i - 1) * s + 1
                    for i, s in zip(tuple(x_shape)[2:], stride_nd))
    eff_kh = dilation_nd[0] * (kh - 1) + 1
    eff_kw = dilation_nd[1] * (kw - 1) + 1
    return ConvShape(dilated, (kh, kw), n=n, c=c_in, f=out_shape[1],
                     padding=(eff_kh - 1, eff_kh - 1, eff_kw - 1,
                              eff_kw - 1),
                     stride=1, dilation=dilation_nd, groups=groups)


def conv_transpose2d_naive(x: np.ndarray, weight: np.ndarray, padding=0,
                           stride=1, dilation=1, groups: int = 1,
                           output_padding=0) -> np.ndarray:
    """Direct scatter reference for transposed convolution.

    Each input pixel deposits a scaled (dilated) kernel into the output;
    cropping by *padding* happens on a pre-padded canvas.  Shares no
    machinery with the adjoint route, so it can referee it.
    """
    x = ensure_array(x, "x", dtype=float)
    weight = ensure_array(weight, "weight", dtype=float)
    out_shape = conv_transpose2d_output_shape(
        x.shape, weight.shape, padding, stride, dilation, groups,
        output_padding)
    n, c_in, ih, iw = x.shape
    _, f_per, kh, kw = weight.shape
    sh, sw = normalize_tuple(stride, 2, "stride")
    dh, dw = normalize_tuple(dilation, 2, "dilation")
    (pt, _), (pl, _) = normalize_padding_nd(padding, (ih, iw), (kh, kw),
                                            stride, dilation)
    c_per = c_in // groups
    canvas = np.zeros((n, out_shape[1],
                       out_shape[2] + pt + (kh - 1) * dh,
                       out_shape[3] + pl + (kw - 1) * dw))
    for ci, i, j in itertools.product(range(c_in), range(ih), range(iw)):
        g = ci // c_per
        filters = slice(g * f_per, (g + 1) * f_per)
        patch = x[:, ci, i, j][:, None, None, None] * weight[ci][None]
        canvas[:, filters,
               i * sh:i * sh + (kh - 1) * dh + 1:dh,
               j * sw:j * sw + (kw - 1) * dw + 1:dw] += patch
    return canvas[:, :, pt:pt + out_shape[2], pl:pl + out_shape[3]]
