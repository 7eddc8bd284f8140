"""Implicit GEMM convolution (cuDNN IMPLICIT_GEMM / IMPLICIT_PRECOMP_GEMM).

Performs the same arithmetic as im2col + GEMM without materializing the
unrolled matrix: the patch gather is fused into the accumulation loop.  The
"precomp" variant precomputes (and caches) the gather offset tables once per
shape, matching cuDNN's IMPLICIT_PRECOMP_GEMM which trades a small index
workspace for not recomputing addressing on the fly.
"""

from __future__ import annotations

import numpy as np

from repro.hankel.im2col_view import pad2d
from repro.utils.shapes import ConvShape
from repro.utils.validation import ensure_array

_OFFSET_CACHE: dict[tuple, tuple[np.ndarray, np.ndarray]] = {}


def _gather_offsets(shape: ConvShape) -> tuple[np.ndarray, np.ndarray]:
    """Row/col index tables mapping output positions x kernel taps to the
    padded input.  Stride moves the window origin; dilation spaces taps."""
    sh, sw = shape.stride_nd
    dh, dw = shape.dilation_nd
    rows = (sh * np.arange(shape.oh)[:, None, None, None]
            + dh * np.arange(shape.kh)[None, None, :, None])
    cols = (sw * np.arange(shape.ow)[None, :, None, None]
            + dw * np.arange(shape.kw)[None, None, None, :])
    rows, cols = np.broadcast_arrays(rows, cols)
    return np.ascontiguousarray(rows), np.ascontiguousarray(cols)


def precomputed_offsets(shape: ConvShape) -> tuple[np.ndarray, np.ndarray]:
    """Cached offset tables for *shape* (the PRECOMP workspace)."""
    key = (shape.oh, shape.ow, shape.kh, shape.kw, shape.stride_nd,
           shape.dilation_nd)
    if key not in _OFFSET_CACHE:
        _OFFSET_CACHE[key] = _gather_offsets(shape)
    return _OFFSET_CACHE[key]


def clear_offset_cache() -> None:
    """Drop cached offset tables (tests / memory control)."""
    _OFFSET_CACHE.clear()


def conv2d_implicit_gemm(x: np.ndarray, weight: np.ndarray, padding=0,
                         stride: int | tuple = 1, dilation: int | tuple = 1,
                         groups: int = 1,
                         precomputed: bool = False) -> np.ndarray:
    """NCHW convolution with the patch gather fused into the contraction.

    With ``precomputed=False`` the kernel-tap loop recomputes slice
    addressing each step (IMPLICIT_GEMM); with ``precomputed=True`` a cached
    index table drives one gather + one einsum (IMPLICIT_PRECOMP_GEMM).
    """
    x = ensure_array(x, "x", dtype=float, ndim=4)
    weight = ensure_array(weight, "weight", dtype=float)
    shape = ConvShape.from_tensors(x.shape, weight.shape, padding, stride,
                                   dilation, groups)
    xp = pad2d(x, shape.padding)
    sh, sw = shape.stride_nd
    dh, dw = shape.dilation_nd
    g, c_per, f_per = shape.groups, shape.group_channels, shape.group_filters
    xg = xp.reshape(shape.n, g, c_per, *xp.shape[-2:])
    wg = weight.reshape(g, f_per, c_per, shape.kh, shape.kw)

    if precomputed:
        rows, cols = precomputed_offsets(shape)
        # One big gather (n, g, c, oh, ow, kh, kw), then one contraction.
        patches = xg[:, :, :, rows, cols]
        out = np.einsum("ngcijuv,gfcuv->ngfij", patches, wg)
        return out.reshape(shape.output_shape())

    out = np.zeros((shape.n, g, f_per, shape.oh, shape.ow), dtype=float)
    for u in range(shape.kh):
        for v in range(shape.kw):
            window = xg[:, :, :, u * dh: u * dh + sh * shape.oh: sh,
                        v * dw: v * dw + sw * shape.ow: sw]
            out += np.einsum("ngchw,gfc->ngfhw", window, wg[:, :, :, u, v])
    return out.reshape(shape.output_shape())


def conv2d_implicit_precomp_gemm(x: np.ndarray, weight: np.ndarray,
                                 padding=0, stride: int | tuple = 1,
                                 dilation: int | tuple = 1,
                                 groups: int = 1) -> np.ndarray:
    """Convenience wrapper for the PRECOMP variant."""
    return conv2d_implicit_gemm(x, weight, padding, stride, dilation,
                                groups, precomputed=True)
