"""im2col, both as a materialized matrix and as a structured Hankel view.

``unroll_patches`` is the production routine the GEMM baseline uses, at
every spatial rank; ``im2col_patches`` is its rank-2 spelling.
``im2col_hankel_view`` returns the same matrix as a
:class:`~repro.hankel.matrix.DoublyBlockedHankel` without materializing it —
the structure the paper's polynomial construction is derived from
(Sec. 2.1, Fig. 1).
"""

from __future__ import annotations

import numpy as np

from repro.hankel.matrix import DoublyBlockedHankel
from repro.utils.shapes import ConvShape, conv_output_size
from repro.utils.validation import ensure_array, require


def pad_spatial(x: np.ndarray, pad_pairs) -> np.ndarray:
    """Zero-pad the trailing ``len(pad_pairs)`` (spatial) axes, each by its
    ``(lo, hi)`` pair."""
    if not any(lo or hi for lo, hi in pad_pairs):
        return x
    # Allocate-and-assign is several times faster than np.pad on the hot
    # per-call path (np.pad builds its pad spec in Python per axis).
    spatial = x.shape[x.ndim - len(pad_pairs):]
    out = np.zeros(x.shape[:x.ndim - len(pad_pairs)]
                   + tuple(e + lo + hi
                           for e, (lo, hi) in zip(spatial, pad_pairs)),
                   dtype=x.dtype)
    out[(Ellipsis,) + tuple(slice(lo, lo + e)
                            for e, (lo, _) in zip(spatial, pad_pairs))] = x
    return out


def pad2d(x: np.ndarray, padding) -> np.ndarray:
    """Zero-pad the trailing two (spatial) axes.

    *padding* is an int (symmetric) or a ``(pt, pb, pl, pr)`` 4-tuple for
    asymmetric pads.
    """
    if isinstance(padding, int):
        pt = pb = pl = pr = padding
    else:
        pt, pb, pl, pr = padding
    return pad_spatial(x, ((pt, pb), (pl, pr)))


def unroll_patches(x: np.ndarray, shape: ConvShape) -> np.ndarray:
    """Unroll the sliding patches of an ``(n, c, *spatial)`` tensor.

    Returns an array of shape ``(n, prod(out_extents), c * prod(kernel))``:
    one row per kernel position, matching the row layout of Eq. 1 / the
    column layout of Fig. 1 in the paper (we keep patches as rows so the
    GEMM is a plain ``patches @ weights.T``).  Columns are channel-major.
    Dilation subsamples the taps inside each (effective-extent) window;
    stride subsamples the window positions.
    """
    d = shape.ndim
    xp = pad_spatial(x, shape.pad_pairs)
    windows = np.lib.stride_tricks.sliding_window_view(
        xp, shape.eff_kernel, axis=tuple(range(2, 2 + d))
    )  # (n, c, *valid, *eff_kernel)
    windows = windows[(slice(None), slice(None))
                      + tuple(slice(None, None, s) for s in shape.stride_nd)
                      + tuple(slice(None, None, r) for r in shape.dilation_nd)]
    # (n, *out, c, *kernel) -> (n, prod(out), c * prod(kernel))
    patches = windows.transpose(0, *range(2, 2 + d), 1,
                                *range(2 + d, 2 + 2 * d))
    return patches.reshape(shape.n, shape.output_elems,
                           shape.c * shape.kernel_elems)


def im2col_patches(x: np.ndarray, kh: int, kw: int, padding=0,
                   stride: int | tuple = 1,
                   dilation: int | tuple = 1) -> np.ndarray:
    """:func:`unroll_patches` of an NCHW tensor: ``(n, oh * ow, c * kh *
    kw)``."""
    x = ensure_array(x, "x", ndim=4)
    n, c, ih, iw = x.shape
    return unroll_patches(x, ConvShape((ih, iw), (kh, kw), n=n, c=c,
                                       padding=padding, stride=stride,
                                       dilation=dilation))


def im2col_hankel_view(image: np.ndarray, kh: int, kw: int,
                       padding: int = 0) -> DoublyBlockedHankel:
    """The im2col matrix of one 2D image as a structured Hankel object.

    Only stride 1 has the doubly-Hankel structure.  The returned object's
    ``to_dense()`` equals ``im2col_patches`` of the same image (single
    channel), and its ``matvec`` with the flattened kernel computes the
    convolution — without ever expanding the input.
    """
    image = ensure_array(image, "image", ndim=2)
    ih, iw = image.shape
    oh = conv_output_size(ih, kh, padding, 1)
    ow = conv_output_size(iw, kw, padding, 1)
    require(oh + kh - 1 == ih + 2 * padding and ow + kw - 1 == iw + 2 * padding,
            "internal shape arithmetic failed")
    base = pad2d(image[None, None], padding)[0, 0]
    return DoublyBlockedHankel(base, block_rows=oh, block_cols=kh,
                               inner_rows=ow, inner_cols=kw)
