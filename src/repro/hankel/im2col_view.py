"""im2col, both as a materialized matrix and as a structured Hankel view.

``im2col_patches`` is the production routine the GEMM baselines use.
``im2col_hankel_view`` returns the same matrix as a
:class:`~repro.hankel.matrix.DoublyBlockedHankel` without materializing it —
the structure the paper's polynomial construction is derived from
(Sec. 2.1, Fig. 1).
"""

from __future__ import annotations

import numpy as np

from repro.hankel.matrix import DoublyBlockedHankel
from repro.utils.shapes import conv_output_size
from repro.utils.validation import ensure_array, require


def pad2d(x: np.ndarray, padding) -> np.ndarray:
    """Zero-pad the trailing two (spatial) axes.

    *padding* is an int (symmetric) or a ``(pt, pb, pl, pr)`` 4-tuple for
    asymmetric pads.
    """
    if isinstance(padding, int):
        pt = pb = pl = pr = padding
    else:
        pt, pb, pl, pr = padding
    if not (pt or pb or pl or pr):
        return x
    # Allocate-and-assign is several times faster than np.pad on the hot
    # per-call path (np.pad builds its pad spec in Python per axis).
    h, w = x.shape[-2], x.shape[-1]
    out = np.zeros(x.shape[:-2] + (h + pt + pb, w + pl + pr), dtype=x.dtype)
    out[..., pt:pt + h, pl:pl + w] = x
    return out


def im2col_patches(x: np.ndarray, kh: int, kw: int, padding=0,
                   stride: int | tuple = 1,
                   dilation: int | tuple = 1) -> np.ndarray:
    """Unroll sliding patches of an NCHW tensor.

    Returns an array of shape ``(n, oh * ow, c * kh * kw)``: one row per
    kernel position, matching the row layout of Eq. 1 / the column layout of
    Fig. 1 in the paper (we keep patches as rows so the GEMM is a plain
    ``patches @ weights.T``).  Dilation subsamples the taps inside each
    (effective-extent) window; stride subsamples the window positions.
    """
    from repro.utils.shapes import normalize_padding_nd, normalize_tuple

    x = ensure_array(x, "x", ndim=4)
    n, c, ih, iw = x.shape
    sh, sw = normalize_tuple(stride, 2, "stride")
    dh, dw = normalize_tuple(dilation, 2, "dilation")
    (pt, pb), (pl, pr) = normalize_padding_nd(padding, (ih, iw), (kh, kw),
                                              (sh, sw), (dh, dw))
    oh = conv_output_size(ih, kh, (pt, pb), sh, dh)
    ow = conv_output_size(iw, kw, (pl, pr), sw, dw)
    eff_kh = dh * (kh - 1) + 1
    eff_kw = dw * (kw - 1) + 1
    xp = pad2d(x, (pt, pb, pl, pr))
    windows = np.lib.stride_tricks.sliding_window_view(
        xp, (eff_kh, eff_kw), axis=(2, 3)
    )  # (n, c, ph-eff_kh+1, pw-eff_kw+1, eff_kh, eff_kw)
    windows = windows[:, :, ::sh, ::sw, ::dh, ::dw]
    # (n, oh, ow, c, kh, kw) -> (n, oh*ow, c*kh*kw)
    patches = windows.transpose(0, 2, 3, 1, 4, 5)
    return patches.reshape(n, oh * ow, c * kh * kw)


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
