"""Tiled 2D-FFT convolution (cuDNN's FFT_TILING algorithm).

Splits the output plane into square tiles and convolves each tile with a
small 2D FFT over the corresponding (overlapping) input patch — 2D
overlap-save.  Compared with the monolithic FFT this caps the transform size
(cuDNN uses 32x32 tiles) at the cost of transforming the halo regions
repeatedly.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.fft2d import irfft2, rfft2
from repro.core.planning import FftPolicy, plan_fft_size
from repro.hankel.im2col_view import pad2d
from repro.utils.shapes import ConvShape
from repro.utils.validation import ensure_array

DEFAULT_TILE = 32


def conv2d_fft_tiling(x: np.ndarray, weight: np.ndarray, padding: int = 0,
                      stride: int = 1, tile: int = DEFAULT_TILE,
                      fft_policy: FftPolicy = "pow2",
                      backend: str | None = None) -> np.ndarray:
    """NCHW convolution via per-tile FFTs (2D overlap-save)."""
    x = ensure_array(x, "x", dtype=float, ndim=4)
    weight = ensure_array(weight, "weight", dtype=float)
    if tile < 1:
        raise ValueError("tile must be positive")
    shape = ConvShape.from_tensors(x.shape, weight.shape, padding, stride)

    xp = pad2d(x, padding)
    # Tiles are defined on the *pre-stride* valid-output grid; striding is a
    # final subsample, as in the monolithic FFT path.
    ph, pw = shape.padded_extents
    full_oh = ph - shape.kh + 1
    full_ow = pw - shape.kw + 1

    patch_h = tile + shape.kh - 1
    patch_w = tile + shape.kw - 1
    fh = plan_fft_size(patch_h, fft_policy)
    fw = plan_fft_size(patch_w, fft_policy)

    flipped = weight[:, :, ::-1, ::-1]
    w_hat = rfft2(flipped, (fh, fw), backend)        # (f, c, fh, bins)

    out_full = np.zeros((shape.n, shape.f, full_oh, full_ow), dtype=float)
    for ti in range(0, full_oh, tile):
        th = min(tile, full_oh - ti)
        for tj in range(0, full_ow, tile):
            tw = min(tile, full_ow - tj)
            patch = xp[:, :, ti: ti + th + shape.kh - 1,
                       tj: tj + tw + shape.kw - 1]
            x_hat = rfft2(patch, (fh, fw), backend)
            out_hat = np.einsum("ncyx,fcyx->nfyx", x_hat, w_hat)
            conv = irfft2(out_hat, (fh, fw), backend)
            out_full[:, :, ti: ti + th, tj: tj + tw] = conv[
                :, :, shape.kh - 1: shape.kh - 1 + th,
                shape.kw - 1: shape.kw - 1 + tw,
            ]
    s = shape.stride
    return out_full[:, :, : s * shape.oh: s, : s * shape.ow: s]
