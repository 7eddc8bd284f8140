"""Traditional 2D-FFT convolution (cuDNN's FFT algorithm).

Pads input and kernel to a common ``(ih + kh - 1, iw + kw - 1)`` extent,
transforms both with row-and-column 1D FFT passes, multiplies pointwise and
inverse-transforms — the "multiple passes over the data, operation
redundancy" corner of the paper's design space (Table 2, row 2).

The 2D transforms are composed from the library's 1D backend so that the
whole comparison runs on one FFT substrate.
"""

from __future__ import annotations

import numpy as np

from repro import fft as _fft
from repro.core.planning import FftPolicy, plan_fft_size
from repro.hankel.im2col_view import pad2d
from repro.utils.shapes import ConvShape
from repro.utils.validation import ensure_array


def rfft2(x: np.ndarray, shape: tuple[int, int],
          backend: str | None = None) -> np.ndarray:
    """Real 2D FFT over the trailing two axes: rows pass then columns pass."""
    fft = _fft.get_backend(backend)
    rows = fft.rfft(x, shape[1])                     # 1D FFT per row
    cols = fft.fft(np.swapaxes(rows, -1, -2), shape[0])
    return np.swapaxes(cols, -1, -2)


def irfft2(x: np.ndarray, shape: tuple[int, int],
           backend: str | None = None) -> np.ndarray:
    """Inverse of :func:`rfft2`; returns a real array of *shape*."""
    fft = _fft.get_backend(backend)
    cols = fft.ifft(np.swapaxes(x, -1, -2), shape[0])
    rows = fft.irfft(np.swapaxes(cols, -1, -2), shape[1])
    return rows


def conv2d_fft(x: np.ndarray, weight: np.ndarray, padding: int = 0,
               stride: int = 1, fft_policy: FftPolicy = "smooth7",
               backend: str | None = None) -> np.ndarray:
    """NCHW convolution in the 2D Fourier domain.

    Deep-learning convolution is cross-correlation, so the kernel is
    spatially flipped before the Fourier product.
    """
    x = ensure_array(x, "x", dtype=float, ndim=4)
    weight = ensure_array(weight, "weight", dtype=float)
    shape = ConvShape.from_tensors(x.shape, weight.shape, padding, stride)

    xp = pad2d(x, padding)
    ph, pw = shape.padded_extents
    fh = plan_fft_size(ph + shape.kh - 1, fft_policy)
    fw = plan_fft_size(pw + shape.kw - 1, fft_policy)

    flipped = weight[:, :, ::-1, ::-1]
    x_hat = rfft2(xp, (fh, fw), backend)             # (n, c, fh, bins)
    w_hat = rfft2(flipped, (fh, fw), backend)        # (f, c, fh, bins)
    out_hat = np.einsum("ncyx,fcyx->nfyx", x_hat, w_hat)
    full = irfft2(out_hat, (fh, fw), backend)        # linear conv, "full"

    # The valid cross-correlation starts at (kh - 1, kw - 1).
    top, left = shape.kh - 1, shape.kw - 1
    s = shape.stride
    return full[:, :,
                top: top + s * shape.oh: s,
                left: left + s * shape.ow: s]
