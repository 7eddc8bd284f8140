"""Zhang & Li's fine-grain FFT convolution (PACT 2020).

The prior work the paper builds on: it observes the doubly blocked Hankel
structure of the im2col matrix and evaluates the block-level products with
*row-wise* 1D FFTs.  Each output row ``oh`` is the sum over ``kh`` of the 1D
correlation between input row ``oh + kh`` and kernel row ``kh``:

    out[oh, :] = sum_kh corr1d(input[oh + kh, :], kernel[kh, :])[valid]

Input rows are transformed once (``Ih`` FFTs of size ~2*Iw, padded to the
next power of two, as the paper notes: "requires data padding for each block
to the next power-of-two size"), kernel rows once, products accumulated per
output row, and one inverse FFT per output row recovers the spatial result.
Complexity matches the "Fine-grain FFT" rows of Tables 2-3.
"""

from __future__ import annotations

import numpy as np

from repro import fft as _fft
from repro.core.planning import plan_fft_size
from repro.hankel.im2col_view import pad2d
from repro.utils.shapes import ConvShape
from repro.utils.validation import ensure_array


def conv2d_finegrain_fft(x: np.ndarray, weight: np.ndarray, padding: int = 0,
                         stride: int = 1,
                         backend: str | None = None) -> np.ndarray:
    """NCHW convolution via per-row block FFTs."""
    x = ensure_array(x, "x", dtype=float, ndim=4)
    weight = ensure_array(weight, "weight", dtype=float)
    shape = ConvShape.from_tensors(x.shape, weight.shape, padding, stride)
    fft = _fft.get_backend(backend)

    xp = pad2d(x, padding)                               # (n, c, ph, pw)
    # Each row's linear correlation needs pw + kw - 1 samples; the method
    # pads row blocks to the next power of two (~2 * Iw).
    nfft = plan_fft_size(shape.padded_extents[1] + shape.kw - 1, "pow2")

    x_hat = fft.rfft(xp, nfft)                           # (n, c, ph, bins)
    w_hat = fft.rfft(weight[:, :, :, ::-1], nfft)        # (f, c, kh, bins)

    s = shape.stride
    out = np.zeros(shape.output_shape(), dtype=float)
    for oh in range(shape.oh):
        # Accumulate the kh x c row products for this output row in the
        # frequency domain, then one inverse FFT.
        rows = x_hat[:, :, s * oh: s * oh + shape.kh, :]  # (n, c, kh, bins)
        acc = np.einsum("nckb,fckb->nfb", rows, w_hat)
        conv = fft.irfft(acc, nfft)                      # (n, f, nfft)
        start = shape.kw - 1
        out[:, :, oh, :] = conv[:, :, start: start + s * shape.ow: s]
    return out
