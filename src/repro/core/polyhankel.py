"""Single-channel PolyHankel convolution (Sec. 2.2-2.3).

This is the clearest statement of the paper's contribution: one real FFT of
the flattened (never expanded) input, one real FFT of the sparse kernel
polynomial, one elementwise product, one inverse FFT, and a strided gather
of the output coefficients.
"""

from __future__ import annotations

import numpy as np

from repro import fft as _fft
from repro.core.construction import (
    input_polynomial,
    kernel_polynomial,
    output_gather_indices,
    polynomial_lengths,
)
from repro.core.planning import FftPolicy, plan_fft_size
from repro.observe import span
from repro.utils.shapes import ConvShape
from repro.utils.validation import ensure_array


def conv2d_single(image: np.ndarray, kernel: np.ndarray, padding: int = 0,
                  stride: int = 1, fft_policy: FftPolicy = "pow2",
                  backend: str | None = None) -> np.ndarray:
    """2D convolution of one image with one kernel via PolyHankel.

    This is the didactic single-channel entry point; the batched,
    multi-channel production path lives in
    :func:`repro.core.multichannel.conv2d_polyhankel`.

    >>> import numpy as np
    >>> img = np.arange(9.0).reshape(3, 3)
    >>> ker = np.ones((2, 2))
    >>> conv2d_single(img, ker)
    array([[ 8., 12.],
           [20., 24.]])
    """
    image = ensure_array(image, "image", ndim=2, dtype=float)
    kernel = ensure_array(kernel, "kernel", ndim=2, dtype=float)
    shape = ConvShape((image.shape[0], image.shape[1]),
                      (kernel.shape[0], kernel.shape[1]), padding=padding,
                      stride=stride)

    a_coeffs = input_polynomial(image, padding)        # len Ih*Iw (padded)
    u_coeffs = kernel_polynomial(kernel, shape.padded_extents[1])
    _, _, transform_len = polynomial_lengths(shape)
    nfft = plan_fft_size(transform_len, fft_policy)

    with _fft.use_backend(_fft.get_backend(backend)):
        with span("stage.input_fft", n=nfft, rows=1,
                  bytes=a_coeffs.nbytes):
            a_hat = _fft.rfft(a_coeffs, nfft)
        with span("weight.transform", n=nfft, bytes=u_coeffs.nbytes):
            u_hat = _fft.rfft(u_coeffs, nfft)
        with span("stage.pointwise", bytes=a_hat.nbytes + u_hat.nbytes):
            out_hat = a_hat * u_hat
        with span("stage.inverse_fft", n=nfft, rows=1,
                  bytes=out_hat.nbytes):
            product = _fft.irfft(out_hat, nfft)
    with span("stage.gather", bytes=product.nbytes):
        return product[output_gather_indices(shape)]
