"""Overlap-save evaluation of long polynomial products (Sec. 3.2).

The paper batches many images through the 1D FFT pipeline with the
overlap-save technique, inserting zero padding between batch elements so
that block boundaries do not mix images.  This module provides

- :func:`overlap_save_convolve` — textbook overlap-save linear convolution
  of a (batched) signal with a short kernel, FFT-blocked; and
- :func:`conv2d_polyhankel_os` — a PolyHankel execution strategy that
  concatenates a batch of flattened images, separated by ``M`` guard zeros,
  and streams the whole thing through overlap-save blocks.

Both are cross-validated against the direct implementations; the ablation
benchmark quantifies when block streaming beats one monolithic FFT.
"""

from __future__ import annotations

import numpy as np

from repro import fft as _fft
from repro.core.construction import (
    channel_kernel_stack,
    output_gather_indices,
)
from repro.core.planning import FftPolicy, plan_fft_size
from repro.hankel.im2col_view import pad2d
from repro.utils.shapes import ConvShape
from repro.utils.validation import ensure_array, require


def overlap_save_convolve(signal: np.ndarray, kernel: np.ndarray,
                          block_len: int | None = None,
                          backend: str | None = None) -> np.ndarray:
    """Linear convolution along the last axis via overlap-save.

    *signal* may have arbitrary leading batch axes; *kernel* is 1D of length
    ``K``.  Each FFT block of size ``nfft`` produces ``nfft - K + 1`` valid
    outputs; blocks overlap by ``K - 1`` samples.  Returns the full linear
    convolution of length ``L + K - 1``.
    """
    signal = ensure_array(signal, "signal", dtype=float)
    kernel = ensure_array(kernel, "kernel", ndim=1, dtype=float)
    length = signal.shape[-1]
    k = len(kernel)
    require(length >= 1 and k >= 1, "signal and kernel must be non-empty")
    out_len = length + k - 1

    if block_len is None:
        # A classic near-optimal choice: blocks ~8x the kernel length.
        block_len = max(8 * k, 64)
    nfft = plan_fft_size(block_len + k - 1, "pow2")
    step = nfft - (k - 1)
    require(step >= 1, "block length too small for kernel")

    fft = _fft.get_backend(backend)
    kernel_hat = fft.rfft(kernel, nfft)

    # Prepend K-1 zeros (overlap-save discards the first K-1 of each block)
    # and pad the tail so the last block is full.
    n_blocks = -(-out_len // step)
    padded_len = (k - 1) + n_blocks * step + (nfft - step)
    buf = np.zeros(signal.shape[:-1] + (padded_len,), dtype=float)
    buf[..., k - 1: k - 1 + length] = signal

    # All blocks at once: a strided view (..., n_blocks, nfft) turns the
    # per-block Python loop into one batched rfft/irfft round trip.
    blocks = np.lib.stride_tricks.sliding_window_view(
        buf, nfft, axis=-1)[..., ::step, :][..., :n_blocks, :]
    conv = fft.irfft(fft.rfft(blocks, nfft) * kernel_hat, nfft)
    out = conv[..., k - 1:].reshape(signal.shape[:-1] + (n_blocks * step,))
    return out[..., :out_len]


def conv2d_polyhankel_os(x: np.ndarray, weight: np.ndarray,
                         padding: int = 0, stride: int = 1,
                         block_len: int | None = None,
                         fft_policy: FftPolicy = "pow2",
                         backend: str | None = None) -> np.ndarray:
    """PolyHankel convolution executed with overlap-save batching.

    The batch's flattened images are concatenated with ``M`` guard zeros
    between consecutive images (Sec. 3.2: "additional zero-padding at the
    start and end of each batch is essential to meet the overlap-save
    criteria"), convolved against each filter's combined kernel polynomial
    in streamed blocks, and the outputs gathered per image with the batch
    stride offset folded in.
    """
    x = ensure_array(x, "x", dtype=float, ndim=4)
    weight = ensure_array(weight, "weight", dtype=float)
    shape = ConvShape.from_tensors(x.shape, weight.shape, padding, stride)

    xp = pad2d(x, padding)                                  # (n, c, ph, pw)
    n, c = shape.n, shape.c
    image_len = shape.poly_input_len
    kernel_len = shape.poly_kernel_len
    guard = kernel_len - 1
    slot = image_len + guard

    # One long signal per channel: images back to back with guard zeros.
    # Vectorized fill: stage per-image slots, then fold the slot axis away.
    staged = np.zeros((n, c, slot), dtype=float)
    staged[..., :image_len] = xp.reshape(n, c, image_len)
    long_signal = np.ascontiguousarray(
        staged.transpose(1, 0, 2)).reshape(c, n * slot)

    kernels = channel_kernel_stack(weight, shape.padded_extents[1])
    gather = output_gather_indices(shape)                    # (oh, ow)
    # Batched gather: index (i, *, gather) for every image at once.
    batch_gather = (np.arange(n)[:, None] * slot
                    + gather.reshape(-1)[None, :])           # (n, oh*ow)

    out = np.zeros(shape.output_shape(), dtype=float)
    for f in range(shape.f):
        acc = np.zeros(n * slot + kernel_len - 1, dtype=float)
        for ch in range(c):
            acc += overlap_save_convolve(long_signal[ch], kernels[f, ch],
                                         block_len, backend)
        out[:, f] = acc[batch_gather].reshape((n,) + gather.shape)
    return out
