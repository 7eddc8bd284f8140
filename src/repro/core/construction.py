"""Constructing the convolution polynomials (Sec. 2.2 and 3.2).

Three layouts are produced here:

- **single-channel** coefficient vectors: ``A(t)`` is the row-major flatten
  of the (padded) input; ``U(t)`` places ``u[i, j]`` at degree
  ``M - (iw * i + j)`` with ``M = (kh-1) * iw + kw - 1``.
- **per-channel stacks** for the "FFT each channel and sum in the frequency
  domain" strategy (the paper's chosen option in Sec. 3.2).
- the **merged/interleaved** layout for the alternative "merge all channels
  into one polynomial" strategy: channel ``c`` of the input occupies degrees
  ``f * C + c`` and channel ``c`` of the kernel degrees
  ``(M - g) * C + (C - 1 - c)``, so per-channel products land on *the same*
  output degrees (channels aggregate for free) while kernel degrees stay
  non-overlapping across channels, as Sec. 3.2 requires.

Everything is computed directly from the input and kernel; the im2col matrix
is never formed.  The degree of an element is its flattened index in the
padded input at any rank, so the helpers the engine builds its plan from
(:func:`tap_degrees`, the ``scatter_*`` stacks, the gather indices) take a
``ConvShape`` of any rank.
"""

from __future__ import annotations

import numpy as np

from repro.core.degree_map import kernel_degrees, max_kernel_degree
from repro.hankel.im2col_view import pad2d
from repro.utils.shapes import ConvShape
from repro.utils.validation import ensure_array


def input_polynomial(image: np.ndarray, padding: int = 0) -> np.ndarray:
    """Coefficient vector of A(t) for one 2D image (Eq. 10).

    With the Eq. 10 degree assignment ``deg(a[i,j]) = iw * i + j``, the
    coefficient vector is simply the row-major flatten of the padded image.
    """
    image = ensure_array(image, "image", ndim=2)
    padded = pad2d(image[None, None], padding)[0, 0]
    return padded.reshape(-1)


def kernel_polynomial(kernel: np.ndarray, iw: int,
                      dilation: int | tuple = 1) -> np.ndarray:
    """Coefficient vector of U(t) for one 2D kernel (Eq. 6 / Eq. 11).

    *iw* is the **padded** input width.  The vector has length ``M + 1``
    (``(kh - 1) * iw + kw`` undilated) — the "combined kernel size" of
    Sec. 3.2: each kernel row is followed by ``iw - kw`` zeros, and rows
    appear reversed.  *dilation* stretches the degree map (taps scatter
    ``dh`` rows / ``dw`` columns apart) without materializing zeros.
    """
    kernel = ensure_array(kernel, "kernel", ndim=2)
    kh, kw = kernel.shape
    m = max_kernel_degree(kh, kw, iw, dilation)
    coeffs = np.zeros(m + 1, dtype=kernel.dtype)
    coeffs[kernel_degrees(kh, kw, iw, dilation)] = kernel
    return coeffs


def output_gather_indices(shape) -> np.ndarray:
    """Indices into the product coefficient vector holding the output.

    Any rank: shape ``out_extents``; entry ``o`` is the degree
    ``M + sum_l s_l * stride_l * o_l`` over the row-major degree strides
    ``s_l`` of the padded input — Eq. 12 with per-axis stride (dilation
    only enters through ``M``).
    """
    steps = np.multiply(shape.poly_strides, shape.stride_nd)
    return shape.poly_kernel_len - 1 + np.tensordot(
        steps, np.indices(shape.out_extents), axes=1)


def tap_degrees(shape) -> np.ndarray:
    """Exponent of each kernel tap in U(t), for a problem of any rank.

    Shape ``kernel``; tap ``j`` sits at ``M - sum_l s_l * d_l * j_l`` —
    the stretched degree map of :func:`kernel_polynomial`, with the
    padded input's row-major degree strides ``s_l``.
    """
    steps = np.multiply(shape.poly_strides, shape.dilation_nd)
    return shape.poly_kernel_len - 1 - np.tensordot(
        steps, np.indices(shape.kernel), axes=1)


def channel_kernel_stack(weight: np.ndarray, iw: int,
                         dilation: int | tuple = 1) -> np.ndarray:
    """Per-channel U(t) vectors for a weight tensor.

    *weight* is ``(f, c, kh, kw)``; returns ``(f, c, M + 1)``.  All channels
    share the same degrees because the channel aggregation happens as a sum
    in the frequency domain (Sec. 3.2, chosen option).  *dilation* scatters
    the taps on the stretched degree map.
    """
    weight = ensure_array(weight, "weight", ndim=4)
    return scatter_channel_stack(
        weight, kernel_degrees(*weight.shape[2:], iw, dilation))


def scatter_channel_stack(weight: np.ndarray,
                          degrees: np.ndarray) -> np.ndarray:
    """Per-channel U(t) vectors ``(f, c, M + 1)`` for a weight of any
    rank: tap ``j`` of every (filter, channel) lands at ``degrees[j]``."""
    f, c = weight.shape[:2]
    coeffs = np.zeros((f, c, int(degrees.max()) + 1), dtype=weight.dtype)
    coeffs[:, :, degrees] = weight
    return coeffs


# ---------------------------------------------------------------------------
# Merged (interleaved) multi-channel layout — the paper's alternative option.
# ---------------------------------------------------------------------------

def merged_input_polynomial(x_padded: np.ndarray) -> np.ndarray:
    """Interleaved multi-channel A(t) for one image.

    *x_padded* is ``(c, ph, pw)``; element ``(c, i, j)`` gets degree
    ``(pw * i + j) * C + c``.  Returns a vector of length ``C * ph * pw``.
    """
    x_padded = ensure_array(x_padded, "x_padded", ndim=3)
    c = x_padded.shape[0]
    # (c, L) -> transpose -> (L, c) -> ravel interleaves channels.
    return x_padded.reshape(c, -1).T.reshape(-1)


def merged_kernel_polynomial(weight_c: np.ndarray, iw: int,
                             dilation: int | tuple = 1) -> np.ndarray:
    """Interleaved multi-channel U(t) for one filter.

    *weight_c* is ``(c, kh, kw)``; element ``(c, i, j)`` gets degree
    ``(M - (iw * i + j)) * C + (C - 1 - c)``.  Per-channel degrees are
    disjoint (distinct residues mod C), and ``deg_in + deg_ker`` is
    independent of the channel, so the product aggregates channels
    automatically.
    """
    weight_c = ensure_array(weight_c, "weight_c", ndim=3)
    c, kh, kw = weight_c.shape
    m = max_kernel_degree(kh, kw, iw, dilation)
    coeffs = np.zeros(c * (m + 1), dtype=weight_c.dtype)
    deg = kernel_degrees(kh, kw, iw, dilation)  # (kh, kw)
    for ch in range(c):
        coeffs[deg * c + (c - 1 - ch)] = weight_c[ch]
    return coeffs


def merged_input_stack(x_padded: np.ndarray) -> np.ndarray:
    """Interleaved multi-channel A(t) for a whole batch, vectorized.

    *x_padded* is ``(n, c, *padded)`` of any spatial rank; returns ``(n,
    C * prod(padded))`` — for rank 2, row ``i`` equals
    ``merged_input_polynomial(x_padded[i])``.
    """
    n, c = x_padded.shape[:2]
    # (n, c, L) -> (n, L, c) -> ravel per image interleaves channels.
    return np.ascontiguousarray(
        x_padded.reshape(n, c, -1).transpose(0, 2, 1)
    ).reshape(n, -1)


def merged_kernel_stack(weight: np.ndarray, iw: int,
                        dilation: int | tuple = 1) -> np.ndarray:
    """Interleaved multi-channel U(t) for every filter, vectorized.

    *weight* is ``(f, c, kh, kw)``; returns ``(f, C * (M + 1))`` — row
    ``f`` equals ``merged_kernel_polynomial(weight[f], iw)``.
    """
    weight = ensure_array(weight, "weight", ndim=4)
    return scatter_merged_stack(
        weight, kernel_degrees(*weight.shape[2:], iw, dilation))


def scatter_merged_stack(weight: np.ndarray,
                         degrees: np.ndarray) -> np.ndarray:
    """Interleaved U(t) ``(f, C * (M + 1))`` for a weight of any rank.

    Channel ``c``'s tap ``j`` lands at ``degrees[j] * C + (C - 1 - c)``.
    The scatter indices are disjoint across channels (distinct residues
    mod C), so one fancy-index assignment fills every filter.
    """
    f, c = weight.shape[:2]
    residues = (c - 1 - np.arange(c)).reshape((c,) + (1,) * degrees.ndim)
    idx = degrees * c + residues
    coeffs = np.zeros((f, c * (int(degrees.max()) + 1)), dtype=weight.dtype)
    coeffs[:, idx.reshape(-1)] = weight.reshape(f, -1)
    return coeffs


def merged_output_gather_indices(shape: ConvShape) -> np.ndarray:
    """Gather indices for the merged layout: ``C * deg + (C - 1)``.

    ``C`` is the *per-group* channel count: with groups, each group merges
    its own channels and the gather degrees are identical across groups.
    """
    c = shape.group_channels
    return c * output_gather_indices(shape) + (c - 1)


def polynomial_lengths(shape: ConvShape) -> tuple[int, int, int]:
    """(len A, len U, minimum transform length) for *shape*.

    These drive FFT size planning.  Eq. 12 reads only degrees ``M ...
    len A - 1`` of the product, where ``M = len U - 1``.  A cyclic product
    of length ``L >= len A`` wraps the overflow degrees ``L ... len A +
    M - 1`` onto ``0 ... len A + M - 1 - L``, all below ``M``, so every
    gathered degree equals the linear product's: ``len A`` (not the
    linear length ``len A + len U - 1``) is the transform-length bound.
    """
    len_a = shape.poly_input_len
    len_u = shape.poly_kernel_len
    return len_a, len_u, len_a
