"""N-dimensional PolyHankel convolution (extension beyond the paper).

The paper develops the construction for 2D, but nothing in it is specific
to two dimensions: for a d-dimensional input with padded extents
``P_1 x ... x P_d`` and row-major strides ``s_l``, assign input element
``a[i_1..i_d]`` the degree ``sum_l s_l i_l`` (the flattened index) and
kernel element ``u[j_1..j_d]`` the degree ``M - sum_l s_l d_l j_l`` with
``M = sum_l s_l d_l (K_l - 1)`` (``d_l`` the per-axis dilation — the
stretched degree map, exactly as in 2D).  Every conceptual im2col row
again collapses to a single product term, and output ``(o_1..o_d)`` is
the coefficient at ``M + sum_l s_l stride_l o_l``.  The 2D case recovers
Eqs. 10-12 exactly; 1D drops the row stride; 3D stacks a plane stride
(``t^(Iw*Id*k + Iw*i + j)``).

This gives the library 1D (sequence/audio) and 3D (volumetric/video)
convolution through the same single-FFT pipeline, with channel summation
in the frequency domain as in Sec. 3.2 and the full parameter space
(per-axis stride and dilation, asymmetric/"same" padding, groups).

Because the degree map is rank-generic, so is the engine: every rank runs
:class:`repro.core.multichannel.PolyHankelPlan` on a :class:`ConvShape`,
with the same bounded plan cache, content-checked spectrum cache, FFT
policy, spectrum pipeline and ``workers`` batch split as conv2d.  The
functions here are thin rank checks over that one plan path; the direct
references the tests referee it with live in :mod:`repro.baselines`.
"""

from __future__ import annotations

import numpy as np

from repro.core.construction import scatter_channel_stack, tap_degrees
from repro.core.multichannel import ChannelStrategy, run_polyhankel
from repro.core.planning import FftPolicy
from repro.utils.shapes import ConvShape
from repro.utils.validation import ensure_array, require


def max_kernel_degree_nd(kernel_extents: tuple[int, ...],
                         strides: tuple[int, ...],
                         dilation: tuple[int, ...] | None = None) -> int:
    """Highest kernel-polynomial exponent: ``sum_l s_l d_l (K_l - 1)``."""
    if dilation is None:
        dilation = (1,) * len(kernel_extents)
    return int(sum(s * d * (k - 1)
                   for s, d, k in zip(strides, dilation, kernel_extents)))


def kernel_polynomial_nd(kernel: np.ndarray,
                         padded_extents: tuple[int, ...],
                         dilation: tuple[int, ...] | None = None
                         ) -> np.ndarray:
    """Coefficient vector of U(t) for one d-dimensional kernel.

    With *dilation*, tap ``(j_1..j_d)`` sits at degree
    ``M - sum_l s_l d_l j_l`` — the zeros between taps are never stored,
    the degree map just stretches.
    """
    kernel = ensure_array(kernel, "kernel", dtype=float)
    shape = ConvShape(padded_extents, kernel.shape,
                      dilation=1 if dilation is None else dilation)
    return scatter_channel_stack(kernel[None, None], tap_degrees(shape))[0, 0]


def convnd_polyhankel(x: np.ndarray, weight: np.ndarray, padding=0,
                      stride=1, dilation=1, groups: int = 1,
                      fft_policy: FftPolicy = "auto",
                      backend: str | None = None, *,
                      strategy: ChannelStrategy = "sum",
                      workers: int | None = None,
                      site: str = "spectrum") -> np.ndarray:
    """d-dimensional convolution of an ``(n, c, *spatial)`` batch.

    *weight* is ``(f, c // groups, *kernel_spatial)``; *padding*, *stride*
    and *dilation* are ints or per-dimension tuples (*padding* also a
    flat ``(lo, hi)`` per-axis sequence or ``"same"``).  Works for any
    d >= 1.  The engine knobs mean what they mean for
    :func:`repro.core.multichannel.conv2d_polyhankel`; *site* is the cache
    surface the weight-spectrum lookup reports to (conv layers pass
    ``"layer_spectrum"``).
    """
    x = ensure_array(x, "x", dtype=float)
    # Uncast: the spectrum cache keys on the caller's array, so a
    # float32 weight hits across calls; the transform casts it.
    weight = np.asarray(weight)
    require(x.ndim >= 3, "input must be (n, c, *spatial)")
    return run_polyhankel(x, weight, padding, stride, dilation, groups,
                          fft_policy, strategy, backend, workers, site)


def conv1d_polyhankel(x: np.ndarray, weight: np.ndarray, padding=0,
                      stride=1, dilation=1, groups: int = 1,
                      **kwargs) -> np.ndarray:
    """1D convolution of an ``(n, c, length)`` batch."""
    x = ensure_array(x, "x")
    require(x.ndim == 3, "conv1d input must be (n, c, length)")
    return convnd_polyhankel(x, weight, padding, stride, dilation, groups,
                             **kwargs)


def conv3d_polyhankel(x: np.ndarray, weight: np.ndarray, padding=0,
                      stride=1, dilation=1, groups: int = 1,
                      **kwargs) -> np.ndarray:
    """3D convolution of an ``(n, c, depth, height, width)`` batch."""
    x = ensure_array(x, "x")
    require(x.ndim == 5, "conv3d input must be (n, c, d, h, w)")
    return convnd_polyhankel(x, weight, padding, stride, dilation, groups,
                             **kwargs)
