"""From-scratch FFT substrate.

Public surface:

- :func:`fft` / :func:`ifft` / :func:`rfft` / :func:`irfft` — transforms along
  the last axis, dispatched through the active backend.
- :func:`set_backend` / :func:`use_backend` — choose ``"builtin"`` (this
  package's radix-2 / mixed-radix / Bluestein stack) or ``"numpy"``.
- :func:`next_fast_len` / :func:`next_pow2` — cuFFT-style size planning.
"""

from __future__ import annotations

import numpy as np

from repro.fft.backend import (
    BackendExecutionError,
    FftBackend,
    available_backends,
    get_backend,
    set_backend,
    use_backend,
)
from repro.fft.dft import dft, idft
from repro.fft.plan import (
    FftPlan,
    clear_fft_plan_cache,
    fft_plan_cache_info,
    get_fft_plan,
    set_fft_plan_cache_limit,
)
from repro.fft.sizes import (
    factorize,
    is_power_of_two,
    is_smooth,
    next_fast_len,
    next_pow2,
)

__all__ = [
    "fft", "ifft", "rfft", "irfft",
    "dft", "idft",
    "BackendExecutionError",
    "FftBackend", "available_backends", "get_backend", "set_backend",
    "use_backend",
    "FftPlan", "get_fft_plan", "fft_plan_cache_info",
    "set_fft_plan_cache_limit", "clear_fft_plan_cache",
    "next_fast_len", "next_pow2", "is_smooth",
    "is_power_of_two", "factorize",
]


def fft(x, n: int | None = None) -> np.ndarray:
    """Forward complex FFT along the last axis (active backend)."""
    return get_backend().fft(x, n)


def ifft(x, n: int | None = None) -> np.ndarray:
    """Inverse complex FFT along the last axis (active backend)."""
    return get_backend().ifft(x, n)


def rfft(x, n: int | None = None) -> np.ndarray:
    """Real-input FFT along the last axis (active backend)."""
    return get_backend().rfft(x, n)


def irfft(x, n: int | None = None) -> np.ndarray:
    """Inverse real FFT along the last axis (active backend)."""
    return get_backend().irfft(x, n)
