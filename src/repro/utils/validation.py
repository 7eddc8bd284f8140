"""Input validation helpers shared across the library."""

from __future__ import annotations

import numpy as np


def require(condition: bool, message: str) -> None:
    """Raise ``ValueError`` with *message* when *condition* is false."""
    if not condition:
        raise ValueError(message)


def ensure_array(x, name: str = "array", dtype=None,
                 ndim: int | None = None) -> np.ndarray:
    """Coerce *x* to an ndarray, optionally checking rank and casting dtype."""
    arr = np.asarray(x)
    if dtype is not None:
        arr = arr.astype(dtype, copy=False)
    if ndim is not None and arr.ndim != ndim:
        raise ValueError(f"{name} must have {ndim} dimensions, got {arr.ndim}")
    return arr
