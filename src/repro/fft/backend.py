"""Pluggable FFT backend.

The PolyHankel algorithm is backend-agnostic: the paper used cuFFT, this
reproduction ships a from-scratch implementation (``builtin``) and a fast
pocketfft-based one (``numpy``).  The numpy backend is the default for
benchmarks; the builtin backend exists to make the substrate self-contained
and is cross-validated against the reference DFT.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.fft import mixed, real
from repro.guard import faults as _faults
from repro.observe import span, tracing_enabled
from repro.observe.registry import counters


class BackendExecutionError(RuntimeError):
    """A transform failed inside a backend, with dispatch context attached.

    Raised by the propagation layer of :func:`get_backend` in place of
    whatever the backend threw (the original is chained as ``__cause__``),
    so callers — the guarded fallback chain above all — see *which*
    backend, operation and transform size failed instead of a bare
    library error from five frames down.  ``ValueError`` passes through
    unwrapped: it means the *call* was wrong (bad size, bad shape), not
    that the backend broke.
    """

    def __init__(self, backend: str, op: str, n: int | None,
                 cause: BaseException):
        self.backend = backend
        self.op = op
        self.n = n
        super().__init__(
            f"FFT backend {backend!r} failed in {op}(n={n}): "
            f"{type(cause).__name__}: {cause}"
        )


@dataclass(frozen=True)
class FftBackend:
    """A set of 1D transform callables operating along the last axis."""

    name: str
    fft: Callable[..., np.ndarray]
    ifft: Callable[..., np.ndarray]
    rfft: Callable[..., np.ndarray]
    irfft: Callable[..., np.ndarray]


def _builtin_fft(x, n=None):
    x = np.asarray(x, dtype=complex)
    if n is not None:
        if x.shape[-1] < n:
            pad = [(0, 0)] * (x.ndim - 1) + [(0, n - x.shape[-1])]
            x = np.pad(x, pad)
        elif x.shape[-1] > n:
            x = x[..., :n]
    return mixed.fft(x)


def _builtin_ifft(x, n=None):
    x = np.asarray(x, dtype=complex)
    if n is not None:
        if x.shape[-1] < n:
            pad = [(0, 0)] * (x.ndim - 1) + [(0, n - x.shape[-1])]
            x = np.pad(x, pad)
        elif x.shape[-1] > n:
            x = x[..., :n]
    return mixed.ifft(x)


BUILTIN = FftBackend(
    name="builtin",
    fft=_builtin_fft,
    ifft=_builtin_ifft,
    rfft=real.rfft,
    irfft=real.irfft,
)

NUMPY = FftBackend(
    name="numpy",
    fft=np.fft.fft,
    ifft=np.fft.ifft,
    rfft=np.fft.rfft,
    irfft=np.fft.irfft,
)

_BACKENDS = {"builtin": BUILTIN, "numpy": NUMPY}
_active: FftBackend = NUMPY


def available_backends() -> list[str]:
    """Names of the registered backends."""
    return sorted(_BACKENDS)


def get_backend(name: str | FftBackend | None = None) -> FftBackend:
    """Resolve *name* to a backend; ``None`` returns the active one.

    While observation is enabled (:func:`repro.observe.enable_tracing`),
    the resolved backend is wrapped so every transform invocation is
    counted — by kind and size — in the unified registry and recorded as
    a span.  When observation is off the raw backend is returned and the
    hot path pays nothing.

    Every resolution additionally passes through the propagation layer:
    a backend exception other than ``ValueError`` surfaces as
    :class:`BackendExecutionError` carrying the failing backend, operation
    and transform size — the context the guarded fallback chain reports
    and keys its circuit breaker on.  The wrappers are memoized, so the
    per-call cost is one truth test and a zero-cost ``try``.
    """
    backend = _resolve(name)
    if tracing_enabled():
        backend = _observed(backend)
    return _propagated(backend)


def _resolve(name: str | FftBackend | None) -> FftBackend:
    """Resolve *name* to the raw (unwrapped) backend object."""
    if name is None:
        return _active
    if isinstance(name, FftBackend):
        return name
    try:
        return _BACKENDS[name]
    except KeyError:
        raise ValueError(
            f"unknown FFT backend {name!r}; "
            f"available: {available_backends()}"
        ) from None


def set_backend(name: str | FftBackend) -> FftBackend:
    """Set the process-wide active backend; returns it."""
    global _active
    _active = _resolve(name)
    return _active


@contextmanager
def use_backend(name: str | FftBackend):
    """Context manager that temporarily switches the active backend."""
    global _active
    previous = _active
    _active = _resolve(name)
    try:
        yield _active
    finally:
        _active = previous


# -- guarded error propagation -----------------------------------------------


def _propagating(backend_name: str, op: str, fn):
    def wrapped(x, n=None):
        try:
            if _faults._STACK:
                # Fault-injection hook: an armed ``backend_error`` raises
                # here, exactly where a real accelerator failure would
                # surface — and is wrapped like one.
                _faults.check_backend_fault(backend_name, op, n)
            return fn(x, n)
        except ValueError:
            raise  # the call was malformed, not the backend broken
        except Exception as exc:
            raise BackendExecutionError(backend_name, op, n, exc) from exc
    return wrapped


_PROPAGATED: dict[str, tuple] = {}


def _propagated(backend: "FftBackend") -> "FftBackend":
    """Error-propagating view of *backend* (memoized per name)."""
    if getattr(backend.fft, "__propagated_from__", None) is not None:
        return backend  # already a propagating view
    cached = _PROPAGATED.get(backend.name)
    if cached is not None and cached[0] is backend:
        return cached[1]
    wrapped = FftBackend(
        name=backend.name,
        fft=_propagating(backend.name, "fft", backend.fft),
        ifft=_propagating(backend.name, "ifft", backend.ifft),
        rfft=_propagating(backend.name, "rfft", backend.rfft),
        irfft=_propagating(backend.name, "irfft", backend.irfft),
    )
    wrapped.fft.__propagated_from__ = backend
    _PROPAGATED[backend.name] = (backend, wrapped)
    return wrapped


# -- instrumentation ---------------------------------------------------------

_COMPLEX_ITEM = 16  # complex128
_FLOAT_ITEM = 8     # float64


def _invocation_bytes(op: str, rows: int, n: int) -> int:
    """Approximate DRAM traffic of one batched transform invocation."""
    bins = n // 2 + 1
    if op == "rfft":
        return rows * (n * _FLOAT_ITEM + bins * _COMPLEX_ITEM)
    if op == "irfft":
        return rows * (bins * _COMPLEX_ITEM + n * _FLOAT_ITEM)
    return rows * 2 * n * _COMPLEX_ITEM  # fft / ifft


def _observing(backend: "FftBackend", op: str, fn):
    def wrapped(x, n=None):
        if not tracing_enabled():
            return fn(x, n)
        shape = np.shape(x)
        size = n if n is not None else (shape[-1] if shape else 1)
        rows = 1
        for dim in shape[:-1]:
            rows *= dim
        counters.add("fft.calls", 1, kind=op, n=size, backend=backend.name)
        counters.add("fft.rows", rows, kind=op, n=size, backend=backend.name)
        with span(f"fft.{op}", n=size, rows=rows, backend=backend.name,
                  bytes=_invocation_bytes(op, rows, size)):
            return fn(x, n)
    return wrapped


_OBSERVED: dict[str, "FftBackend"] = {}


def _observed(backend: "FftBackend") -> "FftBackend":
    """Invocation-counting view of *backend* (memoized per name)."""
    if getattr(backend.fft, "__wrapped_backend__", None) is not None:
        return backend  # already an observing view
    cached = _OBSERVED.get(backend.name)
    if cached is not None and cached.fft.__wrapped_backend__ is backend:
        return cached
    wrapped = FftBackend(
        name=backend.name,
        fft=_observing(backend, "fft", backend.fft),
        ifft=_observing(backend, "ifft", backend.ifft),
        rfft=_observing(backend, "rfft", backend.rfft),
        irfft=_observing(backend, "irfft", backend.irfft),
    )
    wrapped.fft.__wrapped_backend__ = backend
    _OBSERVED[backend.name] = wrapped
    return wrapped
