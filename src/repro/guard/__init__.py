"""Guarded execution: sentinels, fault injection, graceful fallback.

Fast paths earn their keep only when their failure modes are survivable.
This package wraps the engine's forward paths in three layers of defense:

- :mod:`repro.guard.sentinel` — a-priori FFT error-bound model plus
  a-posteriori output checks, classifying every forward as
  healthy / suspect / failed / degraded;
- :mod:`repro.guard.chain` — an ordered fallback chain (PolyHankel →
  GEMM → naive) with a TTL circuit breaker, so a tripped
  sentinel or a raised backend error degrades to a slower exact answer
  instead of propagating garbage;
- :mod:`repro.guard.faults` — deterministic fault injection at the real
  hook points, so the recovery path is continuously testable.

The guard is **off by default**: every hook site in the hot path hides
behind one truth test (``guard_enabled()`` / ``faults_active()``), keeping
the disabled overhead within noise.  Enable per scope::

    from repro import guard
    with guard.guarded():
        y = layer(x)            # supervised forward

or process-wide with :func:`enable_guard`.

Only the lightweight configuration surface imports eagerly; the chain,
sentinel and doctor modules load on first attribute access (PEP 562) —
both to keep ``import repro`` cheap and because the chain pulls in the
algorithm registry, which itself imports the modules the guard hooks into.
"""

from __future__ import annotations

from repro.guard.state import (
    GuardConfig,
    current_config,
    disable_guard,
    enable_guard,
    guard_enabled,
    guarded,
)

__all__ = [
    "GuardConfig",
    "GuardExhaustedError",
    "classify",
    "current_config",
    "disable_guard",
    "enable_guard",
    "format_report",
    "guard_enabled",
    "guarded",
    "guarded_conv2d",
    "inject",
    "reset_guard",
    "run_doctor",
]

_LAZY = {
    "GuardExhaustedError": ("repro.guard.chain", "GuardExhaustedError"),
    "guarded_conv2d": ("repro.guard.chain", "guarded_conv2d"),
    "reset_guard": ("repro.guard.chain", "reset_guard"),
    "classify": ("repro.guard.sentinel", "classify"),
    "inject": ("repro.guard.faults", "inject"),
    "run_doctor": ("repro.guard.doctor", "run_doctor"),
    "format_report": ("repro.guard.doctor", "format_report"),
}


def __getattr__(name: str):
    try:
        module_name, attr = _LAZY[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}"
        ) from None
    import importlib

    value = getattr(importlib.import_module(module_name), attr)
    globals()[name] = value
    return value
