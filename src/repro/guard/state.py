"""Guard enablement state and configuration.

This module is deliberately import-light (stdlib only): hot-path modules
(``repro.core.multichannel``, ``repro.nn.layers``, ``repro.fft.backend``)
consult it on every call, so it must never pull the algorithm registry or
anything else heavy, and the disabled check must stay a single attribute
load plus a truth test.

The guard itself (sentinels, fallback chain, breaker) lives in
:mod:`repro.guard.chain`; this module only answers "is supervision on, and
with what knobs".
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, replace


@dataclass(frozen=True)
class GuardConfig:
    """Tunables of the guarded-execution subsystem.

    ``chain`` names algorithms by their registry string values (not enum
    members) so this module stays free of registry imports; the chain
    executor resolves them at call time and drops entries whose
    ``supports()`` predicate rejects the shape.
    """

    #: Calibrated slack multiplier of the a-priori FFT error model:
    #: ``err <= ulp_constant * eps * log2(nfft) * bound``.  The default is
    #: several times the worst ratio measured against the DFT reference
    #: (see :func:`repro.guard.sentinel.calibrate_ulp_constant`).
    ulp_constant: float = 64.0
    #: Relative slack on the a-posteriori magnitude bound before an output
    #: is classified ``suspect``.
    magnitude_slack: float = 2.0 ** -16
    #: Consecutive failures of one (algorithm, shape, dtype) before its
    #: circuit breaker opens.
    breaker_threshold: int = 3
    #: Seconds a tripped breaker routes around the failing path before the
    #: path is retried.
    breaker_ttl_s: float = 30.0
    #: Fallback order, primary first.  Entries not supporting the problem
    #: shape are skipped.
    chain: tuple[str, ...] = ("polyhankel", "gemm", "naive")

    def with_(self, **kwargs) -> "GuardConfig":
        return replace(self, **kwargs)


class _GuardState:
    __slots__ = ("enabled", "config")

    def __init__(self) -> None:
        self.enabled = False
        self.config = GuardConfig()


#: Process-wide guard switch.  Hot paths read ``_STATE.enabled`` directly.
_STATE = _GuardState()


def guard_enabled() -> bool:
    """Whether guarded execution is currently on."""
    return _STATE.enabled


def current_config() -> GuardConfig:
    """The active configuration (meaningful whether or not enabled)."""
    return _STATE.config


def enable_guard(config: GuardConfig | None = None) -> GuardConfig:
    """Turn on guarded execution; returns the active config."""
    if config is not None:
        _STATE.config = config
    _STATE.enabled = True
    return _STATE.config


def disable_guard() -> None:
    """Turn off guarded execution (configuration is retained)."""
    _STATE.enabled = False


@contextmanager
def guarded(config: GuardConfig | None = None):
    """Context manager: guard on inside, previous state restored after."""
    previous_enabled = _STATE.enabled
    previous_config = _STATE.config
    enable_guard(config)
    try:
        yield _STATE.config
    finally:
        _STATE.enabled = previous_enabled
        _STATE.config = previous_config
