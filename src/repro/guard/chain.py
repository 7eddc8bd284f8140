"""The supervised fallback chain: one forward, several ways to survive it.

``guarded_conv2d`` walks an ordered chain of algorithm lowerings —
PolyHankel, im2col/GEMM, naive by default — derived from
the baselines registry's ``supports()`` metadata, for every convolution
op (conv1d, conv2d, conv3d, conv_transpose2d).  Each attempt is
sentinel-classified (:mod:`repro.guard.sentinel`); a suspect/failed result
or a raised exception falls through to the next entry instead of reaching
the caller.  A per-(algorithm, shape, dtype) circuit breaker
(:mod:`repro.guard.breaker`) remembers chronically failing paths and
routes around them for a TTL, so a broken backend costs its failure
latency once per TTL window, not once per request.

Every decision is observable through the unified counter registry:

- ``guard.fallback``      — one abandoned attempt (tags: algorithm, cause);
- ``guard.sentinel_trip`` — a suspect/failed verdict (tags: algorithm,
  status);
- ``guard.breaker_open``  — a breaker transitioning to open;
- ``guard.cache_corrupt`` — a checksum-invalidated spectrum entry
  (emitted by the cache owners, counted here for one vocabulary);

plus ``guard.attempt`` trace spans while tracing is enabled.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.registry import (
    ConvAlgorithm,
    ConvOp,
    add_bias,
    convolve,
    fallback_chain,
    op_shape,
    resolve_op,
)
from repro.guard import sentinel
from repro.guard.breaker import CircuitBreaker
from repro.guard.state import GuardConfig, current_config
from repro.observe import span
from repro.observe.registry import counters
from repro.utils.validation import ensure_array


class GuardExhaustedError(RuntimeError):
    """Every chain entry failed, was skipped, or produced rejected output."""

    def __init__(self, attempts: list[tuple[str, str, str | None]]):
        self.attempts = attempts
        detail = "; ".join(
            f"{algo}: {status}" + (f" ({reason})" if reason else "")
            for algo, status, reason in attempts
        )
        super().__init__(
            f"guarded execution exhausted its fallback chain — {detail}"
        )


#: Process-wide breaker shared by every guarded call.
_BREAKER = CircuitBreaker()


def breaker() -> CircuitBreaker:
    """The process-wide circuit breaker (introspection and tests)."""
    return _BREAKER


def reset_guard() -> None:
    """Reset breaker memory and guard counters (tests, recovery drills)."""
    _BREAKER.reset()
    counters.clear("guard.")


def _sentinel_weight(weight: np.ndarray, op: ConvOp,
                     groups: int) -> np.ndarray:
    """*weight* with axis 0 enumerating output channels, as the
    sentinel's per-filter L1 bound expects.

    A transposed weight ``(c_in, c_out/g, kh, kw)`` is reordered to
    ``(c_out, c_in/g, kh, kw)`` (the adjoint's spatial flip does not
    change absolute sums, so it is omitted).
    """
    if op is not ConvOp.CONV_TRANSPOSE2D:
        return weight
    c_in, f_per, kh, kw = weight.shape
    grouped = weight.reshape(groups, c_in // groups, f_per, kh, kw)
    return grouped.transpose(0, 2, 1, 3, 4).reshape(
        groups * f_per, c_in // groups, kh, kw)


def guarded_conv2d(x: np.ndarray, weight: np.ndarray,
                   bias: np.ndarray | None = None,
                   padding: int | tuple | str = 0,
                   stride: int | tuple = 1,
                   dilation: int | tuple = 1, groups: int = 1,
                   algorithm: ConvAlgorithm | str = ConvAlgorithm.POLYHANKEL,
                   config: GuardConfig | None = None,
                   breaker_key=None, op: ConvOp | str | None = None,
                   output_padding: int | tuple = 0,
                   **kwargs) -> np.ndarray:
    """Any convolution op through the supervised fallback chain.

    Semantics match :func:`repro.nn.functional.conv2d` and its conv1d,
    conv3d and conv_transpose2d siblings (*op* and *output_padding* as in
    :func:`repro.baselines.registry.convolve`), with supervision: the
    requested *algorithm* runs first (receiving any extra *kwargs*); on a
    sentinel trip or exception the chain falls through registry-lowered
    alternatives — called bare, since engine-specific knobs like
    ``strategy`` or ``workers`` do not transfer — until one produces a
    healthy result.  Raises :class:`GuardExhaustedError` if none does.

    The sentinel's B/E model carries over per op: B is the per-output-
    channel L1 bound (rank-agnostic), E uses the product length of the
    problem the op actually runs (``poly_product_len`` of
    :func:`repro.baselines.registry.op_shape`).

    *breaker_key* overrides the breaker's shape scope: the serving layer
    passes a request family's coalescing key so shards of one family —
    whose per-shard shapes differ only in batch size — trip and share a
    single breaker instead of one breaker per batch-axis cut.

    Non-finite *inputs* are served from the first attempt that completes
    (classified ``degraded``): garbage-in is not an engine fault, and no
    fallback could recover a clean answer from a poisoned input.
    """
    config = config or current_config()
    x = ensure_array(x, "x", dtype=float)
    # Uncast: PolyHankel's spectrum cache keys on the caller's array, and
    # every route (and the sentinel) casts the weight itself.
    weight = np.asarray(weight)
    op = resolve_op(op, x.ndim)
    shape = op_shape(op, x.shape, weight.shape, padding, stride, dilation,
                     groups, output_padding)
    chain = fallback_chain(shape, primary=algorithm, order=config.chain)
    if not chain:  # pragma: no cover - naive supports every shape
        raise GuardExhaustedError([("-", "empty", "no supported algorithm")])
    sentinel_weight = _sentinel_weight(weight, op, groups)
    dtype_tag = str(x.dtype)
    scope = breaker_key if breaker_key is not None else (op.value, shape)
    attempts: list[tuple[str, str, str | None]] = []
    last_exc: Exception | None = None
    for index, algo in enumerate(chain):
        key = (algo.value, scope, dtype_tag)
        if _BREAKER.is_open(key):
            counters.add("guard.fallback", algorithm=algo.value,
                         cause="breaker_open")
            attempts.append((algo.value, "skipped", "breaker open"))
            continue
        call_kwargs = kwargs if index == 0 else {}
        try:
            with span("guard.attempt", algorithm=algo.value, attempt=index,
                      op=op.value):
                out = convolve(x, weight, algo, padding, stride, dilation,
                               groups, op=op, output_padding=output_padding,
                               **call_kwargs)
        except Exception as exc:
            last_exc = exc
            counters.add("guard.fallback", algorithm=algo.value,
                         cause="exception")
            if _BREAKER.record_failure(key, config.breaker_threshold,
                                       config.breaker_ttl_s):
                counters.add("guard.breaker_open", algorithm=algo.value)
            attempts.append((algo.value, "error",
                             f"{type(exc).__name__}: {exc}"))
            continue
        verdict = sentinel.classify(out, x, sentinel_weight,
                                    shape.poly_product_len, config)
        if verdict.ok:
            _BREAKER.record_success(key)
            return add_bias(out, bias)
        counters.add("guard.sentinel_trip", algorithm=algo.value,
                     status=verdict.status)
        counters.add("guard.fallback", algorithm=algo.value,
                     cause=verdict.status)
        if _BREAKER.record_failure(key, config.breaker_threshold,
                                   config.breaker_ttl_s):
            counters.add("guard.breaker_open", algorithm=algo.value)
        attempts.append((algo.value, verdict.status, verdict.reason))
    raise GuardExhaustedError(attempts) from last_exc
