"""Poisson open-loop saturation bench for the cluster serving tier.

Closed-loop benchmarks (submit, wait, submit) measure latency at an
offered load the server itself controls — they cannot show whether
adding workers adds *capacity*.  This generator is open-loop: request
arrival times are drawn from a seeded Poisson process whose rate is
calibrated **above** the largest configuration's capacity, submissions
happen on schedule regardless of completions (up to the arena's
backpressure), and each request's latency is measured from its
*scheduled arrival*, not from when the submitter got around to it.  At
saturation, served-rps is the capacity of the configuration and the
p50/p99 latencies expose queueing — so the 1/2/4-worker sweep reads as
a scale-out curve.

The ≥1.5x two-worker scale-out contract only holds where two workers
have two cores to run on; each entry therefore records
``gated: os.cpu_count() >= 2``, the regression gate enforces the floor
only when gated, and the CI `serve-cluster` job (multi-core runners)
additionally passes ``repro serve-bench --check-scaleout 1.5`` to make
the contract unconditional there.

Every served result is compared bit-exactly against the in-process
engine before any number is reported — a throughput win that changed
the answers would be a correctness bug.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import Future
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class RequestPreset:
    """A serving scenario's request stream: *requests* independent
    ``[request_batch, channels, size, size]`` inputs against one weight."""

    name: str
    size: int
    kernel: int
    channels: int
    filters: int
    padding: int
    requests: int = 48
    request_batch: int = 1
    seed: int = 0
    heavy: bool = False  # skipped in --smoke runs

    def make_requests(self, groups: int = 1) -> tuple:
        """Seeded ``(weight, bias, xs)`` of the stream."""
        rng = np.random.default_rng(self.seed)
        c, k = self.channels, self.kernel
        weight = rng.standard_normal((self.filters, c // groups, k, k))
        bias = rng.standard_normal(self.filters)
        xs = [rng.standard_normal((self.request_batch, c, self.size,
                                   self.size)) for _ in range(self.requests)]
        return weight, bias, xs


@dataclass(frozen=True)
class ClusterPreset(RequestPreset):
    """One saturation scenario of the cluster tier."""

    worker_counts: tuple = (1, 2, 4)
    slots: int = 16
    slot_bytes: int = 1 << 18
    #: Offered load as a multiple of the largest configuration's measured
    #: single-stream capacity — > 1 keeps every sweep point saturated.
    oversubscribe: float = 1.5
    #: Served-rps floor for 2 workers vs. 1, enforced when the host can
    #: physically scale (``gated``); None records without gating.
    min_scaleout: float | None = 1.5


CLUSTER_PRESETS: tuple[ClusterPreset, ...] = (
    # The serve_batch8 shape: small per-request work, fixed cost
    # dominates — exactly the regime where a second worker process (own
    # GIL, own caches) should nearly double capacity on a 2-core box.
    ClusterPreset("cluster_batch8", size=8, kernel=3, channels=3,
                  filters=8, padding=1, requests=48,
                  worker_counts=(1, 2, 4), min_scaleout=1.5),
)


def poisson_arrivals(n: int, rate_rps: float,
                     rng: np.random.Generator) -> np.ndarray:
    """*n* arrival offsets (seconds) of a Poisson process at *rate_rps*."""
    if rate_rps <= 0:
        raise ValueError("rate_rps must be positive")
    return np.cumsum(rng.exponential(1.0 / rate_rps, size=n))


def _offer(server, xs, weight, bias, padding: int, arrivals: np.ndarray,
           **submit_kw) -> tuple[float, list, list[float]]:
    """Submit *xs* on the arrival schedule, stamping each completion.

    Returns ``(start, futures, done_at)``; a request the server turns
    away at the door (``Overloaded``) leaves None in *futures*.
    """
    from repro.serve.overload import Overloaded

    n = len(xs)
    done_at = [0.0] * n
    futures: list[Future | None] = [None] * n
    start = time.monotonic()
    for i, x in enumerate(xs):
        delay = start + arrivals[i] - time.monotonic()
        if delay > 0:
            time.sleep(delay)
        try:
            future = server.submit(x, weight, bias, padding=padding,
                                   **submit_kw)
        except Overloaded:
            continue

        def _stamp(f, i=i):
            done_at[i] = time.monotonic()

        future.add_done_callback(_stamp)
        futures[i] = future
    return start, futures, done_at


def _settle(done_at: list[float], indices) -> None:
    """Wait (up to 1 s) for the completion stamps of *indices*: result()
    can return a hair before the done-callback runs (waiters are notified
    first)."""
    deadline = time.monotonic() + 1.0
    while any(done_at[i] == 0.0 for i in indices) \
            and time.monotonic() < deadline:
        time.sleep(0.001)


def run_cluster_case(preset: ClusterPreset, repeats: int = 2,
                     worker_counts: tuple | None = None) -> list[dict]:
    """Sweep the saturation bench over worker counts.

    Returns one report entry per worker count (names like
    ``cluster_batch8_w2``), each carrying served-rps, p50/p99 latency,
    the offered rate, the ``gated`` flag, and — for multi-worker points —
    the scale-out ratio against this run's single-worker point.
    """
    from repro.nn import functional as F
    from repro.serve.router import ClusterServer

    counts = tuple(worker_counts or preset.worker_counts)
    weight, bias, xs = preset.make_requests()
    refs = [F.conv2d(x, weight, bias, padding=preset.padding) for x in xs]

    # Calibrate the offered rate once from warm single-stream capacity,
    # so every sweep point sees the *same* saturating load.
    with ClusterServer(workers=1, slots=preset.slots,
                       slot_bytes=preset.slot_bytes) as server:
        server.conv2d(xs[0], weight, bias, padding=preset.padding,
                      timeout=60)
        t0 = time.perf_counter()
        probes = min(8, preset.requests)
        for x in xs[:probes]:
            server.conv2d(x, weight, bias, padding=preset.padding,
                          timeout=60)
        service_s = (time.perf_counter() - t0) / probes
    offered_rps = max(counts) * preset.oversubscribe / max(service_s, 1e-6)

    # Two worker processes cannot beat one by 1.5x on a single core (the
    # engine's work is conserved): single-core hosts record the curve
    # without enforcing the floor.
    gated = (os.cpu_count() or 1) >= 2
    entries = []
    base_rps = None
    for workers in counts:
        rounds = []
        for rep in range(max(repeats, 1)):
            arrivals = poisson_arrivals(
                preset.requests, offered_rps,
                np.random.default_rng(preset.seed + 1000 * rep))
            with ClusterServer(workers=workers, slots=preset.slots,
                               slot_bytes=preset.slot_bytes) as server:
                # Warm every replica's caches off the clock.
                for _ in range(2 * workers):
                    server.conv2d(xs[0], weight, bias,
                                  padding=preset.padding, timeout=60)
                start, futures, done_at = _offer(
                    server, xs, weight, bias, preset.padding, arrivals)
                outs = [f.result(60) for f in futures]
                _settle(done_at, range(len(xs)))
            for out, ref in zip(outs, refs):
                if not np.array_equal(out, ref):
                    raise AssertionError(
                        f"cluster result diverged from in-process conv2d "
                        f"on {preset.name} (workers={workers})")
            latency_ms = (np.array(done_at) - (start + arrivals)) * 1e3
            rounds.append((preset.requests / (max(done_at) - start),
                           *np.percentile(latency_ms, [50, 99])))
        served_rps, p50_ms, p99_ms = max(rounds)
        if workers == 1:
            base_rps = served_rps
        scaleout = round(served_rps / base_rps, 3) \
            if base_rps and workers > 1 else None
        entries.append({
            "name": f"{preset.name}_w{workers}",
            "preset": preset.name,
            "workers": workers,
            "transport": "shm",
            "requests": preset.requests,
            "request_batch": preset.request_batch,
            "shape": {"size": preset.size, "kernel": preset.kernel,
                      "channels": preset.channels,
                      "filters": preset.filters,
                      "padding": preset.padding},
            "offered_rps": round(offered_rps, 1),
            "served_rps": round(served_rps, 1),
            "p50_ms": round(float(p50_ms), 3),
            "p99_ms": round(float(p99_ms), 3),
            "scaleout_vs_1": scaleout,
            "min_scaleout": preset.min_scaleout if workers == 2 else None,
            "gated": gated,
            "exact": True,
        })
    return entries


# ---------------------------------------------------------------------------
# Overload sweep: offered load as a multiple of capacity, goodput gated.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OverloadPreset(RequestPreset):
    """One overload scenario of the batching serving tier.

    The sweep offers Poisson load at ``multipliers`` times the server's
    calibrated burst capacity and measures what a deadline-propagating,
    admission-bounded server actually *delivers*: goodput (completed
    requests per second of wall time), the shed/reject split, and the
    completed-request latency tail.  ``min_goodput_pct`` is the CI
    contract: at ``gate_multiplier`` times capacity the server must
    still deliver that fraction of its capacity as goodput — overload
    must cost the *excess*, not the throughput.
    """

    requests: int = 96
    max_batch: int = 8
    multipliers: tuple = (0.5, 1.0, 2.0, 3.0)
    #: Per-request deadline handed to ``submit(deadline_s=...)``.
    deadline_s: float = 2.0
    #: Admission budget of the swept server (well under ``requests`` so
    #: the high multipliers actually exercise rejection).
    max_inflight: int = 48
    shed_policy: str = "reject-new"
    #: Goodput floor as a fraction of calibrated capacity, enforced on
    #: the ``gate_multiplier`` point; None records without gating.
    min_goodput_pct: float | None = 0.85
    gate_multiplier: float = 2.0


OVERLOAD_PRESETS: tuple[OverloadPreset, ...] = (
    # Same shape family as serve_batch8/cluster_batch8: small requests
    # whose value is in coalescing — under overload the queue is never
    # starved, so batches stay full and goodput should track capacity.
    OverloadPreset("overload_batch8", size=8, kernel=3, channels=3,
                   filters=8, padding=1),
)


def _calibrate_capacity(preset: OverloadPreset, xs, weight, bias) -> float:
    """Burst capacity (requests/s) of a warm, amply budgeted server."""
    from repro.serve.api import ConvServer
    from repro.serve.overload import ServeConfig

    config = ServeConfig(max_inflight=max(2 * preset.requests, 64))
    with ConvServer(max_batch=preset.max_batch, config=config) as server:
        for _ in range(2):
            server.conv2d(xs[0], weight, bias, padding=preset.padding,
                          timeout=60)
        t0 = time.perf_counter()
        futures = [server.submit(x, weight, bias, padding=preset.padding)
                   for x in xs]
        for future in futures:
            future.result(60)
        span = time.perf_counter() - t0
    return preset.requests / max(span, 1e-9)


def run_overload_case(preset: OverloadPreset,
                      multipliers: tuple | None = None) -> list[dict]:
    """Sweep offered load over ``multipliers`` x capacity.

    Returns one entry per multiplier (names like ``overload_batch8_x2``).
    Every completed result is checked bit-exactly against the in-process
    engine, and the outcome bookkeeping is asserted to be airtight:
    each offered request lands in exactly one of completed / shed /
    rejected (a future resolves exactly once, so a request reported shed
    can never also deliver a result), and nothing is lost.
    """
    from repro.nn import functional as F
    from repro.serve.api import ConvServer
    from repro.serve.overload import DeadlineExceeded, ServeConfig

    multipliers = tuple(multipliers or preset.multipliers)
    weight, bias, xs = preset.make_requests()
    refs = [F.conv2d(x, weight, bias, padding=preset.padding) for x in xs]
    capacity_rps = _calibrate_capacity(preset, xs, weight, bias)

    config = ServeConfig(max_inflight=preset.max_inflight,
                         shed_policy=preset.shed_policy)
    entries = []
    for mult in multipliers:
        offered_rps = mult * capacity_rps
        arrivals = poisson_arrivals(
            preset.requests, offered_rps,
            np.random.default_rng(preset.seed + int(1000 * mult)))
        n = preset.requests
        with ConvServer(max_batch=preset.max_batch,
                        config=config) as server:
            server.conv2d(xs[0], weight, bias, padding=preset.padding,
                          timeout=60)  # warm caches off the clock
            start, futures, done_at = _offer(
                server, xs, weight, bias, preset.padding, arrivals,
                deadline_s=preset.deadline_s)
            # None: rejected at the front door.
            errors = {i: f.exception(60) for i, f in enumerate(futures)
                      if f is not None}
            completed = [i for i, e in errors.items() if e is None]
            _settle(done_at, completed)
        latencies = [done_at[i] - (start + arrivals[i]) for i in completed]
        shed = sum(isinstance(e, DeadlineExceeded) for e in errors.values())
        failed = len(errors) - len(completed) - shed
        for i in completed:
            if not np.array_equal(futures[i].result(0), refs[i]):
                raise AssertionError(
                    f"overload sweep result diverged from in-process "
                    f"conv2d on {preset.name} (x{mult:g}, request {i})")
        rejected = sum(1 for f in futures if f is None)
        if failed:
            raise AssertionError(
                f"{failed} request(s) failed outright in the overload "
                f"sweep on {preset.name} (x{mult:g}) — sheds and rejects "
                f"are expected under overload, failures are not")
        if len(completed) + shed + rejected != n:
            raise AssertionError(
                "overload outcome bookkeeping lost a request: "
                f"{len(completed)} + {shed} + {rejected} != {n}")
        span_s = (max(done_at[i] for i in completed) - start) \
            if completed else 0.0
        goodput_rps = len(completed) / span_s if span_s > 0 else 0.0
        lat = np.array(latencies) if latencies else np.zeros(1)
        gate = abs(mult - preset.gate_multiplier) < 1e-9
        entries.append({
            "name": f"{preset.name}_x{mult:g}",
            "preset": preset.name,
            "multiplier": mult,
            "requests": n,
            "deadline_s": preset.deadline_s,
            "max_inflight": preset.max_inflight,
            "shed_policy": preset.shed_policy,
            "offered_rps": round(offered_rps, 1),
            "capacity_rps": round(capacity_rps, 1),
            "goodput_rps": round(goodput_rps, 1),
            "goodput_pct": round(goodput_rps / capacity_rps, 3)
            if capacity_rps else None,
            "completed": len(completed),
            "shed": shed,
            "rejected": rejected,
            "shed_rate": round((shed + rejected) / n, 3),
            "p50_ms": round(float(np.percentile(lat, 50)) * 1e3, 3),
            "p99_ms": round(float(np.percentile(lat, 99)) * 1e3, 3),
            "late_completions": int(sum(
                1 for v in latencies if v > preset.deadline_s)),
            "min_goodput_pct": preset.min_goodput_pct if gate else None,
            "exact": True,
        })
    return entries
