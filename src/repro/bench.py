"""JSON wall-clock benchmark harness (``python -m repro bench``).

Runs a fixed suite of CPU cases through the PolyHankel execution engine.
Each :class:`BenchCase` names its op (conv1d, conv2d, conv3d or
conv_transpose2d), its input and weight shapes and its parameters, and
one runner, :func:`run_case`, records per case:

- ``first_call_ms``  — cold call: plan construction + weight transform;
- ``uncached_ms``    — steady state through the plan with a per-call
  weight transform (forward ops);
- ``cached_ms``      — steady state with the spectrum cache enabled;
- ``layer_cached_ms``— steady state through the op's layer class;
- ``workers_ms``     — cached steady state with batch thread-chunking
  (forward ops);
- ``cache_speedup``  — ``uncached_ms / cached_ms``.

Every case is first verified against the naive reference.  Each case
additionally records deterministic runtime counter totals (FFT
invocations and row-transforms of one cached steady-state call, measured
through :mod:`repro.observe`), which must equal the closed-form
prediction, so regressions that add work to the hot path are caught even
when the machine hides them.  Schema 3 adds
``guard_fallbacks``: the ``guard.fallback`` count of one guard-enabled
steady-state call, which must stay 0 on a healthy install — a nonzero
value means the supervised chain had to route around the primary
algorithm, i.e. the engine is silently degraded.

``--inject`` switches the harness from timing to a recovery drill: every
suite case runs guard-enabled under each fault kind of
:mod:`repro.guard.faults` and must still reproduce the naive reference;
the exit code reports any case the chain failed to recover.

Beside ``results`` the report carries the ``serve``, ``cluster``,
``overload`` and ``selection`` sections.  Each is one :class:`Section`
of :data:`SECTIONS`, which declares its runner, its gated metrics and
its table once.  Results are written as ``BENCH_<date>.json``, and
``--check BASELINE.json`` turns the diff against a committed baseline
into a noise-aware CI gate (see :mod:`repro.observe.regression`):
flagged entries are re-measured once with doubled repeats before the
verdict, and a nonzero exit reports a genuine regression.  End-to-end
numbers (whole networks, a training step, Poisson serving) are the
``perfbench`` benchmark's; this harness owns the per-case counters and
floors.
"""

from __future__ import annotations

import argparse
import contextlib
import datetime
import json
import os
import platform
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.observe.regression import Metric, entry_value
from repro.serve.loadgen import (
    CLUSTER_PRESETS,
    OVERLOAD_PRESETS,
    RequestPreset,
    run_cluster_case,
    run_overload_case,
)

# v2 added per-case deterministic FFT counters; v3 guard_fallbacks; v4 the
# resolved spectrum layout, packed by_kind counters (the interleaved layout
# runs complex fft/ifft instead of rfft/irfft) and roofline_pct; v5 the
# N-dimensional operator presets (conv1d/conv3d/conv_transpose2d rows in
# ``results``, gated by the same wall/counter/guard metrics); v6 the
# ``cluster`` section: the Poisson open-loop saturation sweep of the
# multi-process shared-memory tier (served-rps and p50/p99 per worker
# count, with the 2-worker scale-out floor gated where cpu_count >= 2);
# v7 the ``overload`` section: the offered-load sweep (0.5x-3x calibrated
# capacity) of the deadline-propagating, admission-bounded server —
# goodput, shed/reject split and completed-latency tail per multiplier,
# with the goodput-at-2x floor (min_goodput_pct) as the CI contract;
# v8 the ``selection`` section: a seeded, roofline-model-driven replay of
# the online algorithm-selection bandit per drill key — regret vs. the
# modeled oracle (ceiling max_regret_pct travels with the entry) and
# convergence onto the oracle's tie set, deterministic so never
# re-measured; v9 dropped the seed replica's seed_ms/speedup columns
# (their history is in BENCH_2026-08-06.json).  Rows no longer carry the
# v4 ``layout`` field since the engine has one spectrum pipeline; no gate
# reads it, so older baselines still compare.
SCHEMA_VERSION = 9


@dataclass(frozen=True)
class BenchCase:
    """One point of the suite: an op, its input and weight shapes, its
    parameters and the engine options the PolyHankel plan runs with."""

    name: str
    op: str  # "conv1d" | "conv2d" | "conv3d" | "conv_transpose2d"
    x_shape: tuple
    w_shape: tuple
    padding: int | tuple = 0
    stride: int | tuple = 1
    dilation: int | tuple = 1
    groups: int = 1
    output_padding: int | tuple = 0
    strategy: str = "sum"
    backend: str = "numpy"
    heavy: bool = False  # skipped in --smoke runs

    @property
    def forward(self) -> bool:
        """Whether the op is a forward convolution (not the transposed
        op, which runs the adjoint of one)."""
        return self.op in FORWARD_OPS

    def params(self) -> dict:
        return dict(padding=self.padding, stride=self.stride,
                    dilation=self.dilation, groups=self.groups)

    def options(self) -> dict:
        """The engine options the case sets away from their defaults
        (only those reach a route that may not take the knob)."""
        return {key: value for key, value, default in (
            ("strategy", self.strategy, "sum"),
            ("backend", self.backend, "numpy")) if value != default}

    def conv_shape(self):
        """The problem the engine runs (see
        :func:`repro.baselines.registry.op_shape`)."""
        from repro.baselines.registry import op_shape

        return op_shape(self.op, self.x_shape, self.w_shape,
                        output_padding=self.output_padding, **self.params())

    def tensors(self) -> tuple[np.ndarray, np.ndarray]:
        """The case's seeded ``(x, w)``."""
        rng = np.random.default_rng(0)
        return (rng.standard_normal(self.x_shape),
                rng.standard_normal(self.w_shape))

    def layout(self) -> dict:
        """The ``shape`` record of the case's report rows."""
        return {"x": list(self.x_shape), "w": list(self.w_shape),
                **self.params(), "output_padding": self.output_padding}


#: The ops the engine's PolyHankel entry runs itself.
FORWARD_OPS = ("conv1d", "conv2d", "conv3d")

SUITE: tuple[BenchCase, ...] = (
    BenchCase("conv64_sum_numpy", "conv2d", (4, 3, 64, 64), (8, 3, 5, 5),
              padding=2),
    BenchCase("conv16_sum_numpy", "conv2d", (4, 3, 16, 16), (8, 3, 3, 3),
              padding=1),
    BenchCase("conv16_merge_numpy", "conv2d", (4, 3, 16, 16), (8, 3, 3, 3),
              padding=1, strategy="merge"),
    BenchCase("conv32_sum_numpy_c16", "conv2d", (4, 16, 32, 32),
              (16, 16, 3, 3), padding=1, heavy=True),
    BenchCase("conv16_sum_builtin", "conv2d", (4, 3, 16, 16), (8, 3, 3, 3),
              padding=1, backend="builtin"),
    BenchCase("conv64_sum_builtin", "conv2d", (4, 3, 64, 64), (8, 3, 5, 5),
              padding=2, backend="builtin", heavy=True),
    # ResNet-style strided stage: the 3x3/s=2 downsampling convolution.
    BenchCase("resnet_stage_s2", "conv2d", (4, 8, 32, 32), (16, 8, 3, 3),
              padding=1, stride=2),
    # MobileNet-style depthwise layer: groups == channels.
    BenchCase("mobilenet_depthwise", "conv2d", (4, 16, 32, 32),
              (16, 1, 3, 3), padding=1, groups=16),
    # Dilated (atrous) context layer, DeepLab-style.
    BenchCase("dilated_d2", "conv2d", (4, 8, 32, 32), (8, 8, 3, 3),
              padding=2, dilation=2, heavy=True),
    # Audio-style temporal convolution through the rank-1 plan.
    BenchCase("audio_1d", "conv1d", (4, 8, 256), (16, 8, 9), padding=4),
    # Tiny video stack through the rank-3 plan.
    BenchCase("video_3d_tiny", "conv3d", (2, 4, 8, 12, 12), (8, 4, 3, 3, 3),
              padding=1),
    # Decoder upsampling stage: stride-2 transposed convolution, run as
    # the adjoint of a forward conv.
    BenchCase("decoder_tconv", "conv_transpose2d", (2, 8, 12, 12),
              (8, 4, 4, 4), padding=1, stride=2),
)


@dataclass(frozen=True)
class ServePreset(RequestPreset):
    """One serving-throughput scenario (``repro serve-bench``).

    Measures requests/sec of a burst of *requests* independent
    ``submit``s through a :class:`~repro.serve.ConvServer` against the
    same burst as a sequential ``conv2d`` loop — the workload dynamic
    batching exists for.  ``min_speedup`` is the sustained floor the
    regression gate enforces (None records without gating).
    """

    groups: int = 1
    max_batch: int = 8
    max_wait_ms: float = 5.0
    workers: int = 1
    min_speedup: float | None = None


SERVE_PRESETS: tuple[ServePreset, ...] = (
    # Small per-request work is exactly where coalescing pays: the
    # per-call fixed cost (validation, dispatch, plan/spectrum lookups,
    # FFT call overhead) dominates single-image latency, and one stacked
    # batch-8 call amortizes it 8 ways.  The >= 2x floor is sustained
    # throughput, gated by `repro bench --check`.
    ServePreset("serve_batch8", size=8, kernel=3, channels=3, filters=8,
                padding=1, requests=48, max_batch=8, min_speedup=2.0),
    # Compute-bound shape: per-row FFT/einsum work dwarfs the fixed cost,
    # so coalescing buys little — recorded ungated as the honest contrast.
    ServePreset("serve_batch8_c16", size=16, kernel=3, channels=16,
                filters=16, padding=1, requests=24, heavy=True),
    # Oversized requests (batch 16 > max_batch 8) bypass the queue and
    # shard across the worker pool along batch and group axes.
    ServePreset("serve_shard_oversized", size=16, kernel=3, channels=8,
                filters=8, padding=1, requests=6, request_batch=16,
                groups=2, workers=2, heavy=True),
)


def run_serve_case(preset: ServePreset, repeats: int = 5) -> dict:
    """Sequential-loop vs served-burst throughput for one preset.

    Every served result is compared bit-exactly (``np.array_equal``)
    against the sequential reference — a throughput win that changed the
    numbers would be a correctness bug, so parity failure raises.
    """
    from repro.nn import functional as F
    from repro.observe.registry import counters as _counters
    from repro.serve import ConvServer

    weight, bias, xs = preset.make_requests(preset.groups)

    def sequential():
        return [F.conv2d(x, weight, bias, padding=preset.padding,
                         groups=preset.groups) for x in xs]

    refs = sequential()  # warm plan/spectrum caches + reference outputs
    seq_s = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        sequential()
        seq_s = min(seq_s, time.perf_counter() - start)

    with ConvServer(max_batch=preset.max_batch,
                    max_wait_ms=preset.max_wait_ms,
                    workers=preset.workers) as server:
        server.conv2d(xs[0], weight, bias, padding=preset.padding,
                      groups=preset.groups, timeout=30)
        served_s = float("inf")
        for _ in range(repeats):
            _counters.clear("serve.")
            start = time.perf_counter()
            futures = [server.submit(x, weight, bias,
                                     padding=preset.padding,
                                     groups=preset.groups) for x in xs]
            outs = [future.result(30) for future in futures]
            served_s = min(served_s, time.perf_counter() - start)
        snapshot = {
            "requests": int(_counters.total("serve.requests")),
            "batches": int(_counters.total("serve.batches")),
            "coalesced": int(_counters.total("serve.coalesced")),
            "shards": int(_counters.total("serve.shards")),
            "batch_rows": int(_counters.total("serve.batch_size")),
            "queue_wait_ms": round(
                _counters.total("serve.queue_wait_ms"), 3),
        }
        _counters.clear("serve.")

    for out, ref in zip(outs, refs):
        if not np.array_equal(out, ref):
            raise AssertionError(
                f"served result diverged from sequential conv2d on "
                f"{preset.name}")

    return {
        "name": preset.name,
        "shape": {"size": preset.size, "kernel": preset.kernel,
                  "channels": preset.channels, "filters": preset.filters,
                  "padding": preset.padding, "groups": preset.groups},
        "requests": preset.requests,
        "request_batch": preset.request_batch,
        "max_batch": preset.max_batch,
        "max_wait_ms": preset.max_wait_ms,
        "workers": preset.workers,
        "sequential_ms": round(seq_s * 1e3, 4),
        "served_ms": round(served_s * 1e3, 4),
        "sequential_rps": round(preset.requests / seq_s, 1),
        "served_rps": round(preset.requests / served_s, 1),
        "speedup": round(seq_s / served_s, 3),
        "min_speedup": preset.min_speedup,
        "exact": True,
        "counters": snapshot,
    }


def _case_problem(case: BenchCase):
    """``(x, w, naive reference output)`` of one suite case."""
    from repro.baselines.naive import convnd_naive
    from repro.baselines.ndops import conv_transpose2d_naive

    x, w = case.tensors()
    if case.forward:
        return x, w, convnd_naive(x, w, **case.params())
    return x, w, conv_transpose2d_naive(
        x, w, output_padding=case.output_padding, **case.params())


def _run_conv(case: BenchCase, x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """One PolyHankel call of *case* through the functional front door
    (the supervised chain while the guard is on)."""
    from repro.nn import functional as F

    return F.run_conv(x, w, None, **case.params(), algorithm="polyhankel",
                      op=case.op, output_padding=case.output_padding,
                      **case.options())


def _first_call_ms(name: str, call, want: np.ndarray) -> float:
    """Wall ms of a cold *call* (every plan and spectrum cache emptied
    first), whose result must match the naive reference *want*."""
    from repro.core import multichannel as mc

    mc.clear_plan_cache()
    mc.clear_spectrum_cache()
    start = time.perf_counter()
    out = call()
    elapsed_ms = (time.perf_counter() - start) * 1e3
    if not np.allclose(want, out, atol=1e-8):
        raise AssertionError(f"engine diverged from naive on {name}")
    return elapsed_ms


def _case_counters(call, guarded_call) -> dict:
    """Deterministic counters of one steady-state call.

    FFT invocations and row-transforms come from the observe registry;
    ``guard_fallbacks`` counts the fallbacks of one guard-enabled call,
    which on a healthy install is 0 (the primary passes its sentinel), so
    the gate holds it with zero tolerance.
    """
    from repro.guard.chain import reset_guard
    from repro.guard.state import guarded
    from repro.observe import tracing
    from repro.observe.registry import counters, fft_call_totals

    counters.clear("fft.")
    with tracing():
        call()
    totals = fft_call_totals()
    reset_guard()
    with guarded():
        guarded_call()
    fallbacks = int(counters.total("guard.fallback"))
    reset_guard()
    return {
        "fft_calls": sum(v["calls"] for v in totals.values()),
        "fft_rows": sum(v["rows"] for v in totals.values()),
        "by_kind": {kind: v["calls"] for kind, v in sorted(totals.items())},
        "guard_fallbacks": fallbacks,
    }


def _time_interleaved(fns: dict[str, object], repeats: int,
                      rounds: int | None = None,
                      warmup: int = 1) -> dict[str, float]:
    """Best-of ms per function, measured as round-robin *blocks*.

    Each path is timed in consecutive-call blocks (the workload the
    engine targets — repeated same-shape calls — and it keeps the CPU
    caches in their steady state for that path), but blocks for all paths
    alternate across several rounds so background-load drift on a shared
    box cannot bias one path's numbers.  More rounds (of smaller blocks)
    means every path samples more distinct time windows, so bursty
    background load is unlikely to depress one path's floor and not
    another's.
    """
    if rounds is None:
        rounds = max(3, min(12, repeats // 5))
    for fn in fns.values():
        for _ in range(warmup):
            fn()
    best = {name: float("inf") for name in fns}
    per_block = max(1, repeats // rounds)
    for _ in range(rounds):
        for name, fn in fns.items():
            fn()  # re-warm this path's cache lines after the round-robin
            for _ in range(per_block):
                start = time.perf_counter()
                fn()
                best[name] = min(best[name],
                                 time.perf_counter() - start)
    return {name: t * 1e3 for name, t in best.items()}


def _layer(case: BenchCase, w: np.ndarray):
    """The op's own layer class holding *w* (no bias)."""
    from repro.nn import layers

    cls = {"conv1d": layers.Conv1d, "conv2d": layers.Conv2d,
           "conv3d": layers.Conv3d,
           "conv_transpose2d": layers.ConvTranspose2d}[case.op]
    if case.forward:
        layer = cls(case.x_shape[1], w.shape[0], w.shape[2:], bias=False,
                    **case.params())
    else:  # PyTorch's (c_in, c_out / groups, *kernel) weight layout
        layer = cls(case.x_shape[1], w.shape[1] * case.groups, w.shape[2:],
                    bias=False, output_padding=case.output_padding,
                    **case.params())
    layer.weight = w
    return layer


def run_case(case: BenchCase, repeats: int = 25,
             workers: int | None = 2) -> dict:
    """Measure every engine path for one suite case.

    A forward op is timed through the engine's PolyHankel entry
    (``cached``, and ``workers`` with batch thread-chunking) and through
    its plan with a per-call weight transform (``uncached``); the
    transposed op through :func:`repro.baselines.registry.convolve`, with
    no uncached or workers column.  Numpy-backend cases also time the
    op's layer class.  The measured FFT counters of one cached call must
    equal the closed-form prediction of
    :func:`repro.perfmodel.engine.predict_fft_counters`: a warm call must
    hit its plan and spectrum caches.

    The default 25 repeats give each path a best-of floor sampled over 5
    round-robin blocks; the old default of 5 (best-of-3 in one time
    window each) was thin enough that background-load bursts on a shared
    box routinely inflated a single path's number by 10-20%.  Smoke runs
    still clamp to 2 (see :func:`run_suite`).
    """
    from repro.baselines.registry import convolve
    from repro.core import multichannel as mc
    from repro.core.ndim import convnd_polyhankel
    from repro.perfmodel.engine import predict_fft_counters, roofline_pct

    shape = case.conv_shape()
    x, w, want = _case_problem(case)
    params = case.params()

    if case.forward:
        def call(**kw):
            return convnd_polyhankel(x, w, **params, strategy=case.strategy,
                                     backend=case.backend, **kw)
    else:
        def call():
            return convolve(x, w, op=case.op,
                            output_padding=case.output_padding, **params,
                            **case.options())

    first_call_ms = _first_call_ms(case.name, call, want)

    fns = {}
    if case.forward:
        plan = mc.get_plan(shape, strategy=case.strategy,
                           backend=case.backend)
        # Per-call weight transform, bypassing the spectrum cache.
        fns["uncached"] = lambda: plan.execute(x, plan.transform_weight(w))
    fns["cached"] = call
    if case.forward and workers and case.x_shape[0] > 1:
        fns["workers"] = lambda: call(workers=workers)
    # Layers run the default (numpy) backend, so the layer column is
    # only meaningful for numpy cases.
    if case.backend == "numpy":
        layer = _layer(case, w)
        fns["layer"] = lambda: layer(x)

    ms = {path: round(t, 4) for path, t in
          _time_interleaved(fns, repeats).items()}
    counters = _case_counters(call, lambda: _run_conv(case, x, w))
    predicted = predict_fft_counters(shape, case.strategy)
    got = {k: counters[k] for k in predicted}
    if got != predicted:
        raise AssertionError(
            f"{case.name}: measured FFT counters {got} diverged from "
            f"the closed-form prediction {predicted}")
    # Percent of the CPU roofline lower bound the warm call achieves
    # (schema v4), predicted from the PolyHankel cost model.
    pct = roofline_pct(shape, ms["cached"])
    uncached = ms.get("uncached")

    return {
        "name": case.name,
        "op": case.op,
        "shape": case.layout(),
        "strategy": case.strategy,
        "backend": case.backend,
        "first_call_ms": round(first_call_ms, 4),
        "uncached_ms": uncached,
        "cached_ms": ms["cached"],
        "layer_cached_ms": ms.get("layer"),
        "workers_ms": ms.get("workers"),
        "cache_speedup": round(uncached / ms["cached"], 3)
        if uncached and ms["cached"] else None,
        "roofline_pct": round(pct, 2) if pct is not None else None,
        "predicted_counters": predicted,
        "counters": counters,
    }


#: Environment pins recorded with every report: on CI these are set
#: explicitly (see .github/workflows/ci.yml) so successive runs measure
#: the engine, not whatever thread count the runner woke up with.
ENV_PINS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "REPRO_SERVE_WORKERS")


def env_pins() -> dict[str, str | None]:
    """Current values of the determinism-relevant environment pins."""
    return {name: os.environ.get(name) for name in ENV_PINS}


#: Ceiling on cumulative served regret vs. the roofline oracle over a
#: selection replay — the CI contract each ``selection`` entry carries.
MAX_REGRET_PCT = 5.0


def run_selection_suite(seed: int = 0, requests: int = 300) -> list[dict]:
    """Seeded bandit-convergence replay for the regression gate.

    Drives the online algorithm-selection bandit with synthetic
    observations drawn from the roofline model under seeded noise, one
    entry per drill key (see :mod:`repro.selection.drill`).  The replay
    is deterministic and machine-independent, so entries are never
    re-measured; each carries its own ``max_regret_pct`` ceiling and the
    gate also requires convergence onto the oracle's modeled-cost tie
    set.
    """
    from repro.selection.drill import replay_drill_keys

    _, entries = replay_drill_keys(seed, requests)
    for entry in entries:
        entry.update({
            "name": f"selection/{entry['name']}",
            "seed": seed,
            "requests": requests,
            "max_regret_pct": MAX_REGRET_PCT,
        })
    return entries


@dataclass(frozen=True)
class Section:
    """One section of the report, under the regression gate.

    ``run(repeats, workers, smoke, names)`` measures the section's
    entries: all of them (trimmed when *smoke*), or, when *names* is a
    set, only the named ones — the confirmation re-measure.  *metrics*
    are its gated metrics (kinds: :mod:`repro.observe.regression`),
    *columns* its table as ``(header, entry key, width, format spec)``.
    A *deterministic* section is never re-measured; a section that does
    not set *needs_baseline* gates its floors, ceilings and flags on
    entries the baseline lacks.
    """

    name: str
    run: Callable[..., list[dict]]
    metrics: tuple[Metric, ...]
    columns: tuple[tuple[str, str, int, str], ...]
    deterministic: bool = False
    needs_baseline: bool = True


def _wanted(item, smoke: bool, names: set[str] | None) -> bool:
    if names is not None:
        return item.name in names
    return not (smoke and item.heavy)


def _sweeps(presets, axis: str, tag: str, smoke_keeps, smoke: bool,
            names: set[str] | None):
    """``(preset, values)`` of each sweep to run.

    A sweep's points are named ``<preset>_<tag><value>``; with *names*
    only the named points run, otherwise every value of the preset's
    *axis* (those *smoke_keeps* when *smoke*; heavy presets skipped).
    """
    for preset in presets:
        values = getattr(preset, axis)
        if names is not None:
            values = [v for v in values
                      if f"{preset.name}_{tag}{v:g}" in names]
        elif smoke:
            values = [] if preset.heavy \
                else [v for v in values if smoke_keeps(preset, v)]
        if values:
            yield preset, tuple(values)


def _run_results(repeats, workers, smoke, names):
    return [run_case(c, repeats=repeats, workers=workers)
            for c in SUITE if _wanted(c, smoke, names)]


def _run_serve(repeats, workers, smoke, names):
    # Serve presets cost milliseconds per repeat, so even smoke runs
    # afford a deeper best-of floor — and the throughput gate is a floor
    # contract, which thin sampling would trip on noise alone.
    return [run_serve_case(p, repeats=max(repeats, 5))
            for p in SERVE_PRESETS if _wanted(p, smoke, names)]


def _run_cluster(repeats, workers, smoke, names):
    # Smoke keeps the two points the scale-out floor is defined over
    # (each point spawns real worker processes); the 1-worker point
    # always runs, since scale-out divides by this run's figure.
    entries = []
    for preset, counts in _sweeps(CLUSTER_PRESETS, "worker_counts", "w",
                                  lambda p, w: w <= 2, smoke, names):
        entries += run_cluster_case(preset, repeats=min(repeats, 3),
                                    worker_counts=tuple(sorted({1, *counts})))
    return entries


def _run_overload(repeats, workers, smoke, names):
    # Smoke keeps the gate point plus the 1x reference.
    entries = []
    for preset, mults in _sweeps(
            OVERLOAD_PRESETS, "multipliers", "x",
            lambda p, m: m in (1.0, p.gate_multiplier), smoke, names):
        entries += run_overload_case(preset, multipliers=mults)
    return entries


SECTIONS: dict[str, Section] = {s.name: s for s in (
    Section("results", _run_results, (
        Metric("cached_ms", "wall"),
        Metric("uncached_ms", "wall"),
        Metric("counters.fft_calls", "counter"),
        Metric("counters.fft_rows", "counter"),
        Metric("counters.guard_fallbacks", "counter", exact=True),
    ), (("case", "name", 24, "s"),
        ("first", "first_call_ms", 9, ".3f"),
        ("uncached", "uncached_ms", 9, ".3f"),
        ("cached", "cached_ms", 9, ".3f"),
        ("layer", "layer_cached_ms", 9, ".3f"),
        ("workers", "workers_ms", 9, ".3f"),
        ("cache x", "cache_speedup", 8, ".2f"),
        ("roofline%", "roofline_pct", 9, ".1f"))),
    Section("serve", _run_serve, (
        Metric("speedup", "floor", bound="min_speedup"),
        Metric("served_rps", "rate"),
    ), (("preset", "name", 24, "s"), ("seq rps", "sequential_rps", 9, ".0f"),
        ("served", "served_rps", 9, ".0f"), ("speedup", "speedup", 8, ".2f"),
        ("floor", "min_speedup", 6, ".1f"),
        ("batches", "counters.batches", 8, ""),
        ("shards", "counters.shards", 7, ""),
        ("wait ms", "counters.queue_wait_ms", 8, ".2f"))),
    Section("cluster", _run_cluster, (
        Metric("scaleout_vs_1", "floor", bound="min_scaleout", gate="gated"),
        Metric("served_rps", "rate"),
    ), (("point", "name", 24, "s"), ("workers", "workers", 7, ""),
        ("offered", "offered_rps", 9, ".0f"),
        ("served", "served_rps", 9, ".0f"), ("p50 ms", "p50_ms", 8, ".2f"),
        ("p99 ms", "p99_ms", 8, ".2f"),
        ("scaleout", "scaleout_vs_1", 9, ".2f"), ("gated", "gated", 6, ""))),
    Section("overload", _run_overload, (
        Metric("goodput_pct", "floor", bound="min_goodput_pct"),
        Metric("goodput_rps", "rate"),
        Metric("late_completions", "ceiling", bound=0),
    ), (("point", "name", 22, "s"), ("offered", "offered_rps", 9, ".0f"),
        ("goodput", "goodput_rps", 9, ".0f"), ("pct", "goodput_pct", 6, ".0%"),
        ("done", "completed", 5, ""), ("shed", "shed", 5, ""),
        ("rej", "rejected", 5, ""), ("p50 ms", "p50_ms", 8, ".2f"),
        ("p99 ms", "p99_ms", 8, ".2f"),
        ("floor", "min_goodput_pct", 6, ".0%")), needs_baseline=False),
    Section("selection", lambda repeats, workers, smoke, names: (
        run_selection_suite(requests=100 if smoke else 300)), (
        Metric("regret_pct", "ceiling", bound="max_regret_pct"),
        Metric("oracle_hit", "flag"),
    ), (("key", "name", 28, "s"), ("oracle", "oracle", 16, "s"),
        ("chosen", "chosen", 16, "s"), ("regret%", "regret_pct", 8, ".2f"),
        ("ceil%", "max_regret_pct", 6, ".1f"),
        ("explored", "explored", 8, ""), ("converged", "converged", 9, "")),
        deterministic=True, needs_baseline=False),
)}


def run_suite(smoke: bool = False, repeats: int = 25,
              workers: int | None = 2) -> dict:
    """Run every section; ``smoke=True`` trims repeats and heavy cases."""
    from repro.core.multichannel import plan_cache_info, spectrum_cache_info
    from repro.fft.plan import fft_plan_cache_info

    if smoke:
        repeats = min(repeats, 2)
    report = {
        "schema": SCHEMA_VERSION,
        "date": datetime.date.today().isoformat(),
        "smoke": smoke,
        "repeats": repeats,
        "workers": workers,
        "host": {
            "platform": platform.platform(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "cpu_count": os.cpu_count(),
            "env_pins": env_pins(),
        },
    }
    for section in SECTIONS.values():
        report[section.name] = section.run(repeats, workers, smoke, None)
    report["caches"] = {
        "plan": plan_cache_info()._asdict(),
        "spectrum": spectrum_cache_info()._asdict(),
        "fft_plan": fft_plan_cache_info()._asdict(),
    }
    return report


def format_table(entries: list[dict], columns: tuple) -> str:
    """One row per entry under *columns* ``(header, entry key, width,
    format spec)``: string (``"s"``) columns left-aligned, the rest
    right-aligned, None shown as ``-`` and booleans as yes/no."""
    def cell(value, spec: str) -> str:
        if value is None:
            return "-"
        if isinstance(value, bool):
            return "yes" if value else "no"
        return format(value, spec)

    def line(cells: list[str]) -> str:
        return " ".join(text.ljust(width) if spec == "s"
                        else text.rjust(width)
                        for text, (_, _, width, spec) in zip(cells, columns))

    rows = [line([header for header, *_ in columns])]
    rows += [line([cell(entry_value(entry, key), spec)
                   for _, key, _, spec in columns]) for entry in entries]
    return "\n".join(rows)


def format_section(name: str, entries: list[dict]) -> str:
    """Human-readable table of one report section's entries."""
    return format_table(entries, SECTIONS[name].columns)


def format_report(report: dict) -> str:
    """Human-readable tables for one :func:`run_suite` report."""
    lines = [f"bench {report['date']}  (repeats={report['repeats']}, "
             f"smoke={report['smoke']})"]
    for name in SECTIONS:
        if report.get(name):
            lines += ["", format_section(name, report[name])]
    return "\n".join(lines)


def run_inject_drill(kinds: tuple[str, ...] | None = None,
                     smoke: bool = False, seed: int = 0) -> dict:
    """Guard recovery drill: every case, under every fault kind.

    Each suite case (every op) runs one guard-enabled forward inside a
    :func:`repro.guard.faults.inject` scope and must still reproduce the
    naive reference within tolerance.  Returns a report with one row per
    (case, fault) pair; ``report["failures"]`` counts rows that either
    exhausted the chain or produced a wrong answer.
    """
    from repro.guard import faults
    from repro.guard.chain import reset_guard
    from repro.guard.state import guarded
    from repro.observe.registry import counters as _counters

    if not kinds:
        # Engine kinds only: the cluster kinds have no hook sites inside
        # a single-process forward (drill them with --inject-cluster).
        kinds = faults.ENGINE_FAULT_KINDS
    cases = [c for c in SUITE if not (smoke and c.heavy)]
    rows = []
    for case in cases:
        x, w, ref = _case_problem(case)
        tol = 1e-8 * max(float(np.max(np.abs(ref))), 1.0)
        for kind in kinds:
            reset_guard()
            error = None
            err = float("inf")
            # Injected NaN/Inf legitimately flow through the arithmetic
            # before the sentinel catches them; silence the noise.
            with guarded(), faults.inject(kind, seed=seed) as state, \
                    np.errstate(invalid="ignore", over="ignore"):
                try:
                    out = _run_conv(case, x, w)
                    err = float(np.max(np.abs(out - ref)))
                except Exception as exc:
                    error = f"{type(exc).__name__}: {exc}"
            rows.append({
                "case": case.name,
                "fault": kind,
                "recovered": error is None and err <= tol,
                "max_err": None if error is not None else err,
                "error": error,
                "injected": int(state.counts.get(kind, 0)),
                "fallbacks": int(_counters.total("guard.fallback")),
                "sentinel_trips": int(_counters.total("guard.sentinel_trip")),
                "cache_corrupt": int(_counters.total("guard.cache_corrupt")),
            })
    reset_guard()
    return {
        "schema": SCHEMA_VERSION,
        "kinds": list(kinds),
        "seed": seed,
        "rows": rows,
        "failures": sum(1 for r in rows if not r["recovered"]),
    }


def _format_drill(report: dict, title: str, columns: tuple,
                  unit: str) -> str:
    """A drill report: its row table, each row's error, the verdict."""
    rows = report["rows"]
    lines = [f"{title} (kinds={','.join(report['kinds'])}, "
             f"seed={report['seed']})", format_table(rows, columns)]
    lines += [f"  {r.get('case', 'cluster')}/{r['fault']}: {r['error']}"
              for r in rows if r["error"] is not None]
    lines.append(f"drill passed: every {unit} recovered"
                 if not report["failures"] else
                 f"drill FAILED: {report['failures']} unrecovered {unit}(s)")
    return "\n".join(lines)


def format_inject_report(report: dict) -> str:
    """Human-readable table for one :func:`run_inject_drill` report."""
    return _format_drill(report, "fault-injection drill", (
        ("case", "case", 24, "s"), ("fault", "fault", 20, "s"),
        ("recovered", "recovered", 9, ""), ("max err", "max_err", 10, ".2e"),
        ("inj", "injected", 4, ""), ("fb", "fallbacks", 4, ""),
        ("trip", "sentinel_trips", 5, ""),
        ("corrupt", "cache_corrupt", 8, "")), "call")


def run_cluster_inject_drill(kinds: tuple[str, ...] | None = None,
                             seed: int = 0, requests: int = 12) -> dict:
    """Cluster chaos drill: each fault kind against a live 2-worker tier.

    For every kind in :data:`repro.guard.faults.CLUSTER_FAULT_KINDS` the
    drill spins up a real :class:`~repro.serve.router.ClusterServer`
    (fast watchdog/backoff settings), arms the fault at its genuine hook
    site — inside the worker process for ``worker_stall`` /
    ``slow_worker`` / ``response_drop``, in the router's slot release
    for ``slot_leak`` — offers *requests* convolutions, and asserts the
    recovery contract: every future resolves exactly once (zero lost,
    zero duplicated), every delivered result is bit-exact with the
    in-process engine, and the round completes within a bounded wall
    time.  Row counters record the observable evidence (stalls drawn,
    respawns, worker sheds, leaked slots).
    """
    from repro.guard import faults
    from repro.nn import functional as F
    from repro.observe.registry import counters as _counters
    from repro.serve.overload import ServeConfig
    from repro.serve.router import ClusterServer

    if not kinds:
        kinds = faults.CLUSTER_FAULT_KINDS
    unknown = set(kinds) - set(faults.CLUSTER_FAULT_KINDS)
    if unknown:
        raise ValueError(
            f"unknown cluster fault kind(s) {sorted(unknown)}; "
            f"known: {list(faults.CLUSTER_FAULT_KINDS)}")
    rng = np.random.default_rng(seed)
    weight = rng.standard_normal((8, 3, 3, 3))
    bias = rng.standard_normal(8)
    xs = [rng.standard_normal((1, 3, 8, 8)) for _ in range(requests)]
    refs = [F.conv2d(x, weight, bias, padding=1) for x in xs]
    config = ServeConfig(watchdog_interval_s=0.2, stall_timeout_s=0.5,
                         backoff_base_s=0.01)
    evidence_counters = ("serve.cluster.stalls", "serve.cluster.respawns",
                        "serve.cluster.worker_sheds",
                        "serve.cluster.slot_leaks")
    rows = []
    for kind in kinds:
        before = {name: _counters.total(name)
                  for name in evidence_counters}
        error = None
        exact = 0
        t0 = time.perf_counter()
        with ClusterServer(workers=2, slots=16, slot_bytes=1 << 18,
                           config=config) as server:
            # Warm both replicas' caches before arming anything.
            for _ in range(4):
                server.conv2d(xs[0], weight, bias, padding=1, timeout=60)
            try:
                if kind == "slot_leak":
                    # Router-side hook: scope the injection around the
                    # offered load like any engine drill.
                    scope = faults.inject(kind, seed=seed, max_fires=1)
                else:
                    # Worker-side hooks, armed over the control pipe.
                    # Stall/drop only on replica 0 (replica 1 must
                    # survive to absorb the reroute: simultaneous loss
                    # of every replica is a cluster outage, not a
                    # recoverable fault); the benign slowdown goes
                    # everywhere.
                    params = {"worker_stall": {"stall_s": 30.0},
                              "slow_worker": {"delay_s": 0.02},
                              "response_drop": {}}[kind]
                    targets = None if kind == "slow_worker" else [0]
                    max_fires = None if kind == "slow_worker" else 1
                    acked = server.inject_worker_faults(
                        kind, replica_ids=targets, seed=seed,
                        max_fires=max_fires, params=params)
                    if not acked:
                        raise RuntimeError(
                            f"no replica acknowledged arming {kind}")
                    scope = contextlib.nullcontext()
                with scope:
                    futures = [server.submit(x, weight, bias, padding=1)
                               for x in xs]
                    outs = [f.result(120) for f in futures]
                exact = sum(np.array_equal(out, ref)
                            for out, ref in zip(outs, refs))
                if exact != requests:
                    error = (f"{requests - exact} result(s) diverged "
                             f"from the in-process engine")
            except Exception as exc:  # noqa: BLE001 - drill verdict
                error = f"{type(exc).__name__}: {exc}"
        recovery_s = time.perf_counter() - t0
        evidence = {name.rsplit(".", 1)[-1]:
                    int(_counters.total(name) - before[name])
                    for name in evidence_counters}
        rows.append({
            "fault": kind,
            "requests": requests,
            "recovered": error is None,
            "exact": exact,
            "recovery_s": round(recovery_s, 3),
            "error": error,
            **evidence,
        })
    return {
        "schema": SCHEMA_VERSION,
        "kinds": list(kinds),
        "seed": seed,
        "rows": rows,
        "failures": sum(1 for r in rows if not r["recovered"]),
    }


def format_cluster_inject_report(report: dict) -> str:
    """Human-readable table for one cluster chaos drill report."""
    return _format_drill(report, "cluster chaos drill", (
        ("fault", "fault", 16, "s"), ("recovered", "recovered", 9, ""),
        ("exact", "exact", 6, ""), ("time s", "recovery_s", 7, ".2f"),
        ("stalls", "stalls", 7, ""), ("respawns", "respawns", 9, ""),
        ("sheds", "worker_sheds", 6, ""), ("leaks", "slot_leaks", 6, "")),
        "fault")


def write_report(report: dict, path: str | None = None) -> str:
    """Serialize *report* to *path* (default ``BENCH_<date>.json``)."""
    if path is None:
        path = f"BENCH_{report['date']}.json"
    with open(path, "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    return path


def _remeasure(report: dict, regressions: list, repeats: int,
              workers: int | None) -> None:
    """Confirmation pass: re-run every entry with a flagged measured-time
    metric (wall, rate or floor) once at *repeats*, and keep for each
    flagged metric the better of its two values.  A transient
    background-load spike during the first pass then cannot fail the
    gate; a real regression reproduces."""
    flagged = {}
    for r in regressions:
        if r.kind in ("wall", "throughput"):
            flagged.setdefault(r.case, set()).add(r.metric)
    if flagged:
        print(f"[re-measuring {len(flagged)} flagged case(s) with "
              f"{repeats} repeats]")
    for section in SECTIONS.values():
        entries = {e["name"]: e for e in report.get(section.name, [])
                   if e["name"] in flagged}
        if not entries or section.deterministic:
            continue
        for new in section.run(repeats, workers, False, set(entries)):
            entry = entries.get(new["name"])
            for m in section.metrics:
                if entry is not None and m.name in flagged[entry["name"]]:
                    pick = min if m.kind == "wall" else max
                    entry[m.key] = pick(v for v in (entry[m.key],
                                                    new.get(m.key))
                                        if v is not None)


def run_check(report: dict, baseline_path: str, tolerance: float,
              counter_tolerance: float, repeats: int,
              workers: int | None) -> int:
    """Gate *report* against the baseline at *baseline_path* (0 == pass)."""
    from repro.observe.regression import (
        compare_reports, format_check, load_baseline,
    )

    baseline = load_baseline(baseline_path)
    regressions = compare_reports(report, baseline, tolerance=tolerance,
                                  counter_tolerance=counter_tolerance)
    if regressions:
        _remeasure(report, regressions, 2 * repeats, workers)
        regressions = compare_reports(report, baseline, tolerance=tolerance,
                                      counter_tolerance=counter_tolerance)
    print(format_check(regressions, baseline_path, tolerance,
                       counter_tolerance))
    return 1 if regressions else 0


def add_arguments(parser: argparse.ArgumentParser) -> None:
    """The ``repro bench`` options (also mounted by :mod:`repro.cli`)."""
    from repro.observe.regression import (
        DEFAULT_COUNTER_TOLERANCE, DEFAULT_TOLERANCE,
    )

    parser.add_argument("--smoke", action="store_true",
                        help="fast subset (CI-friendly)")
    parser.add_argument("--quick", action="store_true",
                        help="alias for --smoke (the CI gate's spelling)")
    parser.add_argument("--repeats", type=int, default=25)
    parser.add_argument("--workers", type=int, default=2,
                        help="thread count for the workers column")
    parser.add_argument("--out", default=None,
                        help="output JSON path (default BENCH_<date>.json)")
    parser.add_argument("--no-json", action="store_true",
                        help="print the table only")
    parser.add_argument("--check", metavar="BASELINE",
                        help="compare against a baseline JSON and exit "
                             "nonzero on regression")
    parser.add_argument("--tolerance", type=float,
                        default=DEFAULT_TOLERANCE,
                        help="allowed wall-clock growth as a fraction "
                             f"(default {DEFAULT_TOLERANCE:g})")
    parser.add_argument("--counter-tolerance", type=float,
                        default=DEFAULT_COUNTER_TOLERANCE,
                        help="allowed counter-total growth as a fraction "
                             f"(default {DEFAULT_COUNTER_TOLERANCE:g})")
    parser.add_argument("--inject", nargs="*", metavar="FAULT",
                        default=None,
                        help="run the guard recovery drill instead of the "
                             "timing suite; optional fault kinds to inject "
                             "(default: all engine kinds)")
    parser.add_argument("--inject-cluster", nargs="*", metavar="FAULT",
                        default=None,
                        help="run the cluster chaos drill instead of the "
                             "timing suite; optional fault kinds "
                             "(default: all cluster kinds)")
    parser.add_argument("--seed", type=int, default=0,
                        help="fault-injection seed (with --inject / "
                             "--inject-cluster)")


def run(args: argparse.Namespace) -> int:
    """Execute parsed ``repro bench`` options (see :func:`add_arguments`)."""
    smoke = args.smoke or args.quick

    if args.inject is not None:
        drill = run_inject_drill(kinds=tuple(args.inject) or None,
                                 smoke=smoke, seed=args.seed)
        print(format_inject_report(drill))
        return 1 if drill["failures"] else 0

    if args.inject_cluster is not None:
        drill = run_cluster_inject_drill(
            kinds=tuple(args.inject_cluster) or None, seed=args.seed)
        print(format_cluster_inject_report(drill))
        return 1 if drill["failures"] else 0

    report = run_suite(smoke=smoke, repeats=args.repeats,
                       workers=args.workers)
    print(format_report(report))
    if not args.no_json:
        path = write_report(report, args.out)
        print(f"[written to {path}]")
    if args.check:
        return run_check(report, args.check, tolerance=args.tolerance,
                         counter_tolerance=args.counter_tolerance,
                         repeats=max(args.repeats, 2),
                         workers=args.workers)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro bench",
        description="PolyHankel execution-engine wall-clock benchmarks")
    add_arguments(parser)
    return run(parser.parse_args(argv))


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
