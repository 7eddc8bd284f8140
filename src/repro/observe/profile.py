"""Measured-vs-model stage profiles (``python -m repro profile``).

This is the repo's version of the paper's Fig. 7 methodology: the analytic
cost model (:mod:`repro.perfmodel.counters`) predicts per-stage FLOPs and
DRAM bytes; this module *measures* the same stages with trace spans and
joins the two, flagging stages whose measured share of the runtime drifts
from the model's predicted share.

Drift is deliberately a **share ratio**, not an absolute-time ratio: the
model targets GPUs while the engine runs on a CPU, so absolute predictions
are meaningless here, but the *distribution* of time across stages should
agree if the model captures the algorithm.  For each stage::

    drift = (measured_ms / sum measured) / (predicted_ms / sum predicted)

with the predicted per-stage time taken from a CPU roofline proxy
``max(flops / PEAK_FLOPS, bytes / PEAK_BW)``.  A stage is flagged when its
drift leaves ``[1/threshold, threshold]``.  One-shot stages (the weight
transform, amortized away by the spectrum cache) are reported but excluded
from the share normalization.
"""

from __future__ import annotations

import json
import time

from repro.observe import aggregate_spans, clear_trace, get_trace, tracing
from repro.observe.registry import counters, fft_call_totals

# CPU roofline proxy peaks, shared with the bench's roofline_pct column
# (re-exported here for callers that import them from this module).
from repro.perfmodel.device import CPU_PEAK_BW, CPU_PEAK_FLOPS  # noqa: F401

DEFAULT_DRIFT_THRESHOLD = 5.0

#: Maps each cost-model stage to the trace spans that implement it, per
#: algorithm.  ``amortized`` marks stages that do not run on the cached
#: steady-state call (measured once, excluded from drift normalization).
STAGE_MAP = {
    "polyhankel": (
        ("input_block_ffts", ("stage.pad", "stage.input_fft"), False),
        ("kernel_ffts", ("weight.transform",), True),
        ("pointwise_channel_sum", ("stage.pointwise",), False),
        ("ifft_blocks_gather", ("stage.inverse_fft", "stage.gather"), False),
    ),
    "gemm": (
        ("im2col", ("stage.im2col",), False),
        ("gemm", ("stage.gemm",), False),
    ),
}


def _runner(case, algorithm: str, shape, x, w):
    """Steady-state callable + one-shot weight-transform callable."""
    if algorithm == "polyhankel":
        from repro.core import multichannel as mc

        plan = mc.get_plan(shape, strategy=case.strategy,
                           backend=case.backend)
        w_hat = plan.transform_weight(w)
        return (lambda: plan.execute(x, w_hat, check=False),
                lambda: plan.transform_weight(w))
    if algorithm == "gemm":
        from repro.baselines.im2col_gemm import convnd_im2col_gemm

        return lambda: convnd_im2col_gemm(x, w, **case.params()), None
    raise ValueError(
        f"profile supports algorithms {sorted(STAGE_MAP)}, "
        f"got {algorithm!r}"
    )


def profile_case(case, algorithm: str = "polyhankel", repeats: int = 10,
                 warmup: int = 2,
                 drift_threshold: float = DEFAULT_DRIFT_THRESHOLD) -> dict:
    """Measure one bench case's stages under *algorithm* and join them
    with the cost model.

    *case* is a forward-op :class:`repro.bench.BenchCase` (see
    :func:`resolve_preset` and :func:`case_for_shape`).
    """
    from repro.bench import FORWARD_OPS
    from repro.perfmodel.counters import count

    if not case.forward:
        raise ValueError(
            f"profile runs the forward ops {list(FORWARD_OPS)}; "
            f"{case.name} is {case.op}")
    shape = case.conv_shape()
    x, w = case.tensors()
    call, transform = _runner(case, algorithm, shape, x, w)

    for _ in range(max(warmup, 1)):
        call()

    counters.clear("fft.")
    counters.clear("bytes.")
    with tracing():
        start = time.perf_counter()
        for _ in range(repeats):
            call()
        wall_s = time.perf_counter() - start
        if transform is not None:
            transform()
        spans = get_trace()
    clear_trace()
    measured = aggregate_spans(spans)
    fft_calls = fft_call_totals()

    model_stages = {s.name: s for s in count(algorithm, shape).stages}

    rows = []
    for stage_name, span_names, amortized in STAGE_MAP[algorithm]:
        stage = model_stages[stage_name]
        calls = 1 if amortized else repeats
        # Inclusive totals: a stage span's time should include the nested
        # fft.* backend spans that do its actual work.
        measured_ms = sum(
            measured[name]["total_ms"]
            for name in span_names if name in measured
        )
        predicted_s = max(stage.flops / CPU_PEAK_FLOPS,
                          stage.bytes_moved / CPU_PEAK_BW)
        rows.append({
            "stage": stage_name,
            "spans": list(span_names),
            "amortized": amortized,
            "measured_ms": measured_ms / calls,
            "flops": stage.flops,
            "bytes_moved": stage.bytes_moved,
            "predicted_ms": predicted_s * 1e3,
        })

    norm = [r for r in rows if not r["amortized"]]
    measured_total = sum(r["measured_ms"] for r in norm)
    predicted_total = sum(r["predicted_ms"] for r in norm)
    for row in rows:
        if row["amortized"] or not measured_total or not predicted_total:
            row["measured_share"] = None
            row["predicted_share"] = None
            row["drift"] = None
            row["flagged"] = False
            continue
        row["measured_share"] = row["measured_ms"] / measured_total
        row["predicted_share"] = row["predicted_ms"] / predicted_total
        drift = (row["measured_share"] / row["predicted_share"]
                 if row["predicted_share"] else float("inf"))
        row["drift"] = drift
        row["flagged"] = not (1.0 / drift_threshold
                              <= drift <= drift_threshold)

    call_ms = wall_s * 1e3 / repeats
    # Percent of the CPU roofline lower bound one steady-state call
    # reaches — predicted_total excludes the amortized weight transform,
    # matching what a cached call actually runs.
    roofline_pct = (100.0 * predicted_total / call_ms
                    if call_ms > 0 else None)

    return {
        "name": case.name,
        "op": case.op,
        "algorithm": algorithm,
        "strategy": case.strategy,
        "backend": case.backend,
        "shape": case.layout(),
        "repeats": repeats,
        "call_ms": call_ms,
        "drift_threshold": drift_threshold,
        "stages": rows,
        "measured_total_ms": measured_total,
        "predicted_total_ms": predicted_total,
        "roofline_pct": roofline_pct,
        "fft_calls": {
            kind: {"calls": v["calls"], "rows": v["rows"],
                   "by_n": {str(n): c for n, c in sorted(v["by_n"].items())}}
            for kind, v in fft_calls.items()
        },
        "spans": [
            {"name": s.name, "depth": s.depth, "ms": s.duration_ms,
             "attrs": {k: v for k, v in s.attrs.items()}}
            for s in spans
        ],
    }


def resolve_preset(name: str):
    """A bench-suite case by name."""
    from repro.bench import SUITE

    for case in SUITE:
        if case.name == name:
            return case
    raise ValueError(
        f"unknown preset {name!r}; known: {[c.name for c in SUITE]}"
    )


def case_for_shape(*, size: int = 32, kernel: int = 3, batch: int = 4,
                   channels: int = 3, filters: int = 8, padding=1, stride=1,
                   dilation=1, groups: int = 1, strategy: str = "sum",
                   backend: str = "numpy"):
    """A profileable conv2d case for an ad-hoc shape (the CLI's shape
    flags)."""
    from repro.bench import BenchCase

    return BenchCase("custom", "conv2d", (batch, channels, size, size),
                     (filters, channels // groups, kernel, kernel),
                     padding=padding, stride=stride, dilation=dilation,
                     groups=groups, strategy=strategy, backend=backend)


def format_profile(report: dict) -> str:
    """Human-readable per-stage drift table."""
    roofline = (f", {report['roofline_pct']:.1f}% of roofline"
                if report.get("roofline_pct") is not None else "")
    lines = [
        f"profile {report['name']}  op={report['op']}  "
        f"algo={report['algorithm']}  "
        f"strategy={report['strategy']}  backend={report['backend']}  "
        f"({report['repeats']} calls, {report['call_ms']:.3f} ms/call"
        f"{roofline})",
        f"{'stage':<24} {'measured':>11} {'flops':>12} {'bytes':>12} "
        f"{'m-share':>8} {'p-share':>8} {'drift':>7}",
    ]
    for row in report["stages"]:
        if row["drift"] is None:
            share = f"{'-':>8} {'-':>8} {'-':>7}"
            note = "  (amortized)" if row["amortized"] else ""
        else:
            flag = " !" if row["flagged"] else ""
            share = (f"{100 * row['measured_share']:7.1f}% "
                     f"{100 * row['predicted_share']:7.1f}% "
                     f"{row['drift']:6.2f}x{flag}")
            note = ""
        lines.append(
            f"{row['stage']:<24} {row['measured_ms']:9.4f}ms "
            f"{row['flops']:12.3g} {row['bytes_moved']:12.3g} "
            f"{share}{note}")
    flagged = [r["stage"] for r in report["stages"] if r["flagged"]]
    if flagged:
        lines.append(f"drift flagged (outside 1/{report['drift_threshold']:g}"
                     f"..{report['drift_threshold']:g}x): "
                     + ", ".join(flagged))
    else:
        lines.append("no stage drift flagged")
    if report["fft_calls"]:
        parts = []
        for kind, v in sorted(report["fft_calls"].items()):
            sizes = ", ".join(f"n={n}:{c}" for n, c in v["by_n"].items())
            parts.append(f"{kind}={v['calls']} ({sizes})")
        lines.append("fft invocations: " + "; ".join(parts))
    return "\n".join(lines)


def write_profile(report: dict, path: str) -> str:
    """Serialize *report* (minus the raw span list) to *path* as JSON."""
    slim = {k: v for k, v in report.items() if k != "spans"}
    with open(path, "w") as fh:
        json.dump(slim, fh, indent=2, default=float)
        fh.write("\n")
    return path
