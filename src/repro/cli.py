"""Command-line interface: ``python -m repro <command>``.

Commands:

- ``selftest``   — quick cross-algorithm correctness check;
- ``figures``    — regenerate the paper's figures as text tables;
- ``simulate``   — simulated GPU time for one convolution shape;
- ``select``     — algorithm recommendation (model + rules) for a shape;
- ``tune``       — measure algorithms on this machine for a shape into
  the selection bandit's table (``REPRO_SELECTION_TABLE``);
- ``bench``      — execution-engine wall-clock suite, written as JSON;
  ``--check BASELINE.json`` turns it into the CI regression gate;
  ``--inject`` runs the guard recovery drill instead of the timings,
  ``--inject-cluster`` the cluster chaos drill (watchdog/retry/slots);
- ``serve-bench``— serving-layer throughput presets (dynamic batching
  vs a sequential request loop); ``--list`` shows the presets;
  ``--workers 1 2 4`` runs the cluster saturation sweep instead
  (Poisson open-loop load through the shared-memory tier), and
  ``--check-scaleout 1.5`` turns it into the CI scale-out gate;
  ``--overload`` runs the overload sweep (offered load at multiples of
  calibrated capacity) and ``--check-goodput 0.85`` gates goodput at
  the gate multiplier;
- ``serve-stats``— serving counters of this process (requests, batches,
  coalesce rate, queue wait), plus a per-replica table once a cluster
  has run;
- ``doctor``     — install health report (FFT parity, cache integrity,
  fallback-chain reachability, sentinel, guarded recovery); exits
  nonzero when any check fails;
- ``profile``    — measured per-stage times joined against the analytic
  cost model, with drift flags (``--trace`` prints raw spans);
- ``cache-stats``— the consolidated cache hit/miss table (one registry);
- ``algorithms`` — list the registered algorithms.

``selftest``, ``tune`` and ``bench`` accept ``--cache-stats`` to print the
same consolidated table after the run.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np


def _int_tuple(text: str, lengths: tuple[int, ...], expected: str):
    """Parse ``"2"`` to an int, or ``"2,1"`` to a tuple of *lengths*."""
    try:
        values = [int(p) for p in text.split(",") if p]
    except ValueError:
        values = []
    if len(values) == 1:
        return values[0]
    if len(values) in lengths:
        return tuple(values)
    raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r}")


def _parse_pair(text: str):
    """Parse ``"2"`` or ``"2,1"`` into an int or an ``(h, w)`` pair."""
    return _int_tuple(text, (2,), "an int or 'h,w' pair")


def _parse_padding(text: str):
    """Parse ``"same"``, ``"1"``, ``"1,2"`` or ``"1,1,2,2"``."""
    if text == "same":
        return "same"
    return _int_tuple(text, (2, 4),
                      "'same', an int, 'ph,pw' or 'pt,pb,pl,pr'")


def _shape_from_args(args) -> "ConvShape":
    from repro.utils.shapes import ConvShape

    return ConvShape((args.size, args.size), (args.kernel, args.kernel),
                     n=args.batch, c=args.channels, f=args.filters,
                     padding=args.padding, stride=args.stride,
                     dilation=args.dilation, groups=args.groups)


def _add_shape_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--size", type=int, default=64,
                        help="input height/width (default 64)")
    parser.add_argument("--kernel", type=int, default=3,
                        help="kernel height/width (default 3)")
    parser.add_argument("--batch", type=int, default=8)
    parser.add_argument("--channels", type=int, default=3)
    parser.add_argument("--filters", type=int, default=16)
    parser.add_argument("--padding", type=_parse_padding, default=1,
                        help="'same', P, 'ph,pw' or 'pt,pb,pl,pr' "
                             "(default 1)")
    parser.add_argument("--stride", type=_parse_pair, default=1,
                        help="S or 'sh,sw' (default 1)")
    parser.add_argument("--dilation", type=_parse_pair, default=1,
                        help="D or 'dh,dw' (default 1)")
    parser.add_argument("--groups", type=int, default=1,
                        help="channel groups; set to channels for "
                             "depthwise (default 1)")


def _print_cache_stats() -> None:
    from repro.observe import format_cache_stats

    print("\ncache statistics (unified observe registry):")
    print(format_cache_stats())


def cmd_selftest(args) -> int:
    from repro.baselines.registry import (
        ConvAlgorithm, convolve, list_algorithms, supports,
    )
    from repro.utils.random import random_problem
    from repro.utils.shapes import ConvShape

    shape = ConvShape((12, 11), (3, 3), n=2, c=3, f=4, padding=1)
    x, w = random_problem(shape)
    reference = convolve(x, w, algorithm=ConvAlgorithm.NAIVE, padding=1)
    failures = 0
    for algo in list_algorithms():
        if not supports(algo, shape):
            continue
        out = convolve(x, w, algorithm=algo, padding=1)
        err = float(np.abs(out - reference).max())
        status = "ok" if err < 1e-6 else "FAIL"
        if status == "FAIL":
            failures += 1
        print(f"{algo.value:<24} max|diff| = {err:.2e}  {status}")
    print("selftest", "FAILED" if failures else "passed")
    if getattr(args, "cache_stats", False):
        _print_cache_stats()
    return 1 if failures else 0


def cmd_figures(args) -> int:
    from repro.baselines.registry import ConvAlgorithm
    from repro.experiments import (
        fig3_input_sweep, fig4_kernel_sweep, fig5_channel_sweep,
        fig6_network_sweep, fig7_counters, format_table, summarize,
    )

    which = args.figure
    if which in ("3", "all"):
        for device in args.devices:
            result = fig3_input_sweep(device)
            print(format_table(result))
            print(summarize(result), "\n")
    if which in ("4", "all"):
        for device in args.devices:
            result = fig4_kernel_sweep(device)
            print(format_table(result))
            print(summarize(result), "\n")
    if which in ("5", "all"):
        result = fig5_channel_sweep()
        print(format_table(result))
        print(summarize(result), "\n")
    if which in ("6", "all"):
        for device in args.devices:
            result = fig6_network_sweep(device)
            print(format_table(result))
            avg = result.average_speedup_for(ConvAlgorithm.POLYHANKEL)
            print(summarize(result))
            print(f"avg speedup over next best = {avg:.2f}\n")
    if which in ("7", "all"):
        flops, tx = fig7_counters()
        print(format_table(flops, precision=0), "\n")
        print(format_table(tx, precision=0))
    return 0


def cmd_simulate(args) -> int:
    from repro.perfmodel.timing import simulate

    shape = _shape_from_args(args)
    print(f"shape: {shape}")
    for device in args.devices:
        report = simulate(args.algorithm, shape, device)
        print(f"\n{report.device.name}: {report.total_ms:.4f} ms")
        for stage in report.stage_times:
            print(f"  {stage.stage.name:<26} {stage.total_s * 1e3:8.4f} ms"
                  f"  ({stage.bound}-bound)")
    return 0


def cmd_select(args) -> int:
    from repro.selection import select_algorithm, select_algorithm_rules

    shape = _shape_from_args(args)
    result = select_algorithm(shape, args.devices[0])
    print(f"shape: {shape}")
    print(f"model-driven choice on {result.device}: "
          f"{result.algorithm.value} ({result.predicted_ms:.4f} ms)")
    print(f"rule-based choice: {select_algorithm_rules(shape).value}")
    print("\nfull ranking:")
    for algo, ms in result.ranking:
        print(f"  {algo.value:<24} {ms:10.4f} ms")
    return 0


def cmd_tune(args) -> int:
    from repro.selection.bandit import (
        BanditConfig, SelectionBandit, SelectionTableError,
    )

    shape = _shape_from_args(args)
    bandit = SelectionBandit(BanditConfig.from_env())
    try:
        bandit.warm_start()
    except SelectionTableError as exc:
        print(f"selection table rejected: {exc}")
        return 1
    digest = bandit.tune(shape, args.repeats)
    entry = next(k for k in bandit.stats()["keys"] if k["key"] == digest)
    print(f"measured on this machine for {shape} (mean ms per image):")
    for arm in sorted(entry["arms"], key=lambda a: a["mean_ms"]):
        print(f"  {arm['algorithm']:<24} {arm['mean_ms']:10.3f} ms")
    print(f"best: {entry['best']} (served for key {digest})")
    path = bandit.save()
    if path:
        print(f"selection table written to {path}")
    if getattr(args, "cache_stats", False):
        _print_cache_stats()
    return 0


def cmd_bench(args) -> int:
    from repro import bench

    code = bench.run(args)
    if args.cache_stats:
        _print_cache_stats()
    return code


def _check_floor(label: str, section: str, entries: list[dict],
                 qualifies, floor: float) -> int:
    """Gate the qualifying *entries* on *floor*: the section's own floor
    check (see :mod:`repro.observe.regression`) with the bound replaced
    by *floor* and bound unconditionally.  Exit 2 when no point
    qualifies."""
    from repro.bench import SECTIONS
    from repro.observe.regression import compare_reports

    metric = next(m for m in SECTIONS[section].metrics if m.kind == "floor")
    points = [e for e in entries if qualifies(e)]
    if not points:
        print(f"{label}: no qualifying point in this sweep")
        return 2
    gated = {section: [dict(e, gated=True, **{
        metric.bound: floor if qualifies(e) else None}) for e in entries]}
    regressions = compare_reports(gated, gated)
    for r in regressions:
        print(f"{label} FAILED: {r.case}: {r.metric} {r.current:g} "
              f"(limit {r.limit:g})")
    if not regressions:
        print(f"{label} OK: "
              + ", ".join(f"{e['name']} {e[metric.key]:g}" for e in points)
              + f" (floor {floor:g})")
    return 1 if regressions else 0


def cmd_serve_bench(args) -> int:
    import datetime

    from repro import bench
    from repro.serve import loadgen

    if args.list:
        def show(p, detail: str, floor: str | None) -> None:
            print(f"{p.name:<24} {p.requests}x[{p.request_batch},"
                  f"{p.channels},{p.size},{p.size}] k={p.kernel} "
                  f"f={p.filters} {detail} ({floor or 'ungated'})")

        for p in bench.SERVE_PRESETS:
            show(p, f"max_batch={p.max_batch} workers={p.workers}",
                 p.min_speedup and f"floor {p.min_speedup:g}x")
        for p in loadgen.CLUSTER_PRESETS:
            show(p, "cluster workers="
                 + "/".join(str(w) for w in p.worker_counts),
                 p.min_scaleout and f"scale-out floor {p.min_scaleout:g}x@2")
        for p in loadgen.OVERLOAD_PRESETS:
            show(p, "overload x" + "/".join(f"{m:g}" for m in p.multipliers),
                 p.min_goodput_pct and f"goodput floor "
                 f"{p.min_goodput_pct:.0%}@x{p.gate_multiplier:g}")
        return 0

    # The overload sweep (open loop, past calibrated capacity), the
    # cluster saturation sweep (Poisson open loop through the
    # multi-process shared-memory tier), or the in-process presets.
    section = "overload" if args.overload \
        else "cluster" if args.workers is not None else "serve"
    presets, run = {
        "overload": (loadgen.OVERLOAD_PRESETS, lambda p: (
            loadgen.run_overload_case(
                p, multipliers=tuple(args.multipliers)
                if args.multipliers else None))),
        "cluster": (loadgen.CLUSTER_PRESETS, lambda p: (
            loadgen.run_cluster_case(p, repeats=args.repeats,
                                     worker_counts=tuple(args.workers)))),
        "serve": (bench.SERVE_PRESETS, lambda p: (
            [bench.run_serve_case(p, repeats=args.repeats)])),
    }[section]
    if args.preset:
        names = ", ".join(p.name for p in presets)
        presets = [p for p in presets if p.name == args.preset]
        if not presets:
            print(f"unknown preset {args.preset!r} for {section}; "
                  f"one of: {names}")
            return 2
    entries = [entry for preset in presets for entry in run(preset)]
    print(bench.format_section(section, entries))
    if args.out:
        report = {"schema": bench.SCHEMA_VERSION,
                  "date": datetime.date.today().isoformat(),
                  "env_pins": bench.env_pins(), section: entries}
        print(f"[written to {bench.write_report(report, args.out)}]")
    if section == "cluster" and args.check_scaleout is not None:
        # Unconditional (no gated flag): CI runners that are known
        # multi-core opt in explicitly.
        return _check_floor(
            "check-scaleout", section, entries,
            lambda e: e["workers"] == 2
            and e.get("scaleout_vs_1") is not None, args.check_scaleout)
    if section == "overload" and args.check_goodput is not None:
        return _check_floor(
            "check-goodput", section, entries,
            lambda e: e["multiplier"] >= args.gate_multiplier,
            args.check_goodput)
    return 0


def cmd_serve_stats(args) -> int:
    from repro.observe.registry import format_serve_stats

    print(format_serve_stats())
    return 0


def cmd_selection_stats(args) -> int:
    from repro.selection.bandit import (
        SelectionBandit, format_selection_stats, load_table,
    )

    if args.table:
        from repro.selection.bandit import SelectionTableError

        try:
            payload = load_table(args.table)
        except SelectionTableError as exc:
            print(f"selection table rejected: {exc}")
            return 1
        if payload is None:
            print(f"no readable selection table at {args.table} "
                  f"(missing, corrupt, or empty)")
            return 1
        bandit = SelectionBandit()
        bandit.warm_start(args.table)
        print(format_selection_stats(bandit.stats()))
        return 0
    print(format_selection_stats())
    return 0


def cmd_selection_drill(args) -> int:
    from repro.selection.drill import (
        format_selection_drill, run_selection_drill,
    )

    report = run_selection_drill(seed=args.seed, requests=args.requests,
                                 table_path=args.table)
    print(format_selection_drill(report))
    return 0 if report["ok"] else 1


def cmd_doctor(args) -> int:
    from repro.guard.doctor import format_report, run_doctor

    results = run_doctor()
    print(format_report(results))
    return 0 if all(r.ok for r in results) else 1


def cmd_profile(args) -> int:
    from repro.observe.profile import (
        case_for_shape, format_profile, profile_case, resolve_preset,
        write_profile,
    )

    if args.preset:
        case = resolve_preset(args.preset)
    else:
        case = case_for_shape(
            size=args.size, kernel=args.kernel, batch=args.batch,
            channels=args.channels, filters=args.filters,
            padding=args.padding, stride=args.stride,
            dilation=args.dilation, groups=args.groups,
            strategy=args.strategy, backend=args.backend)
    report = profile_case(case, algorithm=args.algorithm,
                          repeats=args.repeats,
                          drift_threshold=args.drift_threshold)
    print(format_profile(report))
    if args.trace:
        print("\nspans (completion order):")
        spans = report["spans"]
        print("\n".join(
            f"{'  ' * s['depth']}{s['name']:<28} {s['ms']:9.4f} ms  "
            + " ".join(f"{k}={v}" for k, v in s["attrs"].items())
            for s in spans))
    if args.json:
        path = write_profile(report, args.json)
        print(f"[written to {path}]")
    return 0


def cmd_cache_stats(args) -> int:
    from repro.observe import format_cache_stats

    print(format_cache_stats())
    return 0


#: Representative problems probing each operator family's support matrix:
#: generic enough (channels divisible, kernel fits) that a "no" means the
#: algorithm genuinely cannot run the op, not that the probe was degenerate.
_OP_PROBES = {
    "1d": ("conv1d", (1, 4, 32), (4, 4, 5), {}),
    "2d": ("conv2d", (1, 4, 16, 16), (4, 4, 3, 3), {}),
    "3d": ("conv3d", (1, 4, 8, 8, 8), (4, 4, 3, 3, 3), {}),
    "t2d": ("conv_transpose2d", (1, 4, 8, 8), (4, 4, 3, 3), {"stride": 2}),
}


def cmd_algorithms(args) -> int:
    from repro.baselines.registry import (
        get_entry,
        list_algorithms,
        op_shape,
        supports,
    )

    cols = list(_OP_PROBES)
    print(f"{'algorithm':<24} {' '.join(f'{c:>4}' for c in cols)}  "
          "description")
    for algo in list_algorithms():
        marks = []
        for col in cols:
            op, x_shape, w_shape, extra = _OP_PROBES[col]
            ok = supports(algo, op_shape(op, x_shape, w_shape, **extra))
            marks.append(f"{'y' if ok else '-':>4}")
        print(f"{algo.value:<24} {' '.join(marks)}  "
              f"{get_entry(algo).description}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="PolyHankel convolution (CGO'25) reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    selftest = sub.add_parser("selftest",
                              help="cross-algorithm correctness check")
    selftest.add_argument("--cache-stats", action="store_true",
                          help="print cache hit/miss statistics afterwards")
    selftest.set_defaults(fn=cmd_selftest)

    figures = sub.add_parser("figures", help="regenerate paper figures")
    figures.add_argument("figure", choices=["3", "4", "5", "6", "7", "all"],
                         nargs="?", default="all")
    figures.add_argument("--devices", nargs="+",
                         default=["3090ti", "a10g", "v100"])
    figures.set_defaults(fn=cmd_figures)

    simulate = sub.add_parser("simulate",
                              help="simulated GPU time for a shape")
    _add_shape_arguments(simulate)
    simulate.add_argument("--algorithm", default="polyhankel")
    simulate.add_argument("--devices", nargs="+", default=["3090ti"])
    simulate.set_defaults(fn=cmd_simulate)

    select = sub.add_parser("select", help="algorithm recommendation")
    _add_shape_arguments(select)
    select.add_argument("--devices", nargs="+", default=["3090ti"])
    select.set_defaults(fn=cmd_select)

    tune = sub.add_parser("tune", help="measure algorithms on this machine")
    _add_shape_arguments(tune)
    tune.add_argument("--repeats", type=int, default=3)
    tune.add_argument("--cache-stats", action="store_true",
                      help="print cache hit/miss statistics afterwards")
    tune.set_defaults(fn=cmd_tune)

    from repro.bench import add_arguments as add_bench_arguments

    bench = sub.add_parser("bench",
                           help="execution-engine wall-clock suite (JSON)")
    add_bench_arguments(bench)
    bench.add_argument("--cache-stats", action="store_true",
                       help="print cache hit/miss statistics afterwards")
    bench.set_defaults(fn=cmd_bench)

    serve_bench = sub.add_parser(
        "serve-bench",
        help="serving-layer throughput presets (dynamic batching vs a "
             "sequential request loop)")
    serve_bench.add_argument("preset", nargs="?", default=None,
                             help="preset name (default: all presets)")
    serve_bench.add_argument("--repeats", type=int, default=25)
    serve_bench.add_argument("--list", action="store_true",
                             help="list the presets and exit")
    serve_bench.add_argument("--out", metavar="PATH", default=None,
                             help="also write the results as JSON")
    serve_bench.add_argument("--workers", type=int, nargs="+",
                             default=None, metavar="N",
                             help="run the cluster saturation sweep over "
                                  "these worker counts (e.g. --workers 1 "
                                  "2 4) instead of the in-process presets")
    serve_bench.add_argument("--check-scaleout", type=float, default=None,
                             metavar="RATIO",
                             help="with --workers: exit nonzero unless "
                                  "the 2-worker point scaled >= RATIO "
                                  "over 1 worker (CI's unconditional "
                                  "floor; needs a multi-core host)")
    serve_bench.add_argument("--overload", action="store_true",
                             help="run the overload sweep (open-loop "
                                  "Poisson arrivals at multiples of "
                                  "calibrated capacity) instead of the "
                                  "in-process presets")
    serve_bench.add_argument("--multipliers", type=float, nargs="+",
                             default=None, metavar="X",
                             help="with --overload: offered-load "
                                  "multiples of capacity to sweep "
                                  "(default: the preset's sweep)")
    serve_bench.add_argument("--check-goodput", type=float, default=None,
                             metavar="PCT",
                             help="with --overload: exit nonzero unless "
                                  "goodput at every point at/above the "
                                  "gate multiplier stays >= PCT of "
                                  "capacity (e.g. 0.85), and no request "
                                  "completes after being reported shed")
    serve_bench.add_argument("--gate-multiplier", type=float, default=2.0,
                             metavar="X",
                             help="with --check-goodput: the lowest "
                                  "overload multiplier the floor applies "
                                  "to (default 2.0)")
    serve_bench.set_defaults(fn=cmd_serve_bench)

    sub.add_parser(
        "serve-stats",
        help="serving counters of this process (requests, batches, "
             "coalesce rate, queue wait)"
    ).set_defaults(fn=cmd_serve_stats)

    selection_stats = sub.add_parser(
        "selection-stats",
        help="online algorithm-selection bandit: per-key arm posteriors "
             "and decisions (live bandit or a persisted table)")
    selection_stats.add_argument("--table", metavar="PATH", default=None,
                                 help="read a persisted selection table "
                                      "instead of the live bandit")
    selection_stats.set_defaults(fn=cmd_selection_stats)

    selection_drill = sub.add_parser(
        "selection-drill",
        help="CI convergence drill: seeded replay to the roofline oracle, "
             "warm-start round-trip, poisoned-shadow bit-exactness "
             "(nonzero exit on failure)")
    selection_drill.add_argument("--seed", type=int, default=0)
    selection_drill.add_argument("--requests", type=int, default=300,
                                 help="replay length per key "
                                      "(default 300)")
    selection_drill.add_argument("--table", metavar="PATH", default=None,
                                 help="persist the phase-1 table here "
                                      "(default: a temp file)")
    selection_drill.set_defaults(fn=cmd_selection_drill)

    sub.add_parser(
        "doctor",
        help="install health report: FFT parity, cache integrity, "
             "fallback chain, sentinel, guarded recovery"
    ).set_defaults(fn=cmd_doctor)

    profile = sub.add_parser(
        "profile",
        help="measured per-stage times vs the analytic cost model")
    profile.add_argument("preset", nargs="?", default=None,
                         help="forward-op bench-suite case name (e.g. "
                              "conv64_sum_numpy, audio_1d); omit to use "
                              "shape flags")
    _add_shape_arguments(profile)
    profile.add_argument("--algorithm", default="polyhankel",
                         choices=["polyhankel", "gemm"],
                         help="execution path to profile")
    profile.add_argument("--strategy", default="sum",
                         choices=["sum", "merge"])
    profile.add_argument("--backend", default="numpy",
                         choices=["numpy", "builtin"])
    profile.add_argument("--repeats", type=int, default=10)
    profile.add_argument("--drift-threshold", type=float, default=5.0,
                         help="flag stages whose measured/predicted share "
                              "ratio leaves [1/t, t] (default 5)")
    profile.add_argument("--trace", action="store_true",
                         help="print the raw span log afterwards")
    profile.add_argument("--json", metavar="PATH", default=None,
                         help="also write the profile report as JSON")
    profile.set_defaults(fn=cmd_profile)

    sub.add_parser(
        "cache-stats",
        help="consolidated cache hit/miss table (observe registry)"
    ).set_defaults(fn=cmd_cache_stats)

    sub.add_parser("algorithms", help="list registered algorithms") \
        .set_defaults(fn=cmd_algorithms)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
