"""Repository benchmark: network inference, a training step and cluster
serving, timed end to end and per layer.

Run from the repository root::

    python3 perfbench/run.py --workload infer_net --seed 1 --seconds 20 \
        --trace 0

``--trace 0`` measures the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` wraps the library's layers (see ``perfbench/tracing.py``)
and reports the per-layer metrics, plus the tracing overhead against an
untraced pass in the same run.  The last line of standard output is the
result object; a human-readable report goes to standard error and a JSON
report (and, when tracing, the spans) to ``perfbench/out/``.

The benchmark imports ``repro`` from ``src/`` of the checkout it runs in
and from nowhere else.  It pins BLAS/OpenMP threads, drops every
``REPRO_*`` setting from the environment, turns SIGTERM and SIGINT into a
normal exit that closes every server, and fails the run if any child
process or any ``/dev/shm/repro_arena_*`` segment of its own outlives the
workload.
"""

from __future__ import annotations

import argparse
import faulthandler
import glob
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
import traceback
from pathlib import Path

PROCESS_START = time.monotonic()
ROOT = Path(__file__).resolve().parent.parent
sys.path[:] = [str(ROOT / "src"), str(ROOT)] + [
    p for p in sys.path if Path(p or ".").resolve() != ROOT / "perfbench"]

from perfbench import config  # noqa: E402  (stdlib only; pins come first)

for _name in [k for k in os.environ if k.startswith("REPRO_")]:
    del os.environ[_name]
os.environ.update(config.THREAD_PINS)

ARENA_GLOB = "/dev/shm/repro_arena_{pid}_*"
OUT_DIR = ROOT / "perfbench" / "out"


def _on_signal(signum, frame):
    # One shot: later signals must not interrupt the teardown this starts.
    for sig in (signal.SIGTERM, signal.SIGINT, signal.SIGALRM):
        signal.signal(sig, signal.SIG_IGN)
    raise SystemExit(128 + signum)


def _install_signals(deadline_s: int) -> None:
    for sig in (signal.SIGTERM, signal.SIGINT, signal.SIGALRM):
        signal.signal(sig, _on_signal)
    signal.alarm(deadline_s)


def _hard_stop() -> None:
    """Last resort when the teardown the deadline started is stuck (a
    server wedged on a lock): dump every thread's stack, kill this
    process's children and segments, and exit without a result."""
    print("perfbench: teardown stuck past the hard deadline", file=sys.stderr,
          flush=True)
    faulthandler.dump_traceback(file=sys.stderr, all_threads=True)
    _forbid_fork()
    for pid in _proc_children():
        try:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        except (ProcessLookupError, ChildProcessError):
            pass
    for path in glob.glob(ARENA_GLOB.format(pid=os.getpid())):
        try:
            os.unlink(path)
        except FileNotFoundError:
            pass
    os._exit(4)


def _forbid_fork() -> None:
    """Make every later fork in this process fail, so that a cluster
    supervisor still running cannot respawn the workers about to be
    killed; a fork already under way gets a moment to finish first."""
    def refuse():
        raise OSError("perfbench is tearing down; no new processes")

    os.fork = refuse
    time.sleep(0.3)


def _arm_hard_stop(deadline_s: float) -> threading.Timer:
    timer = threading.Timer(
        deadline_s - (time.monotonic() - PROCESS_START), _hard_stop)
    timer.daemon = True
    timer.start()
    return timer


# ---------------------------------------------------------------------------
# Processes and memory
# ---------------------------------------------------------------------------

def _proc_children() -> set[int]:
    """Direct children of this process, as the kernel lists them."""
    kids = set()
    for path in glob.glob(f"/proc/{os.getpid()}/task/*/children"):
        try:
            with open(path) as handle:
                kids.update(int(pid) for pid in handle.read().split())
        except OSError:
            pass
    return kids


def _children() -> set[int]:
    """Live (or unreaped) direct children of this process."""
    import multiprocessing

    return {p.pid for p in multiprocessing.active_children()} \
        | _proc_children()


def _tracker_pid() -> int | None:
    """Pid of multiprocessing's resource tracker, a child of this process
    once it has created a shared-memory segment."""
    from multiprocessing import resource_tracker

    return resource_tracker._resource_tracker._pid


def _wait_or_kill(pid: int, timeout_s: float) -> bool:
    """Reap child *pid*, SIGKILLing it if it has not ended in time;
    whether it ended on its own."""
    end = time.monotonic() + timeout_s
    try:
        while not os.waitpid(pid, os.WNOHANG)[0]:
            if time.monotonic() >= end:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                return False
            time.sleep(0.02)
    except ChildProcessError:
        pass
    return True


def _stop_resource_tracker(timeout_s: float = 5.0) -> bool:
    """Stop the resource tracker: close its pipe, which ends it once no
    other process holds the pipe, and reap it within *timeout_s*; whether
    it ended on its own.

    On its way out the tracker unlinks every segment still registered
    with it, so look for leaked segments before calling this.
    """
    from multiprocessing import resource_tracker

    tracker = resource_tracker._resource_tracker
    with tracker._lock:
        fd, pid = tracker._fd, tracker._pid
        if fd is None:
            return True
        os.close(fd)
        tracker._fd = tracker._pid = None
    return _wait_or_kill(pid, timeout_s)


def _leaks() -> list[str]:
    """Child processes and arena segments of this process still there.

    Looks before it stops anything: stopping the resource tracker would
    unlink the segments registered with it, and a live worker holds the
    tracker's pipe open, so the tracker is stopped only when it is the
    last child.
    """
    problems = []
    segments = glob.glob(ARENA_GLOB.format(pid=os.getpid()))
    if segments:
        problems.append(f"shared-memory segment(s) left: {segments}")
    kids = _children() - {_tracker_pid()}
    if kids:
        problems.append(f"live child process(es): {sorted(kids)}")
    if not problems and not _stop_resource_tracker():
        problems.append("the resource tracker outlived its pipe: another "
                        "process still holds it")
    return problems


def _reap(timeout_s: float = 5.0) -> None:
    """Stop this process's children and unlink its arena segments, after
    a leak was reported."""
    _forbid_fork()
    tracker = _tracker_pid()
    kids = _children() - {tracker}
    for pid in kids:
        try:
            os.kill(pid, signal.SIGTERM)
        except ProcessLookupError:
            pass
    for pid in kids:
        _wait_or_kill(pid, timeout_s)
    _stop_resource_tracker(timeout_s)
    for path in glob.glob(ARENA_GLOB.format(pid=os.getpid())):
        try:
            os.unlink(path)
        except FileNotFoundError:
            pass


def _reset_peak_rss() -> None:
    with open("/proc/self/clear_refs", "w") as handle:
        handle.write("5")


# ---------------------------------------------------------------------------
# Set-up probes
# ---------------------------------------------------------------------------

def _stop(proc: subprocess.Popen) -> None:
    if proc.poll() is None:
        proc.terminate()
        try:
            proc.wait(10)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


def _setup_times(workload: str, seed: int) -> list[float]:
    """Set-up time of fresh processes: launch to first verified result."""
    times = []
    for _ in range(config.SETUP_PROBES):
        cmd = [sys.executable, str(Path(__file__).resolve()),
               "--workload", workload, "--seed", str(seed),
               "--setup-probe"]
        start = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True)
        try:
            out, err = proc.communicate(timeout=config.PROBE_DEADLINE_S)
        except subprocess.TimeoutExpired:
            raise RunFailed("set-up probe timed out") from None
        finally:
            _stop(proc)
        leftover = glob.glob(ARENA_GLOB.format(pid=proc.pid))
        if proc.returncode != 0 or leftover:
            raise RunFailed(f"set-up probe failed ({proc.returncode}, "
                            f"{leftover}): {err.strip()[-400:]}")
        times.append(json.loads(out.strip().splitlines()[-1])["ready"]
                     - start)
    return times


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------

def _manifest() -> dict:
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


def _result(entries: list[dict], values: dict, correct: bool,
            attempted: int, failed: int) -> dict:
    missing = [e["name"] for e in entries if e["name"] not in values]
    if missing:
        raise RuntimeError(f"no value for metric(s) {missing}")
    return {"correct": correct, "attempted": int(attempted),
            "failed": int(failed),
            "metrics": {e["name"]: {"value": float(values[e["name"]]),
                                    "unit": e["unit"]} for e in entries}}


def _probe(args) -> tuple[int, dict]:
    workload = WORKLOADS[args.workload](args.seed)
    try:
        workload.setup()
        ready = time.monotonic()
    finally:
        workload.close()
        shutdown_server()
    return 0, {"ready": ready}


def _measure_e2e(args, workload, report: dict) -> tuple[dict, int]:
    workload.setup()
    report["setup_in_run_s"] = time.monotonic() - PROCESS_START
    _reset_peak_rss()
    res = workload.measure(args.seconds)
    self_kb = peak_rss_kb(os.getpid())
    child_kb = workload.child_rss_kb()
    lat = res["latency"]
    values = {
        "rss_peak_mb": (self_kb + child_kb) / 1024.0,
        "latency_p50_ms": lat["p50"],
        "latency_tail_ms": lat["tail"],
        "throughput_per_s": res["throughput_per_s"],
    }
    report.update(ops=res["ops"], tail_percentile=lat["tail_pct"],
                  latency_samples=lat["samples"], rss_self_mb=self_kb / 1024,
                  rss_workers_mb=child_kb / 1024)
    if "lo_latency" in res:
        lo = res["lo_latency"]
        lag = latency_summary(res["generator_lag_ms"])
        pooled = res["pooled_latency"]
        report.update(
            capacity_rps=res["throughput_per_s"],
            capacity_rounds_rps=res["capacity_rounds"],
            latency_p50_ms_pooled=pooled["p50"],
            latency_tail_ms_pooled=pooled["tail"],
            tail_percentile_pooled=pooled["tail_pct"],
            latency_p50_ms_lo=lo["p50"], latency_tail_ms_lo=lo["tail"],
            tail_percentile_lo=lo["tail_pct"], latency_samples_lo=lo["samples"],
            slo_miss_pct=res["slo_miss_pct"],
            latency_limit_ms=config.SERVE["latency_limit_ms"],
            generator_lag_p50_ms=lag["p50"],
            generator_lag_tail_ms=lag["tail"])
    return values, res["ops"]


def _run_e2e(args, workload, report: dict):
    try:
        values, ops = _measure_e2e(args, workload, report)
        failed, problems = workload.verify()
    finally:
        workload.close()
        shutdown_server()
    times = _setup_times(args.workload, args.seed)
    values["setup_s"] = statistics.median(times)
    report["setup_probe_s"] = times
    report.update(failed_pct=100.0 * failed / ops, problems=problems)
    if isinstance(workload, ServePoisson):
        report["drifted_from_single_image"] = workload.drifted
    return values, ops, failed, not failed and not problems


def _run_traced(args, workload, report: dict):
    from repro.observe import (clear_trace, disable_tracing, enable_tracing,
                               get_trace)

    from perfbench import tracing

    serve = isinstance(workload, ServePoisson)
    tracer = tracing.Tracer()
    traced = workload
    spans = []
    failed = 0
    problems = []
    try:
        workload.setup()
        if serve:
            workload.warm_up()
            base = statistics.median(workload.capacity() for _ in range(3))
            base_ops = len(workload.requests)
            failed, problems = workload.verify()
            workload.close()
            traced = ServePoisson(args.seed)
            tracing.install(tracer)
            traced.setup()
            seconds = args.seconds
        else:
            base_res = workload.measure(0.4 * args.seconds)
            base = base_res["throughput_per_s"]
            base_ops = base_res["ops"]
            tracing.install(tracer)
            clear_trace()
            enable_tracing()
            seconds = 0.6 * args.seconds
        before = tracing.totals()
        res = traced.measure(seconds)
        if serve:
            traced.refresh()
        else:
            disable_tracing()
            spans = get_trace()
            clear_trace()
        after = tracing.totals()
        tracer.restore()
        values, trace_problems = tracing.layer_metrics(
            before, after, res["ops"], spans)
        values["core.plan_builds"] = after.get("cache.conv_plan.misses", 0)
        values["trace.overhead_pct"] = 100.0 * (
            base / res["throughput_per_s"] - 1.0)
        kernel = {"kernel.flops_computed": 0.0,
                  "kernel.bytes_computed": 0.0, "kernel.gflops_per_s": 0.0}
        if isinstance(workload, InferNet):
            table, flops, nbytes = workload.kernel_table()
            p50_s = base_res["latency"]["p50"] / 1e3
            kernel = {"kernel.flops_computed": flops,
                      "kernel.bytes_computed": nbytes,
                      "kernel.gflops_per_s": flops / p50_s / 1e9}
            report["kernel_table_computed"] = table
        values.update(kernel)
        values["serve.generator_lag_ms"] = 0.0
        values["serve.shm_bytes_computed"] = 0.0
        if serve:
            values["serve.generator_lag_ms"] = latency_summary(
                res["generator_lag_ms"])["tail"]
            values["serve.shm_bytes_computed"] = res["shm_bytes_per_request"]
        more_failed, more_problems = traced.verify()
        failed += more_failed
        problems += more_problems + trace_problems
    finally:
        tracer.restore()
        traced.close()
        workload.close()
        shutdown_server()
    OUT_DIR.mkdir(exist_ok=True)
    tracer.write(str(OUT_DIR / f"{args.workload}-seed{args.seed}-spans.jsonl"),
                 spans)
    ops = base_ops + res["ops"]
    report.update(ops=ops, failed=failed, problems=problems)
    return values, ops, failed, not failed and not problems


def _run(args) -> tuple[int, dict]:
    from repro.bench import env_pins

    manifest = _manifest()
    workload = WORKLOADS[args.workload](args.seed)
    report = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "env_pins": env_pins(),
              "cpus": sorted(os.sched_getaffinity(0))}
    if args.trace:
        values, ops, failed, correct = _run_traced(args, workload, report)
        entries = manifest["per_layer"]
    else:
        values, ops, failed, correct = _run_e2e(args, workload, report)
        entries = manifest["end_to_end"]
    result = _result(entries, values, correct, ops, failed)
    report["metrics"] = values
    OUT_DIR.mkdir(exist_ok=True)
    with open(OUT_DIR / f"{args.workload}-seed{args.seed}-trace"
              f"{args.trace}.json", "w") as handle:
        json.dump(report, handle, indent=1, default=str)
    _print_report(report, entries, values)
    return (0 if correct else 1), result


def _print_report(report: dict, entries: list[dict], values: dict) -> None:
    units = {e["name"]: e["unit"] for e in entries}
    print(f"perfbench {report['workload']} seed={report['seed']} "
          f"trace={report['trace']} ops={report['ops']} "
          f"pins={report['env_pins']}", file=sys.stderr)
    for name in sorted(values):
        print(f"  {name:<34} {values[name]:14.6g} {units.get(name, '')}",
              file=sys.stderr)
    skip = {"metrics", "env_pins", "kernel_table_computed", "workload",
            "seed", "trace", "ops"}
    for key, value in report.items():
        if key not in skip:
            print(f"  {key:<34} {value}", file=sys.stderr)
    for row in report.get("kernel_table_computed", []):
        print(f"  computed {row['shape']:<24} x{row['calls']:<3} "
              f"{row['flops_computed']:.4g} FLOP "
              f"{row['bytes_computed']:.4g} B per call", file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("infer_net", "train_step", "serve_poisson"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    deadline = config.PROBE_DEADLINE_S if args.setup_probe \
        else config.RUN_DEADLINE_S
    _install_signals(deadline)
    hard_stop = _arm_hard_stop(
        deadline + config.HARD_DEADLINE_S - config.RUN_DEADLINE_S)
    if args.workload in config.ONE_CPU_WORKLOADS:
        # Before the cluster forks, so its worker inherits the pin.
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    result = None
    try:
        code, result = (_probe if args.setup_probe else _run)(args)
    except SystemExit as exc:
        print(f"perfbench: stopped ({exc.code})", file=sys.stderr)
        code = exc.code if isinstance(exc.code, int) else 1
    except (CheckFailed, RunFailed) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        code = 1
    except Exception:
        traceback.print_exc()
        code = 1
    # The checks below bound their own waits; a late signal or the
    # deadline must not cut them short.
    for sig in (signal.SIGTERM, signal.SIGINT, signal.SIGALRM):
        signal.signal(sig, signal.SIG_IGN)
    signal.alarm(0)
    leaks = _leaks()
    hard_stop.cancel()
    if leaks:
        print("perfbench: leak: " + "; ".join(leaks), file=sys.stderr)
        _reap()
        return code or 3
    if result is not None:
        print(json.dumps(result), flush=True)
    return code


try:
    import repro  # noqa: E402
except ImportError as _exc:
    print(f"perfbench: cannot import repro from {ROOT / 'src'}: {_exc}",
          file=sys.stderr)
    sys.exit(2)
if Path(repro.__file__).resolve().parent.parent != ROOT / "src":
    print(f"perfbench: repro resolved outside the checkout: "
          f"{repro.__file__}", file=sys.stderr)
    sys.exit(2)

from repro.serve import shutdown_server  # noqa: E402

from perfbench.workloads import (  # noqa: E402
    WORKLOADS,
    CheckFailed,
    InferNet,
    RunFailed,
    ServePoisson,
    peak_rss_kb,
    latency_summary,
)

if __name__ == "__main__":
    sys.exit(main())
