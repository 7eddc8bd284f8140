"""The benchmark's own tests: manifest, short runs, leaks, correctness.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
"""

import glob
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from perfbench import config
from perfbench.workloads import (
    InferNet,
    ServePoisson,
    TrainStep,
    close_to,
    latency_summary,
)

ROOT = Path(__file__).resolve().parents[2]
RUN = ROOT / "perfbench" / "run.py"
MANIFEST = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in MANIFEST["workloads"]]


def _run(*args, timeout=120):
    return subprocess.run([sys.executable, str(RUN), *args], cwd=ROOT,
                          capture_output=True, text=True, timeout=timeout)


def _alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as stat:
            return stat.read().split(") ")[1][0] != "Z"
    except OSError:
        return False


def _arenas(pid: int) -> list[str]:
    return glob.glob(f"/dev/shm/repro_arena_{pid}_*")


def test_manifest_matches_the_contract():
    assert set(MANIFEST) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
    assert MANIFEST["paths"] == ["perfbench"]
    assert WORKLOADS == ["infer_net", "train_step", "serve_poisson"]
    names = [m["name"] for m in MANIFEST["end_to_end"]
             + MANIFEST["per_layer"]]
    assert len(names) == len(set(names))
    bounds = {m["name"]: m["bound"] for m in MANIFEST["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25
    for metric in MANIFEST["end_to_end"] + MANIFEST["per_layer"]:
        assert metric["better"] in ("lower", "higher")


def test_manifest_records_the_frozen_serving_settings():
    why = next(w["why"] for w in MANIFEST["workloads"]
               if w["name"] == "serve_poisson")
    cfg = config.SERVE
    assert f"lo={cfg['lo_rps']:g}" in why
    assert f"hi={cfg['hi_rps']:g}" in why
    assert f"SLO {cfg['latency_limit_ms']:g} ms" in why


def test_tail_is_the_highest_percentile_with_ten_beyond():
    assert latency_summary(range(99))["tail_pct"] == 50.0
    assert latency_summary(range(100))["tail_pct"] == 90.0
    assert latency_summary(range(1000))["tail_pct"] == 99.0
    assert latency_summary(range(9999))["tail_pct"] == 99.0
    assert latency_summary(range(10000))["tail_pct"] == 99.9


@pytest.mark.parametrize("workload", WORKLOADS)
def test_short_run(workload):
    proc = _run("--workload", workload, "--seed", "3", "--seconds", "1",
                "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in MANIFEST["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_short_traced_run(workload):
    proc = _run("--workload", workload, "--seed", "3", "--seconds", "1",
                "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"]
    assert set(result["metrics"]) == {m["name"]
                                      for m in MANIFEST["per_layer"]}
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    if workload == "infer_net":
        assert metrics["nn.layer_spectrum_hit_ratio"] == 1.0
        assert metrics["core.weight_transforms"] == 0
        assert metrics["kernel.gflops_per_s"] > 0
    if workload == "train_step":
        assert metrics["nn.layer_spectrum_hit_ratio"] == 0
        assert metrics["core.weight_transforms"] == metrics[
            "core.execute_calls"] > 0
    if workload == "serve_poisson":
        assert metrics["selection.rule_calls"] == 1.0
        assert metrics["guard.calls"] > 0 and metrics["baselines.calls"] > 0
        assert metrics["serve.worker_execute_ms"] > 0


def test_without_the_library_the_run_fails_without_a_result(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for path in (ROOT / "perfbench").glob("*.py"):
        (tmp_path / "perfbench" / path.name).write_text(path.read_text())
    (tmp_path / "BENCHMARK.json").write_text(
        (ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "infer_net",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_spawn_and_close_leaves_no_process_or_segment():
    workload = ServePoisson(seed=5)
    try:
        workload.setup()
        pids = workload.server.worker_pids()
        assert len(pids) == config.SERVE["workers"]
        assert all(_alive(pid) for pid in pids)
    finally:
        workload.close()
    assert not any(_alive(pid) for pid in pids)
    assert _arenas(os.getpid()) == []


def test_sigterm_mid_serving_leaves_no_process_or_segment():
    proc = subprocess.Popen(
        [sys.executable, str(RUN), "--workload", "serve_poisson", "--seed",
         "4", "--seconds", "30", "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        deadline = time.monotonic() + 90
        for line in proc.stderr:
            if "phase hi" in line or time.monotonic() > deadline:
                break
        kids = set()
        for path in glob.glob(f"/proc/{proc.pid}/task/*/children"):
            kids.update(int(p) for p in Path(path).read_text().split())
        assert len(kids) >= config.SERVE["workers"]
        assert _arenas(proc.pid)
        proc.send_signal(signal.SIGTERM)
        out, _ = proc.communicate(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    assert proc.returncode == 128 + signal.SIGTERM
    assert out.strip() == ""
    assert not any(_alive(pid) for pid in kids)
    assert _arenas(proc.pid) == []


LEAKY_ARENA = """
import sys
sys.path[:0] = [{root!r}, {root!r} + "/src"]
from perfbench import run
from repro.serve import shm
shm.TensorArena.close = lambda self: None   # never unmapped nor unlinked
sys.exit(run.main(sys.argv[1:]))
"""


def test_an_arena_left_behind_fails_the_run():
    proc = subprocess.Popen(
        [sys.executable, "-c", LEAKY_ARENA.format(root=str(ROOT)),
         "--workload", "serve_poisson", "--seed", "7", "--seconds", "1",
         "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=150)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    assert proc.returncode == 3, err
    assert "shared-memory segment(s) left" in err
    assert out.strip() == ""
    assert _arenas(proc.pid) == []


STUCK_TEARDOWN = """
# stuck-teardown-drill (forked workers carry this command line)
import sys, threading
sys.path[:0] = [{root!r}, {root!r} + "/src"]
from perfbench import config, run, workloads
config.RUN_DEADLINE_S, config.HARD_DEADLINE_S = 4, 8
workloads.ServePoisson.close = lambda self: threading.Event().wait()
sys.exit(run.main(sys.argv[1:]))
"""


def test_a_stuck_teardown_is_cut_off_with_its_children():
    proc = subprocess.Popen(
        [sys.executable, "-c", STUCK_TEARDOWN.format(root=str(ROOT)),
         "--workload", "serve_poisson", "--seed", "8", "--seconds", "30",
         "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    assert proc.returncode == 4, err
    assert "teardown stuck" in err
    assert out.strip() == ""
    assert _arenas(proc.pid) == []
    survivors = []
    for path in glob.glob("/proc/[0-9]*/cmdline"):
        try:
            if b"stuck-teardown-drill" in Path(path).read_bytes() \
                    and _alive(int(path.split("/")[2])):
                survivors.append(path)
        except OSError:
            pass
    assert survivors == []


HELD_TRACKER = """
import json, multiprocessing, sys, time
sys.path[:0] = [{root!r}, {root!r} + "/src"]
from multiprocessing import shared_memory
from perfbench import run
segment = shared_memory.SharedMemory(create=True, size=64)  # starts tracker
segment.close()
segment.unlink()
child = multiprocessing.get_context("fork").Process(target=time.sleep,
                                                    args=(60,))
child.start()   # inherits the tracker's pipe, as cluster workers do
start = time.monotonic()
leaks = run._leaks()
took = time.monotonic() - start
run._reap()
kids = open(f"/proc/self/task/{{run.os.getpid()}}/children").read().split()
print(json.dumps({{"leaks": leaks, "took": took, "child": child.pid,
                  "kids_left": kids}}))
"""


def test_a_live_worker_is_reported_without_waiting_on_the_tracker():
    proc = subprocess.run(
        [sys.executable, "-c", HELD_TRACKER.format(root=str(ROOT))],
        cwd=ROOT, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    assert len(report["leaks"]) == 1
    assert "live child process(es)" in report["leaks"][0]
    assert report["took"] < 2.0
    assert report["kids_left"] == []
    assert not _alive(report["child"])


def test_doctored_network_output_fails_the_check():
    workload = InferNet(seed=2)
    workload.setup()
    x, y = workload.last
    assert workload.verify() == (0, [])
    doctored = y.copy()
    doctored.flat[7] += 1e-6 * np.max(np.abs(y))
    workload.last = (x, doctored)
    wrong, problems = workload.verify()
    assert wrong == 1 and problems


def test_doctored_gradient_fails_the_check():
    grad = np.random.default_rng(0).standard_normal((16, 3, 3, 3))
    assert close_to(grad, grad.copy())
    doctored = grad.copy()
    doctored[0, 0, 0, 0] += 1e-6
    assert not close_to(doctored, grad)
    workload = TrainStep(seed=2)
    workload.setup()
    workload.losses.append(float("nan"))
    assert workload.verify()[0] == 1


def test_doctored_served_result_fails_the_check():
    workload = ServePoisson(seed=6)
    try:
        workload.setup()
        workload._offer(40, None, "burst")
    finally:
        workload.close()
    assert workload.verify() == (0, [])
    served = [r for r in workload.requests if r.phase == "burst"]
    served[3].digest ^= 1
    wrong, _ = workload.verify()
    assert wrong == 1
