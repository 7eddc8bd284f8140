"""A cluster worker must not outlive its router.

The worker blocks on its control pipe and exits on EOF, which only
arrives once every router-side end of that pipe is closed.  A forked
worker inherits those ends (its own and its older siblings'), so unless
it closes them the router's death never reaches it.
"""

import glob
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]

ROUTER = """
import sys, time
from repro.serve import ClusterServer
server = ClusterServer(workers={workers})
print(*server.worker_pids(), flush=True)
time.sleep(120)
"""


def _alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as stat:
            return stat.read().split(") ")[1][0] != "Z"
    except OSError:
        return False


def _wait(condition, seconds: float = 10.0) -> None:
    deadline = time.monotonic() + seconds
    while time.monotonic() < deadline and not condition():
        time.sleep(0.05)


def _killed_router_leaves(workers: int) -> list[int]:
    """Start a router subprocess, SIGKILL it, return its live workers
    after a bounded wait."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.Popen([sys.executable, "-c",
                             ROUTER.format(workers=workers)],
                            cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            text=True)
    pids: list[int] = []
    try:
        pids = [int(p) for p in proc.stdout.readline().split()]
        assert len(pids) == workers
        proc.send_signal(signal.SIGKILL)
        proc.wait(timeout=30)
        _wait(lambda: not any(map(_alive, pids)))
        return [pid for pid in pids if _alive(pid)]
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        for pid in pids:
            if _alive(pid):
                os.kill(pid, signal.SIGKILL)
        arenas = f"/dev/shm/repro_arena_{proc.pid}_*"
        _wait(lambda: not glob.glob(arenas))
        for path in glob.glob(arenas):
            os.unlink(path)


def test_worker_exits_when_its_router_is_killed():
    assert _killed_router_leaves(workers=1) == []


def test_every_sibling_exits_when_the_router_is_killed():
    assert _killed_router_leaves(workers=2) == []
