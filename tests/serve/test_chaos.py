"""Cluster-level chaos: liveness watchdog, fault drills, heartbeats.

Everything here runs real worker processes; the injected faults fire at
the real hook sites (worker request loop, router slot accounting), so
the recovery path under test is the one production traffic would take.
The standing contracts: answers that complete are bit-exact, no future
is ever lost or resolved twice, and recovery is bounded by the
configured watchdog cadence — not by luck.
"""

import os
import signal
import time

import numpy as np
import pytest

from repro.guard import faults
from repro.nn import functional as F
from repro.observe.registry import counters
from repro.serve.overload import ServeConfig
from repro.serve.router import ClusterServer
from repro.serve.shm import TensorArena

#: Watchdog tuned for test speed: ~2s detection, fast retries.  The
#: stall timeout stays comfortably above a cold replica's first-conv
#: latency under CI contention — a tighter value would let the watchdog
#: quarantine healthy-but-warming replicas and flake the suite.
FAST = ServeConfig(watchdog_interval_s=0.2, stall_timeout_s=1.5,
                   backoff_base_s=0.01, backoff_cap_s=0.1)


def make_server(**kw):
    kw.setdefault("workers", 2)
    kw.setdefault("slots", 8)
    kw.setdefault("slot_bytes", 1 << 18)
    kw.setdefault("config", FAST)
    return ClusterServer(**kw)


class TestHeartbeats:
    def test_arena_heartbeat_roundtrip(self):
        with TensorArena(slots=1, slot_bytes=64, heartbeats=3) as arena:
            blank = arena.read_heartbeat(1)
            assert blank == {"generation": 0, "stamp": 0.0, "pid": 0}
            before = time.monotonic()
            arena.beat(1, generation=4)
            record = arena.read_heartbeat(1)
            assert record["generation"] == 4
            assert record["pid"] == os.getpid()
            assert before <= record["stamp"] <= time.monotonic()
            # Other records untouched.
            assert arena.read_heartbeat(0)["stamp"] == 0.0

    def test_heartbeat_index_bounds(self):
        with TensorArena(slots=1, slot_bytes=64, heartbeats=2) as arena:
            with pytest.raises(IndexError):
                arena.beat(2, generation=1)
            with pytest.raises(IndexError):
                arena.read_heartbeat(-1)

    def test_workers_stamp_their_generation(self, rng):
        """After serving, every replica's heartbeat carries the current
        spawn generation and the worker's own pid."""
        x = rng.standard_normal((1, 3, 8, 8))
        w = rng.standard_normal((2, 3, 3, 3))
        with make_server() as server:
            server.conv2d(x, w, padding=1, timeout=30)
            pids = server.worker_pids()
            for replica_id, pid in enumerate(pids):
                # A replica that served nothing may still be starting:
                # its startup stamp can land after the conv returns.
                deadline = time.monotonic() + 10.0
                record = server._arena.read_heartbeat(replica_id)
                while record["generation"] == 0 \
                        and time.monotonic() < deadline:
                    time.sleep(0.01)
                    record = server._arena.read_heartbeat(replica_id)
                assert record["generation"] == 1
                assert record["pid"] == pid
                assert record["stamp"] > 0.0


class TestWatchdog:
    def test_sigstopped_worker_is_killed_and_work_reroutes(self, rng):
        """A replica frozen mid-service (SIGSTOP: no heartbeat, no
        reply) is quarantined within the watchdog cadence and its
        in-flight request completes bit-exactly on a peer."""
        x = rng.standard_normal((1, 3, 8, 8))
        w = rng.standard_normal((2, 3, 3, 3))
        ref = F.conv2d(x, w, padding=1)
        with make_server() as server:
            server.conv2d(x, w, padding=1, timeout=30)  # warm both
            before = int(counters.total("serve.cluster.stalls"))
            victim = server.worker_pids()[0]
            os.kill(victim, signal.SIGSTOP)
            try:
                start = time.monotonic()
                futures = [server.submit(x, w, padding=1)
                           for _ in range(4)]
                outs = [f.result(30) for f in futures]
                elapsed = time.monotonic() - start
            finally:
                try:
                    os.kill(victim, signal.SIGCONT)
                except ProcessLookupError:
                    pass  # watchdog already reaped it
            for out in outs:
                np.testing.assert_array_equal(out, ref)
            # Bounded recovery: a stall + watchdog scan + respawned
            # dispatch, with generous CI slack.
            assert elapsed < 15.0
            assert int(counters.total("serve.cluster.stalls")) \
                >= before + 1

    def test_idle_workers_are_never_quarantined(self, rng):
        """Idleness ages the heartbeat but carries no in-flight work:
        several watchdog cadences later both replicas still stand."""
        x = rng.standard_normal((1, 3, 8, 8))
        w = rng.standard_normal((2, 3, 3, 3))
        with make_server() as server:
            server.conv2d(x, w, padding=1, timeout=30)
            pids = server.worker_pids()
            before = int(counters.total("serve.cluster.stalls"))
            # Long enough that idle heartbeats age past the stall
            # timeout across several watchdog scans.
            time.sleep(FAST.stall_timeout_s + 5 * FAST.watchdog_interval_s)
            assert server.worker_pids() == pids
            assert int(counters.total("serve.cluster.stalls")) == before


class TestFaultDrills:
    def _problem(self, rng, n=8):
        w = rng.standard_normal((2, 3, 3, 3))
        xs = [rng.standard_normal((1, 3, 8, 8)) for _ in range(n)]
        refs = [F.conv2d(x, w, padding=1) for x in xs]
        return xs, w, refs

    def _drill(self, server, xs, w, refs):
        """Submit everything, assert exactly-once bit-exact delivery."""
        futures = [server.submit(x, w, padding=1) for x in xs]
        outs = [f.result(60) for f in futures]
        assert all(f.done() for f in futures)
        for out, ref in zip(outs, refs):
            np.testing.assert_array_equal(out, ref)

    def test_worker_stall_recovers(self, rng):
        xs, w, refs = self._problem(rng)
        with make_server() as server:
            server.conv2d(xs[0], w, padding=1, timeout=30)
            acked = server.inject_worker_faults(
                "worker_stall", replica_ids=[0], max_fires=1,
                params={"stall_s": 30.0})
            assert acked == [0]
            self._drill(server, xs, w, refs)

    def test_response_drop_recovers(self, rng):
        xs, w, refs = self._problem(rng)
        with make_server() as server:
            server.conv2d(xs[0], w, padding=1, timeout=30)
            acked = server.inject_worker_faults(
                "response_drop", replica_ids=[0], max_fires=1)
            assert acked == [0]
            self._drill(server, xs, w, refs)

    def test_slow_worker_stays_correct_and_unquarantined(self, rng):
        xs, w, refs = self._problem(rng)
        with make_server() as server:
            server.conv2d(xs[0], w, padding=1, timeout=30)
            before = int(counters.total("serve.cluster.stalls"))
            acked = server.inject_worker_faults(
                "slow_worker", params={"delay_s": 0.02})
            assert acked == [0, 1]
            self._drill(server, xs, w, refs)
            server.clear_worker_faults()
            assert int(counters.total("serve.cluster.stalls")) == before

    def test_slot_leak_serves_on_remaining_capacity(self, rng):
        xs, w, refs = self._problem(rng)
        with make_server(slots=16) as server:
            server.conv2d(xs[0], w, padding=1, timeout=30)
            before = int(counters.total("serve.cluster.slot_leaks"))
            with faults.inject("slot_leak", max_fires=1):
                self._drill(server, xs, w, refs)
            assert int(counters.total("serve.cluster.slot_leaks")) > before

    def test_inject_requires_known_kind_and_acks(self, rng):
        x = rng.standard_normal((1, 3, 8, 8))
        w = rng.standard_normal((2, 3, 3, 3))
        with make_server() as server:
            server.conv2d(x, w, padding=1, timeout=30)
            with pytest.raises(Exception, match="unknown fault"):
                server.inject_worker_faults("not_a_fault")
            # A real kind arms, acks, clears — and serving continues.
            assert server.inject_worker_faults(
                "slow_worker", params={"delay_s": 0.0}) == [0, 1]
            assert server.clear_worker_faults() == [0, 1]
            np.testing.assert_array_equal(
                server.conv2d(x, w, padding=1, timeout=30),
                F.conv2d(x, w, padding=1))
