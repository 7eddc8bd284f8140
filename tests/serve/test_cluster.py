"""Integration tests for the multi-process cluster serving tier.

Everything here runs real worker processes over the real shared-memory
arena — parity is asserted bit-exactly against the in-process engine, so
a transport bug that perturbs a single byte fails loudly.
"""

import gc
import os
import signal
import threading
import time
import weakref

import numpy as np
import pytest

from repro.nn import functional as F
from repro.serve.router import ClusterServer, ClusterUnavailableError


def make_server(**kw):
    kw.setdefault("workers", 2)
    kw.setdefault("slots", 8)
    kw.setdefault("slot_bytes", 1 << 18)
    return ClusterServer(**kw)


class TestParity:
    """Bit-exact parity of the shm round trip vs in-process conv2d."""

    # A diagonal sample of the differential grid: each point exercises a
    # distinct (stride, dilation, groups, padding) family through the
    # full cluster transport.
    GRID = [
        ((1, 1), (1, 1), 1, 0),
        ((2, 2), (1, 1), 2, 1),
        ((1, 2), (2, 2), 1, (1, 2, 0, 1)),
        ((1, 1), (1, 3), 4, "same"),
    ]

    @pytest.mark.parametrize("stride,dilation,groups,padding", [
        pytest.param(*p, id=f"s{p[0]}-d{p[1]}-g{p[2]}-p{p[3]}")
        for p in GRID
    ])
    def test_differential_grid_sample(self, rng, stride, dilation, groups,
                                      padding):
        x = rng.standard_normal((2, 4, 9, 8))
        w = rng.standard_normal((4, 4 // groups, 3, 3))
        b = rng.standard_normal(4)
        ref = F.conv2d(x, w, b, padding=padding, stride=stride,
                       dilation=dilation, groups=groups)
        with make_server() as server:
            out = server.submit(x, w, b, padding=padding, stride=stride,
                                dilation=dilation,
                                groups=groups).result(60)
        np.testing.assert_array_equal(out, ref)

    def test_3d_input_lifted(self, rng):
        x3 = rng.standard_normal((3, 10, 10))
        w = rng.standard_normal((2, 3, 3, 3))
        ref = F.conv2d(x3[None], w, padding=1)
        with make_server(workers=1) as server:
            out = server.conv2d(x3, w, padding=1, timeout=60)
        np.testing.assert_array_equal(out, ref)

    def test_many_requests_two_families(self, rng):
        """A mixed stream over two weight families routes by affinity
        and every answer stays bit-exact."""
        w1 = rng.standard_normal((2, 3, 3, 3))
        w2 = rng.standard_normal((4, 3, 3, 3))
        xs = [rng.standard_normal((1, 3, 8, 8)) for _ in range(12)]
        refs = [F.conv2d(x, w1 if i % 2 else w2, padding=1)
                for i, x in enumerate(xs)]
        with make_server() as server:
            futures = [server.submit(x, w1 if i % 2 else w2, padding=1)
                       for i, x in enumerate(xs)]
            outs = [f.result(60) for f in futures]
        for out, ref in zip(outs, refs):
            np.testing.assert_array_equal(out, ref)


class TestWorkerKillRecovery:
    def test_sigkill_mid_load_loses_nothing(self, rng):
        """SIGKILL one replica mid-load: the router reroutes its in-flight
        work, every future resolves exactly once with the right answer."""
        w = rng.standard_normal((4, 3, 3, 3))
        xs = [rng.standard_normal((1, 3, 10, 10)) for _ in range(16)]
        refs = [F.conv2d(x, w, padding=1) for x in xs]
        with make_server(workers=2, slots=12) as server:
            # Warm both replicas so the victim holds real in-flight work.
            server.conv2d(xs[0], w, padding=1, timeout=60)
            futures = []
            victim = server.worker_pids()[0]
            killed = threading.Event()

            def kill_soon():
                time.sleep(0.01)
                os.kill(victim, signal.SIGKILL)
                killed.set()

            killer = threading.Thread(target=kill_soon)
            killer.start()
            for x in xs:
                futures.append(server.submit(x, w, padding=1))
            killer.join()
            assert killed.is_set()
            outs = [f.result(120) for f in futures]
        assert len(outs) == len(xs)  # nothing lost
        for out, ref in zip(outs, refs):  # nothing duplicated/corrupted
            np.testing.assert_array_equal(out, ref)

    def test_dead_replica_respawns(self, rng):
        w = rng.standard_normal((2, 3, 3, 3))
        x = rng.standard_normal((1, 3, 8, 8))
        with make_server(workers=2) as server:
            server.conv2d(x, w, padding=1, timeout=60)
            victim = server.worker_pids()[0]
            os.kill(victim, signal.SIGKILL)
            deadline = time.monotonic() + 30.0
            while time.monotonic() < deadline:
                pids = server.worker_pids()
                if victim not in pids and len(pids) == 2:
                    break
                time.sleep(0.05)
            pids = server.worker_pids()
            assert victim not in pids and len(pids) == 2
            # The respawned pair still serves correctly.
            out = server.conv2d(x, w, padding=1, timeout=60)
        np.testing.assert_array_equal(out, F.conv2d(x, w, padding=1))

    def test_all_workers_dead_and_closed_fails_cleanly(self, rng):
        w = rng.standard_normal((2, 3, 3, 3))
        x = rng.standard_normal((1, 3, 8, 8))
        server = make_server(workers=1)
        try:
            server.conv2d(x, w, padding=1, timeout=60)
        finally:
            server.close()
        with pytest.raises(RuntimeError, match="closed"):
            server.submit(x, w, padding=1)


class TestBackpressure:
    def test_slot_exhaustion_blocks_then_completes(self, rng):
        """More concurrent requests than slot pairs: submitters stall on
        the arena's backpressure but every request completes."""
        w = rng.standard_normal((2, 3, 3, 3))
        xs = [rng.standard_normal((1, 3, 8, 8)) for _ in range(12)]
        refs = [F.conv2d(x, w, padding=1) for x in xs]
        # 4 slots = 1 dispatch pair in flight after the weight ship +
        # margin; 12 concurrent submitters must take turns.
        with make_server(workers=1, slots=4) as server:
            server.conv2d(xs[0], w, padding=1, timeout=60)
            outs = [None] * len(xs)
            errors = []

            def submit_one(i):
                try:
                    outs[i] = server.submit(xs[i], w, padding=1).result(120)
                except Exception as exc:  # noqa: BLE001
                    errors.append((i, exc))

            threads = [threading.Thread(target=submit_one, args=(i,))
                       for i in range(len(xs))]
            for t in threads:
                t.start()
            for t in threads:
                t.join(120)
            assert not errors
        for out, ref in zip(outs, refs):
            np.testing.assert_array_equal(out, ref)

    def test_slot_wait_counter_advances(self, rng):
        from repro.observe.registry import counters

        w = rng.standard_normal((2, 3, 3, 3))
        xs = [rng.standard_normal((1, 3, 8, 8)) for _ in range(8)]
        before = counters.total("serve.cluster.slot_waits")
        with make_server(workers=1, slots=4) as server:
            server.conv2d(xs[0], w, padding=1, timeout=60)
            futures = [server.submit(x, w, padding=1) for x in xs]
            for f in futures:
                f.result(120)
        assert counters.total("serve.cluster.slot_waits") >= before


class TestTensorShipAccounting:
    def test_ack_before_ship_returns_releases_slot(self, rng, monkeypatch):
        """A weight shipment whose ack the reader handles before
        ``_ship_tensor`` returns must still give its slot back."""
        from repro.serve import router

        real_send = router.send_control
        handled = threading.Event()

        class PopSignal(dict):
            def pop(self, *args):
                try:
                    return super().pop(*args)
                finally:
                    handled.set()

        def send_then_wait_for_ack(conn, msg):
            real_send(conn, msg)
            if msg.get("kind") == "tensor":
                assert handled.wait(30), "worker never acked the tensor"
                handled.clear()

        w = rng.standard_normal((2, 3, 3, 3))
        b = rng.standard_normal(2)
        x = rng.standard_normal((1, 3, 8, 8))
        with make_server(workers=1, slots=8) as server:
            for replica in server._replicas.values():
                replica.pending_tensor_slots = PopSignal()
            monkeypatch.setattr(router, "send_control",
                                send_then_wait_for_ack)
            out = server.conv2d(x, w, b, padding=1, timeout=60)
            monkeypatch.setattr(router, "send_control", real_send)
            deadline = time.monotonic() + 10
            while server._alloc.available() < 8 \
                    and time.monotonic() < deadline:
                time.sleep(0.01)
            assert server._alloc.available() == 8
        np.testing.assert_array_equal(out, F.conv2d(x, w, b, padding=1))


    def test_fresh_weights_of_one_shape_are_each_shipped(self, rng):
        """A weight collected after its request frees its id for the next
        array of the same shape; the worker must not keep serving the
        dead array's cached copy under that id."""
        x = rng.standard_normal((1, 3, 8, 8))
        with make_server(workers=1) as server:
            for _ in range(16):
                w = rng.standard_normal((2, 3, 3, 3))
                b = rng.standard_normal(2)
                out = server.conv2d(x, w, b, padding=1, timeout=60)
                np.testing.assert_array_equal(
                    out, F.conv2d(x, w, b, padding=1))

    def test_in_place_weight_update_ships_the_new_content(self, rng):
        """A weight and bias updated in place keep their id, shape and
        dtype; the worker must not keep serving the copies shipped before
        the update."""
        x = rng.standard_normal((1, 3, 8, 8))
        w = rng.standard_normal((2, 3, 3, 3))
        b = rng.standard_normal(2)
        with make_server(workers=1, max_batch=1) as server:
            server.conv2d(x, w, b, padding=1, timeout=60)
            w *= 2
            b += 1
            out = server.conv2d(x, w, b, padding=1, timeout=60)
        np.testing.assert_array_equal(out, F.conv2d(x, w, b, padding=1))

    def test_completed_dispatch_keeps_no_weight_alive(self, rng):
        """Once a request returns, nothing the router holds pins its
        weight: the caller's ``del`` frees it."""
        x = rng.standard_normal((1, 3, 8, 8))
        with make_server(workers=1, max_batch=1) as server:
            w = rng.standard_normal((2, 3, 3, 3))
            server.conv2d(x, w, padding=1, timeout=60)
            ref = weakref.ref(w)
            del w
            # The reader thread may still be finishing the completion it
            # just delivered; give it a moment, not another message.
            deadline = time.monotonic() + 5
            while ref() is not None and time.monotonic() < deadline:
                gc.collect()
                time.sleep(0.01)
            assert ref() is None


class TestLifecycleAndStats:
    def test_close_is_idempotent(self, rng):
        server = make_server(workers=1)
        server.close()
        server.close()

    def test_stats_merge_per_replica_counters(self, rng):
        w = rng.standard_normal((2, 3, 3, 3))
        xs = [rng.standard_normal((1, 3, 8, 8)) for _ in range(6)]
        with make_server(workers=2) as server:
            for x in xs:
                server.conv2d(x, w, padding=1, timeout=60)
            stats = server.stats()
        cluster = stats["cluster"]
        assert cluster["workers"] == 2
        assert cluster["transport"] == "shm"
        assert len(cluster["replicas"]) == 2
        total_convs = sum(
            r["worker"].get("serve.cluster.worker_convs", 0)
            for r in cluster["replicas"])
        assert total_convs >= len(xs)

    def test_serve_stats_renders_replica_table(self, rng):
        from repro.observe.registry import format_serve_stats

        w = rng.standard_normal((2, 3, 3, 3))
        x = rng.standard_normal((1, 3, 8, 8))
        with make_server(workers=2) as server:
            server.conv2d(x, w, padding=1, timeout=60)
            text = format_serve_stats(server.stats())
        assert "replica" in text
        assert "cluster: 2 worker(s)" in text

    def test_unavailable_error_type_exported(self):
        from repro.serve import ClusterUnavailableError as exported

        assert exported is ClusterUnavailableError
