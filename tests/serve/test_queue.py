"""Unit tests for the dynamic-batching queue's triggers and lifecycle."""

import os
import signal
import threading
import time

import numpy as np
import pytest

from repro.nn import functional as F
from repro.observe.registry import counters
from repro.serve import BatchingQueue, ClusterServer, ConvServer, make_request
from repro.serve.overload import DeadlineExceeded, shed_request


def _resolve_all(batches):
    """Executor callback that records batches and resolves futures."""
    def execute(batch):
        batches.append(batch)
        for request in batch:
            request.future.set_result(request.x)
    return execute


class _Gated:
    """Executor that leaves its first batch outstanding — dispatched,
    futures unresolved, as a cluster dispatch in flight is — until
    ``gate`` is set, and resolves every later batch at once."""

    def __init__(self):
        self.batches = []
        self.holding = threading.Event()
        self.gate = threading.Event()
        self._releaser = None

    def __call__(self, batch):
        self.batches.append(batch)
        if self._releaser is None:
            self.holding.set()
            self._releaser = threading.Thread(
                target=self._resolve_when_gated, args=(batch,))
            self._releaser.start()
            return
        for request in batch:
            request.future.set_result(request.x)

    def _resolve_when_gated(self, batch):
        self.gate.wait(30)
        for request in batch:
            if not request.future.done():
                request.future.set_result(request.x)

    def release(self):
        self.gate.set()
        if self._releaser is not None:
            self._releaser.join(30)


def _settled(queue, timeout=5.0):
    """Whether *queue* returns to no outstanding batch within *timeout*
    (the batch's done-callback runs just after the future's waiters
    wake)."""
    deadline = time.monotonic() + timeout
    while queue.outstanding_count():
        if time.monotonic() > deadline:
            return False
        time.sleep(0.001)
    return True


def _count_resolutions(futures):
    """Per-future done-callback invocation counts (each must end at 1)."""
    counts = [0] * len(futures)
    for i, future in enumerate(futures):
        def bump(_f, i=i):
            counts[i] += 1
        future.add_done_callback(bump)
    return counts


def _batches_by(trigger):
    return counters.total("serve.batches", trigger=trigger)


@pytest.fixture
def weight(rng):
    return rng.standard_normal((2, 3, 3, 3))


def request_of(rng, weight, n=1):
    return make_request(rng.standard_normal((n, 3, 8, 8)), weight)


class TestSizeTrigger:
    def test_full_group_dispatches_inline(self, rng, weight):
        batches = []
        seen_threads = []
        resolve = _resolve_all(batches)

        def execute(batch):
            seen_threads.append(threading.get_ident())
            resolve(batch)
        queue = BatchingQueue(execute, max_batch=3, max_wait_ms=10_000)
        try:
            submitter = threading.get_ident()
            requests = [request_of(rng, weight) for _ in range(3)]
            for r in requests:
                queue.submit(r)
            # Full batch resolved synchronously, long before any deadline.
            assert all(r.future.done() for r in requests)
            assert len(batches) == 1 and len(batches[0]) == 3
            assert seen_threads == [submitter]
        finally:
            queue.close()

    def test_burst_drains_as_full_batches(self, rng, weight):
        batches = []
        queue = BatchingQueue(_resolve_all(batches), max_batch=4,
                              max_wait_ms=50)
        try:
            requests = [request_of(rng, weight) for _ in range(10)]
            for r in requests:
                queue.submit(r)
            for r in requests:
                r.future.result(timeout=5)
            assert sorted(len(b) for b in batches) == [2, 4, 4]
        finally:
            queue.close()

    def test_row_bound_counts_stacked_rows_not_requests(self, rng, weight):
        batches = []
        queue = BatchingQueue(_resolve_all(batches), max_batch=4,
                              max_wait_ms=10_000)
        try:
            # Two 2-row requests fill a 4-row batch.
            a = request_of(rng, weight, n=2)
            b = request_of(rng, weight, n=2)
            queue.submit(a)
            assert not a.future.done()
            queue.submit(b)
            assert a.future.done() and b.future.done()
            assert len(batches) == 1
        finally:
            queue.close()

    def test_oversized_rider_dispatches_alone(self, rng, weight):
        # A 3-row rider cannot join a group holding 2 rows under
        # max_batch=4 without overflowing; FIFO pops the 2-row slice
        # first, then the rider rides its own batch.
        batches = []
        queue = BatchingQueue(_resolve_all(batches), max_batch=4,
                              max_wait_ms=20)
        try:
            first = request_of(rng, weight, n=2)
            rider = request_of(rng, weight, n=3)
            queue.submit(first)
            queue.submit(rider)
            first.future.result(timeout=5)
            rider.future.result(timeout=5)
            assert sorted(len(b) for b in batches) == [1, 1]
        finally:
            queue.close()


class TestDeadlineTrigger:
    def test_lone_request_dispatches_at_deadline(self, rng, weight):
        # Behind an outstanding batch a lone request waits for
        # companions, but no longer than the deadline.
        executor = _Gated()
        queue = BatchingQueue(executor, max_batch=8, max_wait_ms=20)
        try:
            queue.submit(request_of(rng, weight))
            assert executor.holding.wait(5)
            request = request_of(rng, weight)
            start = time.monotonic()
            queue.submit(request)
            request.future.result(timeout=5)
            waited_ms = (time.monotonic() - start) * 1e3
            assert waited_ms >= 15  # honoured (most of) the deadline
            assert len(executor.batches) == 2
            assert executor.batches[1] == [request]
        finally:
            executor.release()
            queue.close()

    def test_incompatible_keys_never_share_a_batch(self, rng, weight):
        batches = []
        queue = BatchingQueue(_resolve_all(batches), max_batch=8,
                              max_wait_ms=10)
        try:
            a = request_of(rng, weight)
            b = make_request(rng.standard_normal((1, 3, 8, 8)),
                             weight.copy())  # different weight identity
            queue.submit(a)
            queue.submit(b)
            a.future.result(timeout=5)
            b.future.result(timeout=5)
            assert len(batches) == 2
            assert all(len(b) == 1 for b in batches)
        finally:
            queue.close()


class TestWorkConserving:
    """An idle queue dispatches at once; only an outstanding batch makes
    a partial group wait for companions."""

    def test_idle_queue_dispatches_a_lone_request_at_once(self, rng,
                                                          weight):
        threads = []
        resolve = _resolve_all([])

        def execute(batch):
            threads.append(threading.get_ident())
            resolve(batch)
        queue = BatchingQueue(execute, max_batch=8, max_wait_ms=2_000)
        try:
            idle_before = _batches_by("idle")
            request = request_of(rng, weight)
            start = time.monotonic()
            queue.submit(request)
            request.future.result(timeout=5)
            assert (time.monotonic() - start) * 1e3 < 500
            # On the dispatcher thread, never inline on the submitter.
            assert threads == [queue._dispatcher.ident]
            assert _batches_by("idle") == idle_before + 1
        finally:
            queue.close()

    @pytest.mark.parametrize("door", ["ConvServer", "ClusterServer"])
    def test_idle_server_dispatches_a_lone_request_at_once(self, rng,
                                                           door):
        x = rng.standard_normal((1, 3, 8, 8))
        w = rng.standard_normal((2, 3, 3, 3))
        server = (ConvServer(max_batch=8, max_wait_ms=2_000, workers=1)
                  if door == "ConvServer" else
                  ClusterServer(workers=1, max_batch=8, max_wait_ms=2_000))
        with server:
            server.conv2d(x, w, padding=1, timeout=60)  # warm plan, ship w
            assert _settled(server._queue)
            idle_before = _batches_by("idle")
            start = time.monotonic()
            out = server.submit(x, w, padding=1).result(60)
            assert (time.monotonic() - start) * 1e3 < 500
            assert _batches_by("idle") == idle_before + 1
        assert np.array_equal(out, F.conv2d(x, w, padding=1))

    def test_requests_behind_an_outstanding_batch_coalesce(self, rng,
                                                           weight):
        executor = _Gated()
        queue = BatchingQueue(executor, max_batch=8, max_wait_ms=60_000)
        try:
            first = request_of(rng, weight)
            queue.submit(first)
            assert executor.holding.wait(5)
            assert queue.outstanding_count() == 1
            riders = [request_of(rng, weight) for _ in range(3)]
            for r in riders:
                queue.submit(r)
            time.sleep(0.05)
            assert queue.pending_count() == 3  # waiting, not dispatched
            # The held batch resolving flushes the group as one batch,
            # long before the one-minute deadline.
            executor.release()
            for r in riders:
                r.future.result(timeout=5)
            assert [len(b) for b in executor.batches] == [1, 3]
            assert executor.batches[1] == riders
            assert _settled(queue)
        finally:
            executor.release()
            queue.close()

    @pytest.mark.parametrize("outcome", ["shed", "cancelled"])
    def test_outstanding_returns_to_zero_after_a_rider_ends(
            self, rng, weight, outcome):
        executor = _Gated()
        queue = BatchingQueue(executor, max_batch=8, max_wait_ms=60_000)
        try:
            held = [request_of(rng, weight) for _ in range(2)]
            counts = _count_resolutions([r.future for r in held])
            queue.submit(held[0])
            assert executor.holding.wait(5)
            # The second joins the next group, behind the held batch.
            queue.submit(held[1])
            assert queue.outstanding_count() == 1
            if outcome == "shed":
                assert shed_request(held[0], DeadlineExceeded("late"))
            else:
                assert held[0].future.cancel()
            # The held batch is resolved: the waiting group flushes.
            held[1].future.result(timeout=5)
            assert _settled(queue)
            executor.release()  # finds its rider already resolved
            assert counts == [1, 1]
        finally:
            executor.release()
            queue.close()

    def test_outstanding_returns_to_zero_after_an_executor_exception(
            self, rng, weight):
        def explode(batch):
            raise RuntimeError("engine fault")
        queue = BatchingQueue(explode, max_batch=8, max_wait_ms=60_000)
        try:
            requests = [request_of(rng, weight) for _ in range(3)]
            counts = _count_resolutions([r.future for r in requests])
            for r in requests:
                queue.submit(r)
                with pytest.raises(RuntimeError, match="engine fault"):
                    r.future.result(timeout=5)
            assert _settled(queue)
            assert counts == [1, 1, 1]
        finally:
            queue.close()

    def test_dead_on_arrival_rider_is_never_outstanding(self, rng, weight):
        batches = []
        queue = BatchingQueue(_resolve_all(batches), max_batch=8,
                              max_wait_ms=60_000)
        try:
            x = rng.standard_normal((1, 3, 8, 8))
            dead = make_request(x, weight, deadline=time.monotonic() - 1)
            queue.submit(dead)
            with pytest.raises(DeadlineExceeded):
                dead.future.result(timeout=5)
            assert queue.outstanding_count() == 0 and batches == []
            live = request_of(rng, weight)
            queue.submit(live)  # the queue is still idle: due at once
            live.future.result(timeout=5)
            assert _settled(queue)
        finally:
            queue.close()

    def test_replica_sigkill_with_reroute_settles(self, rng):
        """A batch in flight on a SIGKILLed replica is rerouted; its
        riders resolve exactly once with the right bits, and the queue
        is idle again afterwards."""
        w = rng.standard_normal((2, 3, 3, 3))
        xs = [rng.standard_normal((1, 3, 8, 8)) for _ in range(4)]
        deaths = counters.total("serve.cluster.worker_deaths")
        with ClusterServer(workers=2, max_batch=8,
                           max_wait_ms=5) as server:
            server.conv2d(xs[0], w, padding=1, timeout=60)
            assert server.inject_worker_faults(
                "slow_worker", params={"delay_s": 0.5}) == [0, 1]
            futures = [server.submit(x, w, padding=1) for x in xs]
            counts = _count_resolutions(futures)
            deadline = time.monotonic() + 30
            victim = None
            while victim is None and time.monotonic() < deadline:
                victim = next((r.pid for r in server._replicas.values()
                               if r.inflight), None)
                time.sleep(0.005)
            assert victim is not None
            os.kill(victim, signal.SIGKILL)
            outs = [f.result(60) for f in futures]
            assert _settled(server._queue)
            assert counts == [1] * len(xs)
            server.clear_worker_faults()
        assert counters.total("serve.cluster.worker_deaths") > deaths
        for out, x in zip(outs, xs):
            assert np.array_equal(out, F.conv2d(x, w, padding=1))


class TestLifecycle:
    def test_close_drains_pending(self, rng, weight):
        batches = []
        queue = BatchingQueue(_resolve_all(batches), max_batch=8,
                              max_wait_ms=60_000)
        request = request_of(rng, weight)
        queue.submit(request)
        queue.close()
        assert request.future.done()

    def test_submit_after_close_raises(self, rng, weight):
        queue = BatchingQueue(_resolve_all([]), max_batch=8)
        queue.close()
        with pytest.raises(RuntimeError, match="closed"):
            queue.submit(request_of(rng, weight))

    def test_close_is_idempotent(self):
        queue = BatchingQueue(_resolve_all([]), max_batch=8)
        queue.close()
        queue.close()

    def test_pending_count(self, rng, weight):
        queue = BatchingQueue(_resolve_all([]), max_batch=8,
                              max_wait_ms=60_000)
        try:
            assert queue.pending_count() == 0
            queue.submit(request_of(rng, weight))
            assert queue.pending_count() == 1
        finally:
            queue.close()

    def test_executor_exception_fails_futures(self, rng, weight):
        def explode(batch):
            raise RuntimeError("engine fault")
        queue = BatchingQueue(explode, max_batch=2, max_wait_ms=10)
        try:
            a = request_of(rng, weight)
            b = request_of(rng, weight)
            queue.submit(a)
            queue.submit(b)
            with pytest.raises(RuntimeError, match="engine fault"):
                a.future.result(timeout=5)
            with pytest.raises(RuntimeError, match="engine fault"):
                b.future.result(timeout=5)
        finally:
            queue.close()

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError, match="max_batch"):
            BatchingQueue(_resolve_all([]), max_batch=0)
        with pytest.raises(ValueError, match="max_wait_ms"):
            BatchingQueue(_resolve_all([]), max_wait_ms=-1)


class TestCounters:
    def test_dispatch_counters(self, rng, weight):
        counters.clear("serve.")
        queue = BatchingQueue(_resolve_all([]), max_batch=2,
                              max_wait_ms=10)
        try:
            a = request_of(rng, weight)
            b = request_of(rng, weight)
            queue.submit(a)
            queue.submit(b)
            a.future.result(timeout=5)
            assert counters.total("serve.batches") == 1
            assert counters.total("serve.batch_size") == 2
            assert counters.total("serve.coalesced") == 2
            assert counters.total("serve.queue_wait_ms") >= 0
        finally:
            queue.close()
            counters.clear("serve.")

    def test_batches_are_tagged_by_trigger(self, rng, weight):
        counters.clear("serve.")
        executor = _Gated()
        queue = BatchingQueue(executor, max_batch=2, max_wait_ms=200)
        try:
            queue.submit(request_of(rng, weight))  # idle
            assert executor.holding.wait(5)
            lone = request_of(rng, weight)
            queue.submit(lone)  # deadline: a batch is outstanding
            lone.future.result(timeout=5)
            for r in [request_of(rng, weight) for _ in range(2)]:
                queue.submit(r)  # size, inline on this thread
            last = request_of(rng, weight)
            queue.submit(last)
            queue.close()  # drain
            assert last.future.done()
            assert {t: counters.total("serve.batches", trigger=t)
                    for t in ("size", "deadline", "idle", "drain")} == \
                {"size": 1, "deadline": 1, "idle": 1, "drain": 1}
            # The untagged total still counts every dispatch.
            assert counters.total("serve.batches") == 4
            assert counters.total("serve.batch_size") == 5
        finally:
            executor.release()
            queue.close()
            counters.clear("serve.")

    def test_wait_behind_a_synchronous_execute_counts_as_idle(self, rng,
                                                              weight):
        """A group that outlived its deadline while the dispatcher thread
        itself was executing pops under ``idle`` once that batch returns:
        by then nothing is in flight."""
        counters.clear("serve.")
        started = threading.Event()
        proceed = threading.Event()

        def execute(batch):
            if not started.is_set():
                started.set()
                proceed.wait(5)
            for request in batch:
                request.future.set_result(request.x)

        queue = BatchingQueue(execute, max_batch=8, max_wait_ms=5)
        try:
            queue.submit(request_of(rng, weight))
            assert started.wait(5)
            lone = request_of(rng, weight)
            queue.submit(lone)
            time.sleep(0.02)  # past the lone group's deadline
            proceed.set()
            lone.future.result(timeout=5)
            assert counters.total("serve.batches", trigger="idle") == 2
            assert counters.total("serve.batches", trigger="deadline") == 0
        finally:
            proceed.set()
            queue.close()
            counters.clear("serve.")

    def test_lone_dispatch_not_counted_coalesced(self, rng, weight):
        counters.clear("serve.")
        queue = BatchingQueue(_resolve_all([]), max_batch=8,
                              max_wait_ms=5)
        try:
            request = request_of(rng, weight)
            queue.submit(request)
            request.future.result(timeout=5)
            assert counters.total("serve.coalesced") == 0
        finally:
            queue.close()
            counters.clear("serve.")


class TestCloseDrainRace:
    """Regressions for the close/inline-dispatch race.

    A full batch dispatches inline on its submitter thread; close() used
    to consider the queue drained the moment ``_pending`` was empty, so
    it could return while an inline dispatch was still executing — the
    cluster router then unlinked the shm arena out from under it.
    """

    def test_close_waits_for_inline_dispatch(self, rng, weight):
        entered = threading.Event()
        release = threading.Event()
        done = []

        def slow_execute(batch):
            entered.set()
            release.wait(5)
            for request in batch:
                request.future.set_result(request.x)
            done.append(len(batch))

        queue = BatchingQueue(slow_execute, max_batch=2,
                              max_wait_ms=60_000)
        requests = [request_of(rng, weight) for _ in range(2)]

        def submit_full_batch():
            for r in requests:
                queue.submit(r)

        submitter = threading.Thread(target=submit_full_batch)
        submitter.start()
        assert entered.wait(5)  # inline dispatch running on submitter

        closed = threading.Event()

        def close_queue():
            queue.close()
            closed.set()

        closer = threading.Thread(target=close_queue)
        closer.start()
        time.sleep(0.05)
        # close() must still be parked on the in-flight inline dispatch.
        assert not closed.is_set()
        release.set()
        submitter.join(5)
        closer.join(5)
        assert closed.is_set()
        assert done == [2]
        assert all(r.future.done() for r in requests)

    def test_close_from_executor_callback_does_not_self_join(
            self, rng, weight):
        # A deadline-fired dispatch runs on the dispatcher thread; an
        # executor that reacts to a fault by closing the queue must not
        # deadlock trying to join the very thread it runs on.
        queue_box = []

        def close_inside(batch):
            queue_box[0].close(timeout=2.0)
            for request in batch:
                request.future.set_result(request.x)

        queue = BatchingQueue(close_inside, max_batch=8, max_wait_ms=10)
        queue_box.append(queue)
        request = request_of(rng, weight)
        queue.submit(request)
        request.future.result(timeout=5)
        queue.close()  # outer close joins the dispatcher cleanly
        assert not queue._dispatcher.is_alive()

    def test_close_under_concurrent_submitters(self, rng, weight):
        """Hammer close() against a pack of submitters: every submitted
        request either resolves or the submit itself was refused —
        nothing hangs, nothing dispatches after close returns."""
        batches = []
        queue = BatchingQueue(_resolve_all(batches), max_batch=2,
                              max_wait_ms=5)
        accepted = []
        accepted_lock = threading.Lock()

        def submitter():
            for _ in range(20):
                request = request_of(rng, weight)
                try:
                    queue.submit(request)
                except RuntimeError:
                    return
                with accepted_lock:
                    accepted.append(request)

        threads = [threading.Thread(target=submitter) for _ in range(4)]
        for t in threads:
            t.start()
        time.sleep(0.02)
        queue.close()
        dispatched_at_close = sum(len(b) for b in batches)
        for t in threads:
            t.join(10)
        assert all(not t.is_alive() for t in threads)
        for request in accepted:
            assert request.future.done()
        # Nothing new dispatches once close has returned: stragglers all
        # hit the closed gate.
        time.sleep(0.05)
        assert sum(len(b) for b in batches) == dispatched_at_close

    def test_close_is_idempotent_after_inline_drain(self, rng, weight):
        queue = BatchingQueue(_resolve_all([]), max_batch=1,
                              max_wait_ms=10_000)
        queue.submit(request_of(rng, weight))  # inline (max_batch=1)
        queue.close()
        queue.close()
        with pytest.raises(RuntimeError, match="closed"):
            queue.submit(request_of(rng, weight))


def test_fifo_order_within_key(rng, weight):
    batches = []
    queue = BatchingQueue(_resolve_all(batches), max_batch=2,
                          max_wait_ms=10_000)
    try:
        requests = [request_of(rng, weight) for _ in range(4)]
        for r in requests:
            queue.submit(r)
        for r in requests:
            r.future.result(timeout=5)
        dispatched = [r for batch in batches for r in batch]
        assert [id(r) for r in dispatched] == [id(r) for r in requests]
    finally:
        queue.close()


def test_results_match_inputs(rng, weight):
    # The echo executor returns each request's own input; futures must
    # resolve to exactly the array that was submitted with them.
    queue = BatchingQueue(_resolve_all([]), max_batch=3, max_wait_ms=10)
    try:
        requests = [request_of(rng, weight) for _ in range(5)]
        for r in requests:
            queue.submit(r)
        for r in requests:
            assert np.array_equal(r.future.result(timeout=5), r.x)
    finally:
        queue.close()
