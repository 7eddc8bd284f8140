"""Deadline propagation, admission control and typed overload errors.

The contract under test: every request's outcome is exactly one of
*completed* (bit-exact answer), *shed* (typed
:class:`~repro.serve.overload.DeadlineExceeded` / eviction) or
*rejected* (typed :class:`~repro.serve.overload.Overloaded` at the front
door) — never silence, never a late answer after a shed report, and
never leaked capacity.
"""

import contextlib
import functools
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.nn import functional as F
from repro.observe.registry import counters
from repro.serve.api import ConvServer
from repro.serve.coalescer import make_request
from repro.serve.overload import (
    DeadlineExceeded,
    Overloaded,
    ServeConfig,
    backoff_delay,
    batch_deadline,
    resolve_deadline,
    shed_expired,
)
from repro.serve.router import ClusterServer
from repro.serve.shm import SlotAllocator, SlotTimeout, TensorArena


def tiny_problem(rng, n=1):
    x = rng.standard_normal((n, 1, 4, 4))
    w = rng.standard_normal((1, 1, 3, 3))
    return x, w


@pytest.fixture(params=["ConvServer", "ClusterServer"])
def door(request):
    """A server factory for each of the two servers, which share one
    front door: admission, submit and the sync wrapper."""
    if request.param == "ConvServer":
        return ConvServer
    return functools.partial(ClusterServer, workers=1)


@contextlib.contextmanager
def batch_in_flight(server, x, w):
    """Keep one dispatched batch unresolved for the block's duration.

    An idle server dispatches a request at once; only behind an
    outstanding batch does a request wait in the queue.  ConvServer's
    first batch blocks on an event; ClusterServer's runs under the
    workers' ``slow_worker`` fault.  Yields the busy request's future,
    which resolves after the block.
    """
    if isinstance(server, ClusterServer):
        server.conv2d(x, w, padding=1, timeout=60)  # ship w, warm the plan
        server.inject_worker_faults("slow_worker", max_fires=1,
                                    params={"delay_s": 1.0})
        release = server.clear_worker_faults
    else:
        gate = threading.Event()
        execute = server._queue._execute

        def blocked(batch):
            server._queue._execute = execute
            gate.wait(30)
            return execute(batch)
        server._queue._execute = blocked
        release = gate.set
    busy = server.submit(x, w, padding=1)
    deadline = time.monotonic() + 10
    while server._queue.outstanding_count() == 0:
        assert time.monotonic() < deadline, "busy batch never dispatched"
        time.sleep(0.001)
    try:
        yield busy
    finally:
        release()
        busy.result(60)


class TestDeadlinePropagation:
    def test_expired_request_is_shed_not_executed(self, rng):
        """A dead-on-arrival deadline sheds typed at dispatch; the
        engine never runs for it."""
        x, w = tiny_problem(rng)
        with ConvServer(max_wait_ms=1.0) as server:
            before = int(counters.total("serve.shed"))
            future = server.submit(x, w, padding=1, deadline_s=1e-6)
            with pytest.raises(DeadlineExceeded):
                future.result(30)
            assert int(counters.total("serve.shed")) == before + 1

    def test_generous_deadline_completes_bit_exact(self, rng):
        x, w = tiny_problem(rng)
        ref = F.conv2d(x, w, padding=1)
        with ConvServer() as server:
            before = int(counters.total("serve.completed"))
            out = server.submit(x, w, padding=1,
                                deadline_s=60.0).result(60)
            np.testing.assert_array_equal(out, ref)
            assert int(counters.total("serve.completed")) == before + 1

    def test_deadline_exceeded_is_a_timeout_error(self):
        """Callers catching the builtin keep working."""
        assert issubclass(DeadlineExceeded, TimeoutError)
        assert issubclass(Overloaded, RuntimeError)

    def test_nonpositive_deadline_rejected_at_the_front_door(self, rng):
        x, w = tiny_problem(rng)
        with ConvServer() as server:
            with pytest.raises(ValueError, match="deadline_s"):
                server.submit(x, w, padding=1, deadline_s=0.0)
            with pytest.raises(ValueError, match="deadline_s"):
                server.submit(x, w, padding=1, deadline_s=-1.0)

    def test_conv2d_timeout_sheds_and_capacity_survives(self, rng):
        """The sync wrapper raises typed, and the slot the dead request
        held is genuinely back: the next call completes."""
        x, w = tiny_problem(rng)
        ref = F.conv2d(x, w, padding=1)
        with ConvServer(max_wait_ms=1.0,
                        config=ServeConfig(max_inflight=1)) as server:
            with pytest.raises(DeadlineExceeded):
                server.conv2d(x, w, padding=1, timeout=1e-6)
            # max_inflight=1: this only admits if the shed released it.
            out = server.conv2d(x, w, padding=1, timeout=30)
        np.testing.assert_array_equal(out, ref)

    def test_shed_expired_partitions_a_batch(self, rng):
        """The queue-side helper sheds exactly the expired riders and
        keeps the live ones, in order."""
        x, w = tiny_problem(rng)
        now = time.monotonic()
        live = make_request(x, w, None, 1, 1, 1, 1, "polyhankel", "sum",
                            None, deadline=now + 60.0)
        dead = make_request(x, w, None, 1, 1, 1, 1, "polyhankel", "sum",
                            None, deadline=now - 1.0)
        unbounded = make_request(x, w, None, 1, 1, 1, 1, "polyhankel",
                                 "sum", None, deadline=None)
        kept = shed_expired([live, dead, unbounded])
        assert kept == [live, unbounded]
        with pytest.raises(DeadlineExceeded):
            dead.future.result(0)
        assert not live.future.done() and not unbounded.future.done()

    def test_batch_deadline_is_the_maximum_rider(self, rng):
        """The worker sheds only when *every* rider is dead, so the
        batch travels with the latest deadline — and with None as soon
        as any rider is unbounded."""
        x, w = tiny_problem(rng)

        def req(deadline):
            return make_request(x, w, None, 1, 1, 1, 1, "polyhankel",
                                "sum", None, deadline=deadline)

        assert batch_deadline([req(5.0), req(9.0), req(7.0)]) == 9.0
        assert batch_deadline([req(5.0), req(None)]) is None
        assert batch_deadline([]) is None

    def test_resolve_deadline_is_absolute_monotonic(self):
        now = time.monotonic()
        deadline = resolve_deadline(10.0)
        assert deadline is not None and deadline >= now + 9.9
        assert resolve_deadline(None) is None

    def test_close_during_shed_resolves_every_future(self, rng):
        """close() racing in-flight sheds: every future still resolves
        (answer or typed error — never silence), and close returns."""
        x, w = tiny_problem(rng)
        with ConvServer(max_wait_ms=5.0) as server:
            # A mix of dead-on-arrival, tight, and unbounded deadlines
            # queued behind one flush window, then an immediate close.
            futures = [
                server.submit(x, w, padding=1,
                              deadline_s=deadline)
                for deadline in (1e-6, 1e-6, 0.002, None, None)
            ]
        # The with-block exit ran close() while sheds were in flight.
        for future in futures:
            assert future.done()
            exc = future.exception(timeout=0)
            if exc is not None:
                assert isinstance(exc, (DeadlineExceeded, RuntimeError))


class TestAdmissionControl:
    def test_reject_new_raises_typed_and_counts(self, door, rng):
        """Past the budget, reject-new refuses the newcomer while the
        queued requests keep their place."""
        x, w = tiny_problem(rng)
        config = ServeConfig(max_inflight=3, shed_policy="reject-new")
        # Behind a batch in flight, both admitted requests coalesce into
        # one waiting group (max_batch > submissions) and stay in flight
        # with it, so the next submit genuinely meets a full budget.
        with door(max_batch=8, max_wait_ms=500.0,
                  config=config) as server:
            with batch_in_flight(server, x, w):
                before = int(counters.total("serve.rejected"))
                first = server.submit(x, w, padding=1)
                second = server.submit(x, w, padding=1)
                with pytest.raises(Overloaded):
                    server.submit(x, w, padding=1)
                assert int(counters.total("serve.rejected")) == before + 1
            # The admitted requests still complete.
            first.result(30)
            second.result(30)

    def test_shed_oldest_evicts_in_favor_of_the_newcomer(self, door, rng):
        x, w = tiny_problem(rng)
        ref = F.conv2d(x, w, padding=1)
        config = ServeConfig(max_inflight=2, shed_policy="shed-oldest")
        with door(max_batch=8, max_wait_ms=500.0,
                  config=config) as server:
            # The victim waits in the queue behind a batch in flight.
            with batch_in_flight(server, x, w):
                victim = server.submit(x, w, padding=1)
                newcomer = server.submit(x, w, padding=1)
                with pytest.raises(Overloaded):
                    victim.result(30)
            np.testing.assert_array_equal(newcomer.result(30), ref)

    def test_budget_frees_on_completion(self, door, rng):
        """Sequential traffic through a budget of one never rejects —
        the done-callback releases the unit."""
        x, w = tiny_problem(rng)
        config = ServeConfig(max_inflight=1)
        with door(max_batch=8, config=config) as server:
            for _ in range(5):
                server.submit(x, w, padding=1).result(30)

    def test_sync_timeout_cancels_the_future(self, door, rng):
        """conv2d(timeout=) on a request still waiting in the queue
        raises DeadlineExceeded, cancels the future and frees its unit."""
        x, w = tiny_problem(rng)
        with door(max_batch=8, max_wait_ms=500.0) as server:
            futures = []
            with batch_in_flight(server, x, w):
                submit = server.submit

                def spy(*args, **kwargs):
                    futures.append(submit(*args, **kwargs))
                    return futures[-1]

                server.submit = spy
                with pytest.raises(DeadlineExceeded, match="cancelled"):
                    server.conv2d(x, w, padding=1, timeout=0.05)
            assert futures[0].cancelled()
            assert server._budget.inflight() == 0


class TestCloseRace:
    def test_submit_racing_close_holds_nothing(self, door, rng):
        """A submit that finds the queue already closed — the first step
        close() takes — raises, keeps no in-flight unit and leaves every
        counted request with exactly one outcome."""
        x, w = tiny_problem(rng)
        names = ("requests", "completed", "shed", "failed", "rejected")
        before = {n: counters.total(f"serve.{n}") for n in names}
        server = door(max_batch=8)
        try:
            server._queue.close()
            with pytest.raises(RuntimeError, match="closed"):
                server.submit(x, w, padding=1)
            assert server._budget.inflight() == 0
        finally:
            server.close()
        delta = {n: counters.total(f"serve.{n}") - before[n] for n in names}
        assert delta["requests"] == (delta["completed"] + delta["shed"]
                                     + delta["failed"] + delta["rejected"])


# Outcome of one scripted request: its deadline (None = unbounded) —
# tiny deadlines force sheds, generous ones complete, and a small budget
# forces front-door rejections.
_deadline = st.one_of(st.none(), st.just(1e-6), st.just(60.0))


class TestOutcomePartition:
    @settings(max_examples=10, deadline=None)
    @given(deadlines=st.lists(_deadline, min_size=1, max_size=8),
           max_inflight=st.integers(1, 4))
    def test_every_request_has_exactly_one_outcome(self, deadlines,
                                                   max_inflight):
        """completed + shed + rejected == submitted, on futures *and*
        on the counters — no silent losses, no double accounting."""
        rng = np.random.default_rng(0)
        x, w = tiny_problem(rng)
        ref = F.conv2d(x, w, padding=1)
        before = {name: int(counters.total(f"serve.{name}"))
                  for name in ("completed", "shed", "rejected")}
        config = ServeConfig(max_inflight=max_inflight)
        completed = shed = rejected = 0
        with ConvServer(max_batch=2, max_wait_ms=1.0,
                        config=config) as server:
            futures = []
            for deadline_s in deadlines:
                try:
                    futures.append(server.submit(
                        x, w, padding=1, deadline_s=deadline_s))
                except Overloaded:
                    rejected += 1
            for future in futures:
                try:
                    np.testing.assert_array_equal(future.result(30), ref)
                    completed += 1
                except (DeadlineExceeded, Overloaded):
                    shed += 1
        assert completed + shed + rejected == len(deadlines)
        after = {name: int(counters.total(f"serve.{name}"))
                 for name in ("completed", "shed", "rejected")}
        assert after["completed"] - before["completed"] == completed
        assert after["shed"] - before["shed"] == shed
        assert after["rejected"] - before["rejected"] == rejected


class TestSlotTimeout:
    def test_acquire_many_times_out_typed(self):
        """An exhausted arena raises SlotTimeout (a SlotsExhaustedError
        *and* a TimeoutError) and bumps its counter."""
        arena = TensorArena(slots=2, slot_bytes=1 << 12)
        try:
            allocator = SlotAllocator(arena)
            held = allocator.acquire_many(2)
            before = int(counters.total("serve.slot_timeout"))
            start = time.monotonic()
            with pytest.raises(SlotTimeout):
                allocator.acquire_many(1, timeout=0.05)
            assert time.monotonic() - start < 5.0
            assert int(counters.total("serve.slot_timeout")) == before + 1
            assert issubclass(SlotTimeout, TimeoutError)
            allocator.release(*held)
            # Capacity is intact after the timeout.
            assert allocator.acquire_many(2, timeout=1.0)
        finally:
            arena.close()


class TestServeConfig:
    def test_env_overrides_every_numeric_field(self):
        env = {"REPRO_SERVE_STALL_TIMEOUT_S": "3.5",
               "REPRO_SERVE_MAX_INFLIGHT": "7",
               "REPRO_SERVE_SHED_POLICY": "shed-oldest"}
        config = ServeConfig.from_env(env)
        assert config.stall_timeout_s == 3.5
        assert config.max_inflight == 7
        assert config.shed_policy == "shed-oldest"
        # Untouched fields keep the documented defaults (the router's
        # previously hardcoded timeouts).
        assert config.ping_timeout_s == 10.0
        assert config.respawn_poll_s == 0.2
        assert config.join_timeout_s == 2.0

    def test_malformed_env_fails_loudly_naming_the_variable(self):
        with pytest.raises(ValueError, match="REPRO_SERVE_STALL_TIMEOUT_S"):
            ServeConfig.from_env({"REPRO_SERVE_STALL_TIMEOUT_S": "soon"})
        with pytest.raises(ValueError, match="REPRO_SERVE_MAX_INFLIGHT"):
            ServeConfig.from_env({"REPRO_SERVE_MAX_INFLIGHT": "many"})

    def test_validation_rejects_nonsense(self):
        with pytest.raises(ValueError, match="stall_timeout_s"):
            ServeConfig(stall_timeout_s=0.0)
        with pytest.raises(ValueError, match="max_inflight"):
            ServeConfig(max_inflight=0)
        with pytest.raises(ValueError, match="shed_policy"):
            ServeConfig(shed_policy="drop-everything")

    def test_with_returns_a_validated_copy(self):
        config = ServeConfig()
        tweaked = config.with_(max_inflight=3)
        assert tweaked.max_inflight == 3 and config.max_inflight == 256
        with pytest.raises(ValueError):
            config.with_(backoff_cap_s=-1.0)


class TestBackoff:
    def test_capped_exponential_with_deterministic_jitter(self):
        delays = [backoff_delay(a, 0.05, 2.0, token="k") for a in (1, 2, 3)]
        # Exponential base growth (jitter is at most +50%).
        assert 0.05 <= delays[0] <= 0.075
        assert 0.10 <= delays[1] <= 0.15
        assert 0.20 <= delays[2] <= 0.30
        # Deterministic per (token, attempt); different tokens de-sync.
        assert delays[0] == backoff_delay(1, 0.05, 2.0, token="k")
        assert backoff_delay(20, 0.05, 2.0, token="k") == 2.0  # capped
