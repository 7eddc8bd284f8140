"""The dynamic-batching queue: wait for companions only while busy.

:class:`BatchingQueue` holds submitted requests grouped by coalescing key
and dispatches a group to its executor callback when the first of three
triggers fires:

- **size**: the group's stacked row count reaches ``max_batch`` — it is
  dispatched immediately, inline on the submitting thread;
- **idle**: no dispatched batch is outstanding anywhere in the queue
  (every rider of every batch already resolved) — the dispatcher thread
  pops the group at once, since nothing is executing that companions
  could ride behind;
- **deadline**: a batch is outstanding and the group's *oldest* request
  has waited ``max_wait_ms`` — whatever compatible requests arrived by
  then ride along (possibly a batch of one, so a lone request never
  waits longer than the deadline).

The queue is work-conserving (the adaptive-batching rule of Clipper,
Crankshaw et al., NSDI 2017): a request pays a batching wait only while
the executor is busy, which is when companions can accumulate.  A batch
is *outstanding* from its dispatch until the last of its riders' futures
resolves — completed, shed, cancelled, failed or, on the cluster, after
a reroute.  A done-callback on each rider still unresolved when the
executor returns counts the batch down, on whichever thread resolves it
(:class:`~repro.serve.router.ClusterServer`'s reader); an executor that
resolves every rider before returning
(:class:`~repro.serve.api.ConvServer`) leaves none, so its batch is
released at once.  When the last outstanding batch resolves while
groups are pending, the dispatcher is woken and flushes them.  On
:meth:`BatchingQueue.close` the remaining groups dispatch under the
**drain** trigger.

Idleness is a property of the whole queue, not of one executor: a
:class:`~repro.serve.router.ClusterServer` with several replicas counts
a batch held by any replica as busy, so while one replica works a lone
request waits up to ``max_wait_ms`` even if another replica is free.

Groups dispatch FIFO within a key, and a dispatch takes at most
``max_batch`` stacked rows (a 100-request burst of one key drains as a
train of full batches).  Idle, deadline and drain dispatches happen on
the single dispatcher thread, never inline on a submitter, so
``submit`` stays asynchronous and a one-thread burst still coalesces;
parallelism across shards is the worker pool's job
(:mod:`repro.serve.pool`), so queue order stays deterministic.

Counters (unified registry): ``serve.batches`` (one per dispatch, tagged
``trigger=`` size, idle, deadline or drain), ``serve.batch_size`` (sum
of stacked rows — mean batch size is ``batch_size / batches``),
``serve.coalesced`` (requests that shared a dispatch with at least one
other request), ``serve.queue_wait_ms`` (summed submit-to-dispatch
latency).
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from typing import Callable

from repro.observe import span
from repro.observe.registry import counters
from repro.serve.coalescer import CoalesceKey, ConvRequest
from repro.serve.overload import Overloaded, shed_expired, shed_request


class BatchingQueue:
    """Coalesce compatible requests under a size bound, dispatching at
    once while idle and within a deadline while a batch is in flight."""

    def __init__(self, execute: Callable[[list[ConvRequest]], None],
                 max_batch: int = 8, max_wait_ms: float = 2.0):
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if max_wait_ms < 0:
            raise ValueError("max_wait_ms must be >= 0")
        self._execute = execute
        self.max_batch = int(max_batch)
        self.max_wait_s = float(max_wait_ms) / 1e3
        self._cond = threading.Condition()
        self._pending: OrderedDict[CoalesceKey, list[ConvRequest]] = \
            OrderedDict()
        self._closed = False
        #: Full-batch dispatches currently running inline on submitter
        #: threads; close() must not return while any are in flight.
        self._inline_active = 0
        #: Popped batches not yet released (some rider unresolved); while
        #: none is outstanding a pending group is due at once.
        self._outstanding = 0
        self._dispatcher = threading.Thread(
            target=self._run, name="serve-dispatch", daemon=True)
        self._dispatcher.start()

    # -- producer side -------------------------------------------------------

    def submit(self, request: ConvRequest) -> None:
        """Enqueue one request; its future resolves after dispatch.

        A group that reaches ``max_batch`` is dispatched *inline on the
        submitting thread*: under a burst, handing the full batch to the
        dispatcher thread would only ping-pong the GIL between producer
        and dispatcher (each wake costs a context switch plus a GIL
        handoff), so the producer pays for its own full batches and the
        dispatcher thread handles the partial groups.  Only a *new* group
        needs a notify — the dispatcher must learn the group exists (it
        is due at once on an idle queue, at its deadline otherwise);
        riders joining a non-full group change nothing it could act on.
        """
        batch = None
        with self._cond:
            if self._closed:
                raise RuntimeError("queue is closed")
            group = self._pending.setdefault(request.key, [])
            group.append(request)
            if self._rows(group) >= self.max_batch:
                batch = self._pop_group(request.key, group)
                # Count the inline dispatch *before* dropping the lock so
                # a concurrent close() waits for it even if it has not
                # started executing yet.
                self._inline_active += 1
            elif len(group) == 1:
                self._cond.notify()
        if batch is not None:
            try:
                self._dispatch(batch, "size")
            finally:
                with self._cond:
                    self._inline_active -= 1
                    if not self._inline_active:
                        self._cond.notify_all()

    def pending_count(self) -> int:
        """Requests currently waiting (introspection and tests)."""
        with self._cond:
            return sum(len(g) for g in self._pending.values())

    def outstanding_count(self) -> int:
        """Dispatched batches not yet fully resolved (introspection and
        tests)."""
        with self._cond:
            return self._outstanding

    def shed_oldest(self) -> ConvRequest | None:
        """Evict the oldest queued request (``shed-oldest`` admission).

        The victim's future resolves with :class:`Overloaded`; returns it,
        or None when nothing is queued (everything is already executing —
        admission must then fall back to rejecting the newcomer).
        """
        with self._cond:
            oldest_key = None
            for key, group in self._pending.items():
                if oldest_key is None or group[0].enqueued_at \
                        < self._pending[oldest_key][0].enqueued_at:
                    oldest_key = key
            if oldest_key is None:
                return None
            group = self._pending[oldest_key]
            victim = group.pop(0)
            if not group:
                del self._pending[oldest_key]
        # Resolve outside the lock: done-callbacks run on this thread.
        shed_request(victim, Overloaded(
            "evicted by shed-oldest admission policy: server is at its "
            "in-flight budget"))
        return victim

    def close(self, timeout: float | None = 10.0) -> None:
        """Stop accepting requests, drain what is queued, join the
        dispatcher and every inline dispatch.  Idempotent and safe under
        concurrent submitters: no dispatch — deadline-fired on the
        dispatcher thread or full-batch-fired inline on a submitter —
        is still running when this returns.  Callable from the executor
        callback itself (the dispatcher thread is never self-joined).
        """
        deadline = None if timeout is None else time.monotonic() + timeout

        def remaining() -> float | None:
            if deadline is None:
                return None
            return max(deadline - time.monotonic(), 0.0)

        with self._cond:
            self._closed = True
            self._cond.notify_all()
            # Inline dispatches were counted under this lock before their
            # submitter released it, so none can be missed here.
            while self._inline_active:
                left = remaining()
                if left == 0.0:
                    break
                if not self._cond.wait(left):
                    break
        if threading.current_thread() is not self._dispatcher:
            self._dispatcher.join(remaining())

    # -- dispatcher side -----------------------------------------------------

    def _rows(self, group: list[ConvRequest]) -> int:
        return sum(r.batch for r in group)

    def _pop_group(self, key: CoalesceKey,
                   group: list[ConvRequest]) -> list[ConvRequest]:
        """Pop a FIFO slice of at most ``max_batch`` stacked rows from
        *group* (always at least one request); it counts as outstanding
        until :meth:`_dispatch` releases it.  Caller holds the lock."""
        self._outstanding += 1
        batch = []
        rows = 0
        while group and (not batch
                         or rows + group[0].batch <= self.max_batch):
            request = group.pop(0)
            rows += request.batch
            batch.append(request)
        if not group:
            del self._pending[key]
        return batch

    def _pop_ready(self, now: float,
                   drain: bool) -> tuple[list[ConvRequest], str] | None:
        """Pop the first due group with the trigger that fired (see the
        module docstring).  Caller holds the lock."""
        idle = not self._outstanding
        for key, group in self._pending.items():
            if self._rows(group) >= self.max_batch:
                trigger = "size"
            elif drain:
                trigger = "drain"
            elif idle:
                trigger = "idle"
            elif now - group[0].enqueued_at >= self.max_wait_s:
                trigger = "deadline"
            else:
                continue
            return self._pop_group(key, group), trigger
        return None

    def _next_deadline(self, now: float) -> float | None:
        """Seconds until the earliest group deadline (None when empty)."""
        if not self._pending:
            return None
        oldest = min(g[0].enqueued_at for g in self._pending.values())
        return max(oldest + self.max_wait_s - now, 0.0)

    def _run(self) -> None:
        while True:
            with self._cond:
                while True:
                    ready = self._pop_ready(time.monotonic(), self._closed)
                    if ready is not None:
                        break
                    if self._closed:  # closed and fully drained
                        return
                    # Woken early by a new group, close, or the last
                    # outstanding batch resolving.
                    self._cond.wait(self._next_deadline(time.monotonic()))
            self._dispatch(*ready)

    def _release_when_resolved(self, futures: list) -> None:
        """Stop counting a dispatched batch as outstanding once *futures*
        — its riders still unresolved when the executor returned — have
        all resolved.

        An executor that resolved every rider on the dispatching thread
        (:class:`~repro.serve.api.ConvServer`) leaves none, and the batch
        is released at once.  Otherwise a done-callback per rider fires
        on whichever thread resolves it (or at once, if it resolved
        meanwhile), so every outcome — result, shed, cancel, exception,
        a cluster reroute's eventual answer — counts exactly once.
        """
        left = len(futures)
        if not left:
            self._release()
            return

        def resolved(_future) -> None:
            nonlocal left
            with self._cond:
                left -= 1
                if not left:
                    self._release()

        for future in futures:
            future.add_done_callback(resolved)

    def _release(self) -> None:
        """One outstanding batch has resolved; when it was the last and
        groups wait, wake the dispatcher to flush them."""
        with self._cond:
            self._outstanding -= 1
            if not self._outstanding and self._pending:
                # All: a close() parked on inline dispatches shares the
                # condition with the dispatcher.
                self._cond.notify_all()

    def _dispatch(self, batch: list[ConvRequest], trigger: str) -> None:
        now = time.monotonic()
        # Shed dead riders at the dispatch boundary: a request whose
        # deadline expired while it waited for companions (or whose
        # future a timed-out sync caller cancelled) must never reach the
        # engine, and must not distort the batch-size counters.
        batch = shed_expired(batch, now)
        if not batch:
            self._release()
            return
        rows = self._rows(batch)
        counters.add("serve.batches", trigger=trigger)
        counters.add("serve.batch_size", rows)
        if len(batch) > 1:
            counters.add("serve.coalesced", len(batch))
        counters.add("serve.queue_wait_ms",
                     sum(now - r.enqueued_at for r in batch) * 1e3)
        try:
            with span("serve.dispatch", requests=len(batch), rows=rows):
                self._execute(batch)
        except BaseException as exc:  # noqa: BLE001 - futures carry it
            for request in batch:
                if not request.future.done():
                    request.future.set_exception(exc)
        self._release_when_resolved(
            [r.future for r in batch if not r.future.done()])
