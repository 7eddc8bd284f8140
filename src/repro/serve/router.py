"""Front-end router of the multi-process cluster tier.

:class:`ClusterServer` is the scale-out sibling of
:class:`~repro.serve.api.ConvServer`: the same ``submit`` front door and
coalescing machinery, but execution happens on N worker *replicas* — OS
processes that each own warm plan/spectrum caches — with tensors moving
through the shared-memory slot arena (:mod:`repro.serve.shm`) instead of
pickle.

Routing is **affinity by coalescing key**: a key's home replica is a
stable hash over the live replica set, so repeated requests of one
family land where that family's weight spectrum and plan are already
warm; the router spills to the least-loaded replica when the home is
more than ``imbalance_limit`` dispatches deeper than the best
alternative.  Per-replica health rides the guard's
:class:`~repro.guard.breaker.CircuitBreaker` under key
``("replica", id)``: a transport failure opens the breaker, routing
steers around the replica, and the supervisor thread respawns it and
closes the breaker once the fresh process answers a ping.

Failure semantics: every dispatch's request/response slots stay held
until its futures resolve, so when a replica dies mid-load the router
re-sends the *same* generation-stamped slots to a surviving replica —
no request is lost, and because a future resolves exactly once no
request is duplicated (re-executing the pure convolution is idempotent;
only the first completion lands).

Everything lands in the unified observe registry: router-side events are
tagged ``replica=<id>`` and each worker's own counters are delta-merged
under ``proc="replica<id>"`` (see
:meth:`repro.observe.registry.CounterRegistry.merge_rows`), so
``repro serve-stats``'s per-replica table and ``ClusterServer.stats()``
read one source of truth.
"""

from __future__ import annotations

import functools
import itertools
import os
import signal
import threading
import time
import weakref
from concurrent.futures import Future, wait

import numpy as np

from repro.guard import faults
from repro.guard.breaker import CircuitBreaker
from repro.guard.state import guard_enabled
from repro.observe.registry import counters
from repro.serve.api import _FrontDoor
from repro.serve.cluster import get_cluster_context, spawn_worker
from repro.serve.coalescer import (
    CoalesceKey,
    ConvRequest,
    split_result,
    stack_requests,
)
from repro.serve.overload import (
    DeadlineExceeded,
    ServeConfig,
    backoff_delay,
    batch_deadline,
    shed_expired,
    shed_request,
)
from repro.serve.shm import (
    SlotAllocator,
    SlotTimeout,
    TensorArena,
    send_control,
)

DEFAULT_SLOTS = 32
DEFAULT_SLOT_BYTES = 1 << 20


class ClusterUnavailableError(RuntimeError):
    """No live replica could take the dispatch (all dead or excluded)."""


class _Dispatch:
    """One routed unit: a coalesced batch pinned to its arena slots."""

    __slots__ = ("requests", "key", "stacked", "in_slot", "in_seq",
                 "out_slot", "attempts", "sent_at")

    def __init__(self, requests: list[ConvRequest], stacked: np.ndarray):
        self.requests = requests
        self.key: CoalesceKey = requests[0].key
        self.stacked = stacked
        self.in_slot: int | None = None
        self.in_seq: int | None = None
        self.out_slot: int | None = None
        self.attempts = 0
        #: monotonic time of the most recent send (watchdog aging).
        self.sent_at: float | None = None

    @property
    def rows(self) -> int:
        return int(self.stacked.shape[0])

    def fail(self, exc: BaseException) -> None:
        for request in self.requests:
            if not request.future.done():
                request.future.set_exception(exc)


class _Replica:
    """Router-side state of one worker process."""

    __slots__ = ("id", "process", "conn", "send_lock", "reader",
                 "inflight", "shipped", "pending_tensor_slots", "alive",
                 "served", "generation", "started_at")

    def __init__(self, replica_id: int):
        self.id = replica_id
        self.process = None
        self.conn = None
        self.send_lock = threading.Lock()
        self.reader: threading.Thread | None = None
        #: req_id -> _Dispatch sent to this replica and not yet answered.
        self.inflight: dict[int, _Dispatch] = {}
        #: Tensor fingerprints this replica has cached.
        self.shipped: set = set()
        #: Arena slots lent out for in-flight weight shipments.
        self.pending_tensor_slots: dict[int, int] = {}
        self.alive = False
        self.served = 0
        #: Spawn counter; heartbeats carry it so a predecessor's stale
        #: stamp never vouches for the current process.
        self.generation = 0
        self.started_at = 0.0

    @property
    def pid(self) -> int | None:
        return self.process.pid if self.process is not None else None


class ClusterServer(_FrontDoor):
    """Multi-process serving tier with shared-memory tensor transport.

    A request whose batch fits under ``max_batch`` goes through the
    batching queue; at ``max_batch=1`` each such request is a full group
    and dispatches inline on the submitting thread.  A larger one is
    routed alone.
    """

    def __init__(self, workers: int | None = None, *,
                 slots: int = DEFAULT_SLOTS,
                 slot_bytes: int = DEFAULT_SLOT_BYTES,
                 max_batch: int = 1, max_wait_ms: float = 2.0,
                 supervised: bool | None = None,
                 start_method: str | None = None,
                 max_retries: int = 2, breaker_ttl_s: float = 30.0,
                 imbalance_limit: int = 2,
                 slot_timeout_s: float = 30.0,
                 config: ServeConfig | None = None):
        from repro.serve.pool import default_workers

        self.workers = int(workers) if workers else default_workers()
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if slots < 4:
            raise ValueError("slots must be >= 4 (a dispatch pins a "
                             "request and a response slot, plus weight "
                             "shipments)")
        # Before any worker spawns: the queue validates max_batch.
        super().__init__(max_batch, max_wait_ms, config)
        self.max_retries = int(max_retries)
        self.breaker_ttl_s = float(breaker_ttl_s)
        self.imbalance_limit = int(imbalance_limit)
        self.slot_timeout_s = float(slot_timeout_s)
        self._supervised = guard_enabled() if supervised is None \
            else bool(supervised)
        self._ctx = get_cluster_context(start_method)
        # One heartbeat slot per replica rides at the end of the arena.
        self._arena = TensorArena(slots=slots, slot_bytes=slot_bytes,
                                  heartbeats=self.workers)
        # One slot stays reserved for weight shipments: dispatch pairs
        # are held until completion, and a full arena would otherwise
        # deadlock a reroute that must ship the weight to a fresh
        # replica before any pinned dispatch can finish.
        self._alloc = SlotAllocator(self._arena, reserved=1)
        self._lock = threading.RLock()
        self._drained = threading.Condition(self._lock)
        self._req_ids = itertools.count(1)
        #: token -> future of a control order's reply (ping, stats pull,
        #: fault order); the reader resolves it with the reply message.
        self._replies: dict[int, Future] = {}
        self._token_ids = itertools.count(1)
        #: fingerprint -> (weakref, content snapshot) of each shipped
        #: array (see _tensor_fingerprint and _forget_tensor).
        self._watched: dict[tuple, tuple] = {}
        #: Set once close() has drained: replicas are being stopped.
        self._stopped = False
        self._respawn_wanted = threading.Event()
        self._watchdog_stop = threading.Event()
        self._replicas: dict[int, _Replica] = {}
        self._breaker = CircuitBreaker()
        for i in range(self.workers):
            replica = _Replica(i)
            self._replicas[i] = replica
            self._start_replica(replica)
        self._supervisor = threading.Thread(
            target=self._supervise, name="cluster-supervisor", daemon=True)
        self._supervisor.start()
        self._watchdog = threading.Thread(
            target=self._watch, name="cluster-watchdog", daemon=True)
        self._watchdog.start()

    # -- replica lifecycle ---------------------------------------------------

    def _start_replica(self, replica: _Replica) -> None:
        # The swap happens under send_lock so a concurrent sender either
        # sees the old incarnation whole (and its failure reroutes) or
        # the new one whole — never a fresh conn paired with the old
        # ``shipped`` set, which would skip a weight the new process
        # doesn't have.
        with replica.send_lock:
            replica.generation += 1
            process, conn = spawn_worker(replica.id, self._arena,
                                         self._supervised, self._ctx,
                                         generation=replica.generation)
            replica.process = process
            replica.conn = conn
            replica.shipped = set()
            replica.pending_tensor_slots = {}
            replica.started_at = time.monotonic()
            replica.alive = True
            generation = replica.generation
        replica.reader = threading.Thread(
            target=self._reader, args=(replica, conn, generation),
            name=f"cluster-reader-{replica.id}", daemon=True)
        replica.reader.start()

    def _supervise(self) -> None:
        """Respawn dead replicas until the server closes."""
        while not self._stopped:
            self._respawn_wanted.wait(timeout=self.config.respawn_poll_s)
            self._respawn_wanted.clear()
            if self._stopped:
                return
            with self._lock:
                dead = [r for r in self._replicas.values() if not r.alive]
            for replica in dead:
                if self._stopped:
                    return
                try:
                    self._start_replica(replica)
                except Exception:  # pragma: no cover - spawn failure
                    continue
                counters.add("serve.cluster.respawns",
                             replica=replica.id)
                # The breaker stays open until the fresh process answers
                # a ping — a replica that dies during startup never
                # takes traffic.
                if self._ask([replica], {"kind": "ping"},
                             self.config.ping_timeout_s):
                    self._breaker.record_success(("replica", replica.id))

    def _watch(self) -> None:
        """Quarantine stalled-but-alive replicas (liveness watchdog).

        A replica is *stalled* when all three hold: it has in-flight
        work, its oldest dispatch has aged past ``stall_timeout_s``, and
        its heartbeat (or, for a stamp from an earlier generation, its
        spawn time) is older than ``stall_timeout_s``.  The triple rule
        keeps every benign case out: idle workers have no in-flight
        work, busy-but-healthy workers heartbeat between orders, and a
        single long-running order ages the dispatch but the conjunction
        with the heartbeat means only a worker that stopped *processing*
        — not one that is merely slow to answer one order — draws the
        kill.  (A worker stays silent through a multi-second convolution
        too; ``stall_timeout_s`` must exceed the longest legitimate
        order, exactly like any liveness timeout.)

        Quarantine is SIGKILL: the process may be SIGSTOP'd or wedged in
        C code where no cooperative shutdown can reach, and SIGKILL is
        delivered even to stopped processes.  The pipe EOF then drives
        the normal death path — preserved slots reroute to a surviving
        replica, the supervisor respawns a fresh generation.
        """
        while not self._watchdog_stop.wait(self.config.watchdog_interval_s):
            if self._stopped:
                return
            now = time.monotonic()
            with self._lock:
                stalled = [r for r in self._replicas.values()
                           if self._is_stalled(r, now)]
            for replica in stalled:
                self._quarantine(replica)

    def _is_stalled(self, replica: _Replica, now: float) -> bool:
        """Stall predicate; caller holds the router lock."""
        if not replica.alive or not replica.inflight:
            return False
        oldest = min((d.sent_at for d in replica.inflight.values()
                      if d.sent_at is not None), default=None)
        if oldest is None or now - oldest <= self.config.stall_timeout_s:
            return False
        try:
            hb = self._arena.read_heartbeat(replica.id)
        except Exception:  # pragma: no cover - arena torn down
            return False
        if int(hb["generation"]) == replica.generation and hb["stamp"] > 0:
            # Stale stamp + old in-flight work = wedged.  (The stamp
            # alone is deliberately NOT compared against the order's
            # send time: an order queued behind earlier orders sees the
            # stamp advance legitimately, so that shortcut would kill
            # healthy replicas under queueing.  A worker whose reply
            # path wedged keeps beating while busy but goes silent once
            # its pipe drains — the stale-stamp rule catches it then.)
            age = now - float(hb["stamp"])
        else:
            # No stamp from this spawn yet: age from process start so a
            # worker wedged before its first beat is still caught.
            age = now - replica.started_at
        return age > self.config.stall_timeout_s

    def _quarantine(self, replica: _Replica) -> None:
        """SIGKILL a stalled replica; the reader's EOF does the rest."""
        counters.add("serve.cluster.stalls", replica=replica.id)
        self._breaker.record_failure(("replica", replica.id),
                                     threshold=1, ttl_s=self.breaker_ttl_s)
        pid = replica.pid
        if pid is not None:
            try:
                os.kill(pid, signal.SIGKILL)
            except (ProcessLookupError, PermissionError):
                pass  # already gone; EOF path will run regardless

    def _on_replica_death(self, replica: _Replica,
                          generation: int | None = None) -> None:
        """Reroute a dead replica's in-flight work and queue a respawn.

        *generation* scopes the declaration to one incarnation: a reader
        EOF or send failure on the old pipe that lands after the
        supervisor already respawned the replica must not take down the
        fresh process it knows nothing about.
        """
        with self._lock:
            if not replica.alive:
                return
            if generation is not None \
                    and generation != replica.generation:
                return
            replica.alive = False
            process = replica.process
            pending = list(replica.inflight.values())
            replica.inflight.clear()
            tensor_slots = list(replica.pending_tensor_slots.values())
            replica.pending_tensor_slots = {}
        # Death is authoritative: routing now ignores this incarnation,
        # so a process that somehow survived its broken transport would
        # leak.  SIGKILL is idempotent on the (usual) already-dead case.
        if process is not None and process.is_alive():
            try:
                process.kill()
            except Exception:  # pragma: no cover - reaped concurrently
                pass
        if self._stopped:
            for dispatch in pending:
                dispatch.fail(ClusterUnavailableError(
                    "cluster server closed while request was in flight"))
                self._release_dispatch_slots(dispatch)
            if tensor_slots:
                self._alloc.release(*tensor_slots)
            self._notify_drained()
            return
        counters.add("serve.cluster.worker_deaths", replica=replica.id)
        self._breaker.record_failure(("replica", replica.id),
                                     threshold=1, ttl_s=self.breaker_ttl_s)
        if tensor_slots:
            self._alloc.release(*tensor_slots)
        for dispatch in pending:
            dispatch.attempts += 1
            self._route(dispatch, exclude=frozenset({replica.id}))
        self._respawn_wanted.set()

    # -- execution -----------------------------------------------------------

    def _run_alone(self, request: ConvRequest) -> None:
        self._execute_batch([request])

    def _execute_batch(self, batch: list[ConvRequest]) -> None:
        # No router lock here: _route can block on slot backpressure, and
        # the reader threads that free slots need the lock to complete
        # dispatches.  _route/_send_dispatch take it only around the
        # shared maps they touch.
        batch = shed_expired(batch)
        if not batch:
            return
        dispatch = _Dispatch(batch, stack_requests(batch))
        self._route(dispatch)

    # -- routing and transport -----------------------------------------------

    def _pick_replica(self, key: CoalesceKey,
                      exclude: frozenset = frozenset()) -> _Replica | None:
        with self._lock:
            alive = [r for r in self._replicas.values()
                     if r.alive and r.id not in exclude]
            if not alive:
                alive = [r for r in self._replicas.values() if r.alive]
            if not alive:
                return None
            healthy = [r for r in alive
                       if not self._breaker.is_open(("replica", r.id))]
            candidates = healthy or alive
            home = candidates[hash(key) % len(candidates)]
            least = min(candidates, key=lambda r: len(r.inflight))
            if len(home.inflight) - len(least.inflight) \
                    > self.imbalance_limit:
                return least
            return home

    def _route(self, dispatch: _Dispatch,
               exclude: frozenset = frozenset()) -> None:
        """Send *dispatch* to a replica, retrying transport failures.

        Retries are paced by capped exponential backoff with
        deterministic jitter (:func:`~repro.serve.overload.backoff_delay`
        keyed on the dispatch's coalescing key), and every pass first
        sheds riders whose deadline lapsed while the dispatch waited —
        a batch whose riders are all dead is dropped without a send.
        """
        while True:
            if dispatch.attempts > self.max_retries:
                dispatch.fail(ClusterUnavailableError(
                    f"dispatch failed after {dispatch.attempts} "
                    f"attempt(s)"))
                self._release_dispatch_slots(dispatch)
                self._notify_drained()
                return
            if dispatch.attempts > 0:
                time.sleep(backoff_delay(
                    dispatch.attempts, self.config.backoff_base_s,
                    self.config.backoff_cap_s, token=dispatch.key))
            # Shed expired riders *in place* (their futures resolve but
            # the list keeps its shape — split_result needs row
            # alignment if the batch still flies); drop the dispatch
            # entirely once nobody is left waiting.
            now = time.monotonic()
            for request in dispatch.requests:
                if request.expired(now):
                    waited = (now - request.enqueued_at) * 1e3
                    shed_request(request, DeadlineExceeded(
                        f"request deadline exceeded before cluster "
                        f"dispatch (waited {waited:.1f}ms)"))
            if all(r.future.done() for r in dispatch.requests):
                self._release_dispatch_slots(dispatch)
                self._notify_drained()
                return
            replica = self._pick_replica(dispatch.key, exclude)
            if replica is None:
                dispatch.fail(ClusterUnavailableError(
                    "no live replica available"))
                self._release_dispatch_slots(dispatch)
                self._notify_drained()
                return
            generation = replica.generation
            try:
                self._send_dispatch(replica, dispatch)
                return
            except SlotTimeout:
                # Arena pressure, not a replica problem (SlotTimeout is
                # an OSError — catch it first or a starved weight
                # shipment reads as transport death and the router kills
                # a healthy worker).  Back off and retry the same pool.
                dispatch.attempts += 1
            except (OSError, ValueError, EOFError):
                # Transport died under us: mark the replica, try
                # another.  The death is scoped to the generation we
                # picked — if the supervisor respawned meanwhile, the
                # failure belonged to the old pipe and the fresh process
                # stays up.
                dispatch.attempts += 1
                exclude = exclude | {replica.id}
                self._on_replica_death(replica, generation)
            except Exception as exc:
                dispatch.fail(exc)
                self._release_dispatch_slots(dispatch)
                self._notify_drained()
                return

    def _tensor_fingerprint(self, kind: str, array: np.ndarray) -> tuple:
        # id() is stable while the request pins the array (ConvRequest
        # holds strong references); once the array is collected,
        # _forget_tensor drops the fingerprint so a later array at the
        # same id is shipped afresh.  An array whose content no longer
        # matches what was shipped (an in-place update) is forgotten the
        # same way, so every replica is sent the new content.
        fp = (kind, id(array), array.shape, str(array.dtype))
        watched = self._watched.get(fp)
        if watched is not None and not np.array_equal(watched[1], array):
            self._forget_tensor(fp)
        return fp

    def _forget_tensor(self, fp: tuple, _ref=None) -> None:
        """Weakref callback: the array behind *fp* was collected."""
        self._watched.pop(fp, None)
        for replica in self._replicas.values():
            replica.shipped.discard(fp)

    def _ship_tensor(self, replica: _Replica, fp: tuple,
                     array: np.ndarray, spec=None) -> None:
        """Send one weight/bias into the replica's tensor cache."""
        # use_reserve: a shipment is transient (freed on the worker's
        # ack or the replica's death) and must go through even when
        # long-lived dispatch pairs have pinned every ordinary slot.
        slot = self._alloc.acquire(timeout=self.slot_timeout_s,
                                   use_reserve=True)
        # Recorded before the send: the reader may handle the worker's
        # ack before send_control returns, and the ack is what frees it.
        with self._lock:
            replica.pending_tensor_slots[slot] = slot
        try:
            seq = self._arena.write(slot, np.asarray(array, dtype=float))
            send_control(replica.conn, {"kind": "tensor", "fp": fp,
                                        "slot": slot, "seq": seq,
                                        "spec": spec})
        except BaseException:
            with self._lock:
                slot = replica.pending_tensor_slots.pop(slot, None)
            if slot is not None:
                self._alloc.release(slot)
            raise
        replica.shipped.add(fp)
        if fp not in self._watched:
            self._watched[fp] = (
                weakref.ref(array, functools.partial(self._forget_tensor,
                                                     fp)),
                np.array(array))
        counters.add("serve.cluster.tensor_ships", replica=replica.id)

    def _plan_spec(self, key: CoalesceKey, x: np.ndarray,
                   weight: np.ndarray):
        """The family's PlanSpec, for worker-side plan rehydration.

        Every forward PolyHankel op has one (its plan is rank-generic); a
        transposed op runs its adjoint problem and warms on first use.
        """
        if key.op == "conv_transpose2d" or key.algorithm != "polyhankel":
            return None
        try:
            from repro.baselines.registry import op_shape
            from repro.core.planning import PlanSpec

            shape = op_shape(key.op, x.shape, weight.shape, key.padding,
                             key.stride, key.dilation, key.groups)
            return PlanSpec(shape, "auto", key.strategy, key.backend)
        except Exception:
            return None

    def _send_dispatch(self, replica: _Replica,
                       dispatch: _Dispatch) -> None:
        key = dispatch.key
        first = dispatch.requests[0]
        if dispatch.in_slot is None:
            # First routing of this dispatch: pin its slot pair.  Both
            # slots are taken atomically (see SlotAllocator) and stay
            # held across retries, so a rerouted dispatch never re-waits
            # on backpressure while holding half its slots.
            in_slot, out_slot = self._alloc.acquire_many(
                2, timeout=self.slot_timeout_s)
            dispatch.in_slot, dispatch.out_slot = in_slot, out_slot
            dispatch.in_seq = self._arena.write(in_slot, dispatch.stacked)
        req_id = next(self._req_ids)
        weight_fp = self._tensor_fingerprint("w", first.weight)
        bias_fp = None if first.bias is None \
            else self._tensor_fingerprint("b", first.bias)
        params = {
            "padding": key.padding, "stride": key.stride,
            "dilation": key.dilation, "groups": key.groups,
            "algorithm": key.algorithm, "strategy": key.strategy,
            "backend": key.backend, "op": key.op,
            "output_padding": key.output_padding,
        }
        with replica.send_lock:
            # Pipe order guarantees the worker caches tensors before the
            # conv order that references them arrives.
            if weight_fp not in replica.shipped:
                self._ship_tensor(replica, weight_fp, first.weight,
                                  spec=self._plan_spec(
                                      key, dispatch.stacked, first.weight))
            if bias_fp is not None and bias_fp not in replica.shipped:
                self._ship_tensor(replica, bias_fp, first.bias)
            with self._lock:
                replica.inflight[req_id] = dispatch
            try:
                send_control(replica.conn, {
                    "kind": "conv", "req": req_id,
                    "in_slot": dispatch.in_slot,
                    "in_seq": dispatch.in_seq,
                    "out_slot": dispatch.out_slot,
                    "weight_fp": weight_fp, "bias_fp": bias_fp,
                    # The batch deadline (max over riders; None when any
                    # rider is unbounded): once it passes, *every* rider
                    # is dead, so the worker may shed the whole order.
                    "deadline": batch_deadline(dispatch.requests),
                    "params": params,
                })
            except BaseException:
                with self._lock:
                    replica.inflight.pop(req_id, None)
                raise
        dispatch.sent_at = time.monotonic()
        counters.add("serve.cluster.dispatches", replica=replica.id)
        counters.add("serve.cluster.dispatch_rows", dispatch.rows,
                     replica=replica.id)

    def _release_dispatch_slots(self, dispatch: _Dispatch) -> None:
        slots = [s for s in (dispatch.in_slot, dispatch.out_slot)
                 if s is not None]
        dispatch.in_slot = dispatch.out_slot = None
        if not slots:
            return
        if faults._STACK and faults.should_leak_slots():
            # Chaos drill: simulate a slot-accounting bug by "forgetting"
            # this release.  The arena simply runs on reduced capacity;
            # the counter is what lets the drill (and an operator)
            # notice.
            counters.add("serve.cluster.slot_leaks", len(slots))
            return
        self._alloc.release(*slots)

    # -- completion side -----------------------------------------------------

    def _reader(self, replica: _Replica, conn,
                generation: int | None = None) -> None:
        """Drain one replica's completions until its pipe dies."""
        while True:
            try:
                msg = recv_control_from(conn)
            except (EOFError, OSError):
                self._on_replica_death(replica, generation)
                return
            # One call per message: the dispatch a message completes
            # must not outlive it as a local of this loop, which waits in
            # recv until the replica next speaks.
            self._on_message(replica, msg)

    def _on_message(self, replica: _Replica, msg: dict) -> None:
        """Act on one message from *replica*'s worker."""
        kind = msg["kind"]
        if kind == "done":
            with self._lock:
                dispatch = replica.inflight.pop(msg["req"], None)
            if dispatch is None:
                return  # answered by a retry on another replica
            self._complete(replica, dispatch, msg["seq"])
        elif kind == "error":
            with self._lock:
                dispatch = replica.inflight.pop(msg["req"], None)
            if dispatch is None:
                return
            counters.add("serve.cluster.worker_errors", replica=replica.id)
            dispatch.attempts += 1
            if dispatch.attempts > self.max_retries:
                dispatch.fail(RuntimeError(
                    f"cluster worker {replica.id} failed: "
                    f"{msg['error']}"))
                self._release_dispatch_slots(dispatch)
                self._notify_drained()
            else:
                self._route(dispatch, exclude=frozenset({replica.id}))
        elif kind == "shed":
            # The worker found every rider's deadline already past and
            # declined to execute; resolve the riders typed and free the
            # slot pair.
            with self._lock:
                dispatch = replica.inflight.pop(msg["req"], None)
            if dispatch is None:
                return
            counters.add("serve.cluster.worker_sheds", replica=replica.id)
            for request in dispatch.requests:
                shed_request(request, DeadlineExceeded(
                    "request deadline exceeded before cluster "
                    "execution (shed by the worker)"))
            self._release_dispatch_slots(dispatch)
            self._notify_drained()
        elif kind in ("tensor_ok", "tensor_err"):
            with self._lock:
                slot = replica.pending_tensor_slots.pop(msg["slot"], None)
            if slot is not None:
                self._alloc.release(slot)
            if kind == "tensor_err":
                replica.shipped.discard(msg["fp"])
        elif kind in ("pong", "stats", "fault_ok", "fault_err"):
            if kind == "stats":
                counters.merge_rows(f"replica{replica.id}", msg["rows"])
            reply = self._replies.pop(msg["token"], None)
            if reply is not None:
                reply.set_result(msg)

    def _complete(self, replica: _Replica, dispatch: _Dispatch,
                  out_seq: int) -> None:
        try:
            out = self._arena.read(dispatch.out_slot, out_seq, copy=True)
        except Exception as exc:
            dispatch.fail(exc)
            self._release_dispatch_slots(dispatch)
            self._notify_drained()
            return
        self._release_dispatch_slots(dispatch)
        self._breaker.record_success(("replica", replica.id))
        results = split_result(out, dispatch.requests)
        served = 0
        for request, result in zip(dispatch.requests, results):
            if not request.future.done():
                request.future.set_result(result)
                served += 1
        replica.served += served
        counters.add("serve.cluster.served", served, replica=replica.id)
        self._notify_drained()

    def _notify_drained(self) -> None:
        with self._drained:
            self._drained.notify_all()

    def _inflight_count(self) -> int:
        with self._lock:
            return sum(len(r.inflight) for r in self._replicas.values())

    # -- introspection -------------------------------------------------------

    def worker_pids(self) -> list[int]:
        with self._lock:
            return [r.pid for r in self._replicas.values()
                    if r.pid is not None]

    def _live_replicas(self, ids: list[int] | None = None) -> list[_Replica]:
        """Live replicas, all of them or those whose id is in *ids*."""
        with self._lock:
            return [r for r in self._replicas.values()
                    if r.alive and (ids is None or r.id in ids)]

    # -- control orders ------------------------------------------------------

    def _ask(self, replicas: list[_Replica], order: dict,
             timeout: float) -> dict[int, dict]:
        """Send *order* to each replica, then wait for the replies.

        Each send carries a fresh token whose future in ``_replies`` the
        reader resolves with the reply message.  The wait is *timeout*
        seconds for all replicas together.  Returns the replies by
        replica id; a replica whose pipe is broken or that does not
        answer in time is left out.
        """
        asked = []
        for replica in replicas:
            token = next(self._token_ids)
            reply = self._replies[token] = Future()
            try:
                with replica.send_lock:
                    send_control(replica.conn, dict(order, token=token))
            except (OSError, ValueError):
                self._replies.pop(token, None)
                continue
            asked.append((token, replica.id, reply))
        wait([reply for _, _, reply in asked], timeout)
        for token, _, _ in asked:
            self._replies.pop(token, None)
        return {replica_id: reply.result()
                for _, replica_id, reply in asked if reply.done()}

    def _fault_order(self, order: dict, replica_ids: list[int] | None,
                     timeout: float) -> list[int]:
        """Send one fault-control order; returns the ids that acked.

        A worker-side rejection (``fault_err`` — e.g. an unknown fault
        kind) raises :class:`ValueError` with the worker's message: a
        drill that thinks it armed a fault when the worker refused would
        assert recovery that never happened.
        """
        replicas = self._live_replicas(replica_ids)
        replies = self._ask(replicas, order, timeout)
        for replica_id, reply in replies.items():
            if reply["kind"] == "fault_err":
                raise ValueError(
                    f"replica {replica_id} rejected fault order: "
                    f"{reply.get('error', 'unknown error')}")
        return [r.id for r in replicas if r.id in replies]

    def inject_worker_faults(self, *kinds: str,
                             replica_ids: list[int] | None = None,
                             seed: int = 0, rate: float = 1.0,
                             max_fires: int | None = None,
                             params: dict | None = None,
                             timeout: float = 5.0) -> list[int]:
        """Arm fault injection inside worker processes (chaos drills).

        Sends an ``inject`` order to the chosen replicas (*all* when
        *replica_ids* is None) and waits for each acknowledgement;
        returns the ids that acked.  Validation happens worker-side with
        the same :class:`~repro.guard.faults.FaultState` rules as
        in-process injection.  Router-side faults (``slot_leak``) are
        armed with :func:`repro.guard.faults.inject` in the caller
        instead.
        """
        order = {"kind": "inject", "kinds": list(kinds), "seed": seed,
                 "rate": rate, "max_fires": max_fires,
                 "params": params or {}}
        return self._fault_order(order, replica_ids, timeout)

    def clear_worker_faults(self, replica_ids: list[int] | None = None,
                            timeout: float = 5.0) -> list[int]:
        """Disarm every control-plane fault on the chosen replicas."""
        return self._fault_order({"kind": "clear_faults"}, replica_ids,
                                 timeout)

    def refresh_worker_stats(self, timeout: float = 2.0) -> None:
        """Pull every live replica's counter snapshot into the registry."""
        self._ask(self._live_replicas(), {"kind": "stats"}, timeout)
        # Replica workers record per-arm selection timings as counters;
        # the merge above lands them proc-tagged in the registry.  Fold
        # their growth into the router's bandit so the whole cluster
        # learns from every replica's measurements.
        from repro.selection.bandit import active_bandit

        bandit = active_bandit()
        if bandit is not None:
            bandit.ingest_replica_rows()

    def stats(self, refresh: bool = True) -> dict:
        """Aggregated router + per-replica view of the cluster."""
        from repro.observe.registry import replica_stats, serve_stats

        if refresh and not self._stopped:
            self.refresh_worker_stats()
        breaker = self._breaker.snapshot()
        merged = replica_stats()
        with self._lock:
            replicas = []
            for r in sorted(self._replicas.values(), key=lambda r: r.id):
                key = ("replica", r.id)
                replicas.append({
                    "id": r.id, "pid": r.pid, "alive": r.alive,
                    "served": r.served, "inflight": len(r.inflight),
                    "breaker_open": key in breaker["open"],
                    "failures": breaker["failures"].get(key, 0),
                    "worker": merged.get(f"replica{r.id}", {}),
                })
        stats = serve_stats()
        stats["cluster"] = {
            "workers": self.workers,
            "transport": "shm",
            "arena": {"slots": self._arena.slots,
                      "slot_bytes": self._arena.slot_bytes,
                      "free": self._alloc.available()},
            "replicas": replicas,
        }
        return stats

    # -- lifecycle -----------------------------------------------------------

    def _shutdown(self, timeout: float | None) -> None:
        """Drain in-flight work, stop workers, unlink the arena."""
        deadline = None if timeout is None \
            else time.monotonic() + timeout
        with self._drained:
            while self._inflight_count():
                remaining = None if deadline is None \
                    else deadline - time.monotonic()
                if remaining is not None and remaining <= 0:
                    break
                self._drained.wait(remaining if remaining is None
                                   else min(remaining, 0.5))
        # Final pull of replica arm timings while the workers still run;
        # close() then persists the learned selection table.
        from repro.selection.bandit import active_bandit

        if active_bandit() is not None:
            self.refresh_worker_stats(timeout=1.0)
        self._stopped = True
        self._respawn_wanted.set()
        self._watchdog_stop.set()
        # Join the supervisor before snapshotting: a respawn completing
        # after the snapshot would put up a fresh worker no stop order
        # ever reaches.  Once the join returns, any replica it spawned
        # is in the snapshot below.
        if self._supervisor.is_alive():
            self._supervisor.join(
                timeout=self.config.ping_timeout_s + 1.0)
        with self._lock:
            replicas = list(self._replicas.values())
        for replica in replicas:
            if replica.alive and replica.conn is not None:
                try:
                    with replica.send_lock:
                        send_control(replica.conn, {"kind": "stop"})
                except (OSError, ValueError):
                    pass
        join_s = self.config.join_timeout_s
        for replica in replicas:
            process = replica.process
            if process is None:
                continue
            process.join(timeout=join_s)
            if process.is_alive():
                process.terminate()
                process.join(timeout=join_s)
            if process.is_alive():  # pragma: no cover - stuck worker
                process.kill()
                process.join(timeout=join_s)
            replica.alive = False
            if replica.conn is not None:
                try:
                    replica.conn.close()
                except OSError:  # pragma: no cover
                    pass
        self._alloc.close()
        self._arena.close()


def recv_control_from(conn):
    """Blocking control receive (separate name so tests can intercept)."""
    from repro.serve.shm import recv_control

    return recv_control(conn)
