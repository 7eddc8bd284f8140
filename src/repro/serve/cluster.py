"""Cluster worker replicas: the process side of the scale-out tier.

Each replica is one OS process running :func:`_worker_main`: a loop that
receives small control orders over a pipe, reads request tensors straight
out of the shared-memory arena (zero-copy views — the engine consumes
them without an intermediate buffer), executes through the same
:func:`repro.serve.pool.execute_conv` path the in-process server uses
(guard chain included when supervision is on), and writes results back
into the response slot the router designated.

Warm state is per-replica by design:

- **plan/spectrum/FFT-plan caches** start empty in every worker (a
  forked child deliberately drops the parent's caches — their scratch
  locks may have been mid-acquisition at fork time) and warm on first
  use.  The router ships each coalescing family's
  :class:`~repro.core.planning.PlanSpec` with the weight, so the worker
  rehydrates the exact plan (``spec.resolve()``) before its first
  request instead of paying plan construction on the request path.
- **weights/biases** arrive once per (replica, fingerprint) through the
  arena and are cached by fingerprint; subsequent orders reference the
  fingerprint only, so the steady-state order is a few hundred bytes of
  plain data.

Start method: ``fork`` where the platform offers it (Linux — instant
start, no re-import), ``spawn`` elsewhere (macOS/Windows; slower start,
and caller scripts must be import-safe under ``if __name__ ==
"__main__"``).  Override with ``REPRO_CLUSTER_START``.  Because forking
a process that runs threads can capture a module-level lock in its
locked state, the child re-creates every known module lock first thing
(:func:`_reinit_locks_in_child`, also registered via
``os.register_at_fork``).
"""

from __future__ import annotations

import multiprocessing
import os
import threading
import weakref

from repro.serve.shm import TensorArena, recv_control, send_control

#: Environment knob selecting the multiprocessing start method for
#: cluster workers ("fork" / "spawn" / "forkserver").
START_ENV = "REPRO_CLUSTER_START"


def default_start_method() -> str:
    """``fork`` where available (fast, Linux), else ``spawn``."""
    value = os.environ.get(START_ENV)
    if value:
        return value
    return "fork" if "fork" in multiprocessing.get_all_start_methods() \
        else "spawn"


def get_cluster_context(start_method: str | None = None):
    """The multiprocessing context cluster workers are spawned from."""
    return multiprocessing.get_context(start_method
                                       or default_start_method())


#: Router-side ends of every worker pipe this process opened.  A forked
#: worker inherits them all, its own included; it closes its copies first
#: thing, or its pipe would never report EOF once the router dies.
_ROUTER_ENDS: weakref.WeakSet = weakref.WeakSet()


def _reinit_locks_in_child() -> None:
    """Rebuild module-level locks after a fork.

    A forked child inherits every lock in whatever state some *other*
    parent thread held it at fork time; a lock captured mid-acquisition
    would deadlock the child on first use.  Workers only ever run our
    code after this reset, so re-creating the locks (rather than trying
    to release them) is safe.
    """
    import repro.core.multichannel as mc
    import repro.fft.plan as fft_plan
    from repro.guard import faults
    from repro.observe import registry

    mc._plan_lock = threading.Lock()
    mc._spectrum_lock = threading.Lock()
    mc._pool_lock = threading.Lock()
    fft_plan._lock = threading.Lock()
    faults._stack_lock = threading.Lock()
    registry.counters.reset_unsafe()
    from repro.selection import bandit as selection_bandit

    selection_bandit._reset_child_state()


if hasattr(os, "register_at_fork"):  # pragma: no branch - posix only
    os.register_at_fork(after_in_child=_reinit_locks_in_child)


def _fresh_worker_state() -> None:
    """Drop every inherited cache so the replica owns its warm state."""
    from repro.core import multichannel as mc
    from repro.fft.plan import clear_fft_plan_cache
    from repro.observe import registry

    mc.clear_plan_cache()
    mc.clear_spectrum_cache()
    clear_fft_plan_cache()
    registry.counters.reset_unsafe()
    from repro.selection import bandit as selection_bandit

    selection_bandit._reset_child_state()


def _worker_main(worker_id: int, arena_name: str, slots: int,
                 slot_bytes: int, conn, supervised: bool,
                 heartbeats: int = 0, generation: int = 0) -> None:
    """One replica's request loop (runs in the worker process).

    When the arena carries a heartbeat region (*heartbeats* > 0) the
    worker stamps its slot — tagged with the *generation* the router
    assigned this spawn — at startup, after every order arrives and
    after every order completes.  It deliberately does **not** stamp
    while blocked in ``recv_control``: an idle worker's heartbeat ages,
    and the router's stall rule only fires when old heartbeats coincide
    with old in-flight work, so idleness is never mistaken for a wedge
    but a wedged reply path (``response_drop``) is caught.
    """
    import time as _time

    from repro.guard import faults
    from repro.observe.registry import counters
    from repro.serve.pool import execute_conv

    for end in list(_ROUTER_ENDS):
        end.close()
    _fresh_worker_state()
    if supervised:
        from repro.guard.state import enable_guard

        enable_guard()
    arena = TensorArena.attach(arena_name, slots, slot_bytes,
                               heartbeats=heartbeats)

    def beat() -> None:
        if heartbeats:
            arena.beat(worker_id, generation)

    beat()
    tensors: dict[object, object] = {}
    armed: list = []  # control-plane FaultStates, disarmed on "clear"
    try:
        while True:
            try:
                msg = recv_control(conn)
            except (EOFError, OSError):
                return  # router went away; die quietly
            beat()
            kind = msg["kind"]
            if kind == "stop":
                return
            if kind == "tensor":
                # Weight/bias shipment: must copy — the router frees the
                # slot as soon as this order is acknowledged.
                try:
                    tensors[msg["fp"]] = arena.read(msg["slot"],
                                                    msg["seq"], copy=True)
                    spec = msg.get("spec")
                    if spec is not None:
                        # Plan rehydration: resolve the family's PlanSpec
                        # against this process's cache now, off the
                        # request path.
                        try:
                            spec.resolve()
                        except Exception:
                            pass  # plan warms lazily on first conv
                    send_control(conn, {"kind": "tensor_ok",
                                        "fp": msg["fp"],
                                        "slot": msg["slot"]})
                except Exception as exc:
                    send_control(conn, {
                        "kind": "tensor_err", "fp": msg["fp"],
                        "slot": msg["slot"],
                        "error": f"{type(exc).__name__}: {exc}"})
            elif kind == "conv":
                try:
                    if faults._STACK:
                        faults.maybe_worker_stall()
                        faults.maybe_slow_worker()
                    deadline = msg.get("deadline")
                    if deadline is not None \
                            and _time.monotonic() > deadline:
                        # Every rider's deadline has passed (the router
                        # ships the batch maximum): shed instead of
                        # executing dead work.  CLOCK_MONOTONIC is
                        # boot-based and system-wide on Linux, so the
                        # router's absolute deadline is comparable here.
                        counters.add("serve.cluster.worker_sheds")
                        send_control(conn, {"kind": "shed",
                                            "req": msg["req"]})
                        beat()
                        continue
                    x = arena.read(msg["in_slot"], msg["in_seq"],
                                   copy=False)
                    weight = tensors[msg["weight_fp"]]
                    bias = tensors.get(msg["bias_fp"]) \
                        if msg["bias_fp"] is not None else None
                    out = execute_conv(x, weight, bias, **msg["params"])
                    out_seq = arena.write(msg["out_slot"], out)
                    counters.add("serve.cluster.worker_convs")
                    counters.add("serve.cluster.worker_rows",
                                 int(x.shape[0]))
                    if faults._STACK and faults.should_drop_response():
                        # Computed but never answered: skip the reply
                        # AND the end-of-order heartbeat, so the router
                        # sees exactly what a wedged reply path looks
                        # like — old in-flight work plus an old stamp.
                        continue
                    send_control(conn, {"kind": "done", "req": msg["req"],
                                        "seq": out_seq})
                except Exception as exc:
                    send_control(conn, {
                        "kind": "error", "req": msg["req"],
                        "error": f"{type(exc).__name__}: {exc}"})
            elif kind == "inject":
                # Control-plane fault arming (chaos drills): build the
                # state in-process and ack so the router can sequence
                # the drill deterministically.
                try:
                    state = faults.FaultState(
                        kinds=frozenset(msg["kinds"]),
                        seed=int(msg.get("seed", 0)),
                        rate=float(msg.get("rate", 1.0)),
                        max_fires=msg.get("max_fires"),
                        params=dict(msg.get("params") or {}))
                    armed.append(faults.arm(state))
                    send_control(conn, {"kind": "fault_ok",
                                        "token": msg["token"]})
                except Exception as exc:
                    send_control(conn, {
                        "kind": "fault_err", "token": msg["token"],
                        "error": f"{type(exc).__name__}: {exc}"})
            elif kind == "clear_faults":
                while armed:
                    faults.disarm(armed.pop())
                send_control(conn, {"kind": "fault_ok",
                                    "token": msg["token"]})
            elif kind == "stats":
                rows = [(r.name, r.tags, r.value)
                        for r in counters.snapshot()]
                send_control(conn, {"kind": "stats",
                                    "token": msg["token"], "rows": rows})
            elif kind == "ping":
                send_control(conn, {"kind": "pong", "token": msg["token"],
                                    "pid": os.getpid()})
            else:  # pragma: no cover - protocol drift guard
                send_control(conn, {"kind": "error", "req": None,
                                    "error": f"unknown order {kind!r}"})
            beat()
    finally:
        arena.close()
        conn.close()


def spawn_worker(worker_id: int, arena: TensorArena, supervised: bool,
                 ctx=None, generation: int = 0):
    """Start one replica process; returns ``(process, parent_conn)``.

    *generation* stamps the worker's heartbeats so the router never
    mistakes a dead predecessor's stale stamp (same slot, earlier spawn)
    for the current process's liveness.
    """
    ctx = ctx or get_cluster_context()
    parent_conn, child_conn = ctx.Pipe(duplex=True)
    _ROUTER_ENDS.add(parent_conn)
    process = ctx.Process(
        target=_worker_main,
        args=(worker_id, arena.name, arena.slots, arena.slot_bytes,
              child_conn, supervised, arena.heartbeats, generation),
        name=f"repro-cluster-worker-{worker_id}",
        daemon=True,
    )
    process.start()
    child_conn.close()
    return process, parent_conn
