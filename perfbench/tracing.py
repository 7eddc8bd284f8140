"""Per-layer tracing installed from outside the library.

The benchmark times each layer by wrapping public functions of
``repro.nn``, ``repro.core``, ``repro.baselines``, ``repro.selection``,
``repro.guard`` and ``repro.serve``; no file of the library changes.  A
wrapper records a span (name, start, duration, parent, thread) on a
per-thread stack, so a span's self time is its duration minus the time
its wrapped children took.

Every finished span also adds to the library's counter registry under
``perfbench.<layer>.{ms,self_ms,calls}``.  Cluster workers are forked
after the wrappers are installed, so their spans land in the worker's
registry, and ``ClusterServer.refresh_worker_stats()`` merges them into
the router's; per-layer totals therefore read the same way for
in-process and worker-side work.  Spans of the benchmark process itself
are also kept in memory and written out when the run ends.

The engine's own ``repro.observe`` spans (``stage.*``, ``fft.*``) are a
separate tree; :func:`layer_metrics` reads them and checks that the
stages fit inside ``PolyHankelPlan.execute``.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import sys
import threading
import time
from collections import defaultdict

from repro.observe.registry import counters

PREFIX = "perfbench."
_MISSING = object()

#: Engine stage spans recorded by ``repro.observe`` inside
#: ``PolyHankelPlan.execute``.
STAGES = ("pad", "input_fft", "pointwise", "inverse_fft", "gather")


class Tracer:
    """Installs timing wrappers and keeps this process's spans."""

    def __init__(self) -> None:
        self.pid = os.getpid()
        #: ``(id, parent_id, name, thread, start_s, duration_s, self_s)``.
        self.spans: list[tuple] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._patches: list[tuple] = []

    def _stack(self) -> list:
        local = self._local
        # A forked worker inherits the forking thread's stack; start over.
        if getattr(local, "pid", None) != os.getpid():
            local.pid = os.getpid()
            local.stack = []
        return local.stack

    def wrap(self, layer, fn):
        """*fn* timed as *layer* (a name, or ``f(args, kwargs) -> name``)."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            name = layer(args, kwargs) if callable(layer) else layer
            stack = tracer._stack()
            parent = stack[-1] if stack else None
            frame = [next(tracer._ids), 0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = time.perf_counter() - start
                stack.pop()
                if parent is not None:
                    parent[1] += duration
                tracer._finish(name, frame[0],
                               None if parent is None else parent[0],
                               start, duration, duration - frame[1])

        return traced

    def _finish(self, name, span_id, parent_id, start, duration,
                self_s) -> None:
        counters.add(PREFIX + name + ".ms", duration * 1e3)
        counters.add(PREFIX + name + ".self_ms", self_s * 1e3)
        counters.add(PREFIX + name + ".calls")
        if os.getpid() == self.pid:
            self.spans.append((span_id, parent_id, name,
                               threading.get_ident(), start, duration,
                               self_s))

    def patch_function(self, module: str, attr: str, layer) -> None:
        """Wrap ``module.attr`` in every ``repro`` module that bound it."""
        original = getattr(importlib.import_module(module), attr)
        wrapped = self.wrap(layer, original)
        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "").startswith("repro") \
                    and mod.__dict__.get(attr) is original:
                self._patches.append((mod, attr, original))
                setattr(mod, attr, wrapped)

    def patch_method(self, cls, attr: str, layer) -> None:
        """Wrap ``cls.attr`` (inherited methods are wrapped on *cls*)."""
        self._patches.append((cls, attr, cls.__dict__.get(attr, _MISSING)))
        setattr(cls, attr, self.wrap(layer, getattr(cls, attr)))

    def restore(self) -> None:
        """Undo every patch, newest first."""
        while self._patches:
            target, attr, original = self._patches.pop()
            if original is _MISSING:
                delattr(target, attr)
            else:
                setattr(target, attr, original)

    def write(self, path: str, observe_spans=()) -> None:
        """Write this process's spans, then the engine's, as JSON lines."""
        with open(path, "w") as out:
            for span_id, parent, name, thread, start, dur, self_s in \
                    self.spans:
                out.write(json.dumps({
                    "id": span_id, "parent": parent, "name": name,
                    "thread": thread, "start_s": start, "ms": dur * 1e3,
                    "self_ms": self_s * 1e3}) + "\n")
            for record in observe_spans:
                out.write(json.dumps({
                    "id": f"o{record.index}",
                    "parent": None if record.parent is None
                    else f"o{record.parent.index}",
                    "name": record.name, "thread": record.thread_id,
                    "start_s": record.start_s, "ms": record.duration_ms,
                    "self_ms": record.self_ms}) + "\n")


def _convolve_layer(args, kwargs) -> str:
    """PolyHankel dispatch counts as ``core``; other algorithms as
    ``baselines``."""
    algorithm = kwargs.get("algorithm", args[2] if len(args) > 2
                           else "polyhankel")
    value = str(getattr(algorithm, "value", algorithm))
    return "core.dispatch" if value.startswith("polyhankel") \
        else "baselines.convolve"


def install(tracer: Tracer) -> None:
    """Wrap the public entry points of every measured layer."""
    from repro.core.multichannel import PolyHankelPlan
    from repro.nn.autograd import Tensor
    from repro.nn.layers import Conv2d
    from repro.nn.network import Sequential
    from repro.serve import ClusterServer

    for module in ("repro.guard.chain", "repro.guard.sentinel",
                   "repro.selection.heuristic", "repro.serve.pool",
                   "repro.nn.functional", "repro.nn.autograd"):
        importlib.import_module(module)
    tracer.patch_method(Sequential, "forward", "nn.forward")
    tracer.patch_method(Conv2d, "__call__", "nn.forward")
    for op in ("conv2d", "relu", "max_pool2d", "flatten", "linear",
               "cross_entropy"):
        tracer.patch_function("repro.nn.autograd", op, "nn.forward")
    tracer.patch_method(Tensor, "backward", "nn.backward")
    tracer.patch_method(PolyHankelPlan, "execute", "core.execute")
    tracer.patch_method(PolyHankelPlan, "transform_weight",
                        "core.weight_transform")
    tracer.patch_function("repro.core.multichannel", "get_plan", "core.plan")
    tracer.patch_function("repro.baselines.registry", "convolve",
                          _convolve_layer)
    tracer.patch_function("repro.selection.heuristic",
                          "select_algorithm_rules", "selection.rules")
    tracer.patch_function("repro.guard.chain", "guarded_conv2d",
                          "guard.conv2d")
    tracer.patch_function("repro.guard.sentinel", "classify",
                          "guard.sentinel")
    tracer.patch_method(ClusterServer, "submit", "serve.submit")
    tracer.patch_function("repro.serve.pool", "execute_conv",
                          "serve.worker_execute")


def totals() -> dict[str, float]:
    """Registry totals by name, summed over tags and processes."""
    out: dict[str, float] = defaultdict(float)
    for row in counters.snapshot():
        out[row.name] += row.value
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(before: dict, after: dict, ops: int,
                  observe_spans=()) -> tuple[dict, list[str]]:
    """Per-layer values per workload operation over a traced window.

    *before*/*after* are :func:`totals` snapshots bracketing the window
    (worker counters merged into *after*); *ops* is the number of
    operations (forwards, steps or requests) the window completed.
    Returns the metrics and a list of consistency problems (children
    that take longer than their parent).
    """
    delta = defaultdict(float, {k: after.get(k, 0.0) - before.get(k, 0.0)
                                for k in set(after) | set(before)})

    def span(name: str, kind: str = "self_ms") -> float:
        return delta[f"{PREFIX}{name}.{kind}"]

    per_op = 1.0 / ops
    stage_self = defaultdict(float)
    stage_total = 0.0
    fft_ms = 0.0
    for record in observe_spans:
        if record.name.startswith("stage."):
            stage_self[record.name[6:]] += record.self_ms
            stage_total += record.duration_ms
        elif record.name.startswith("fft."):
            fft_ms += record.duration_ms
    execute_ms = span("core.execute", "ms")
    problems = []
    if stage_total > execute_ms * 1.001 + 1e-3:
        problems.append(f"engine stages ({stage_total:.3f} ms) exceed "
                        f"PolyHankelPlan.execute ({execute_ms:.3f} ms)")
    for name in ("nn.forward", "nn.backward", "core.execute",
                 "core.dispatch", "guard.conv2d", "serve.worker_execute"):
        if span(name, "self_ms") < -1e-3:
            problems.append(f"{name}: wrapped children exceed the parent")
    guard_calls = span("guard.conv2d", "calls")
    fallbacks = delta["guard.fallback"]
    metrics = {
        "nn.forward_ms": span("nn.forward") * per_op,
        "nn.backward_ms": span("nn.backward") * per_op,
        "nn.layer_spectrum_hit_ratio": _ratio(
            delta["cache.layer_spectrum.hits"],
            delta["cache.layer_spectrum.hits"]
            + delta["cache.layer_spectrum.misses"]),
        "core.execute_ms": execute_ms * per_op,
        "core.execute_calls": span("core.execute", "calls") * per_op,
        "core.weight_transform_ms": span("core.weight_transform") * per_op,
        "core.weight_transforms":
            span("core.weight_transform", "calls") * per_op,
        "core.dispatch_ms": span("core.dispatch") * per_op,
        "core.plan_ms": span("core.plan") * per_op,
        "core.spectrum_hit_ratio": _ratio(
            delta["cache.spectrum.hits"],
            delta["cache.spectrum.hits"] + delta["cache.spectrum.misses"]),
        "core.unattributed_ms": max(execute_ms - stage_total, 0.0) * per_op
        if observe_spans else 0.0,
        "fft.calls": delta["fft.calls"] * per_op,
        "fft.rows": delta["fft.rows"] * per_op,
        "fft.ms": fft_ms * per_op,
        "baselines.calls": span("baselines.convolve", "calls") * per_op,
        "baselines.ms": span("baselines.convolve") * per_op,
        "selection.rule_calls": span("selection.rules", "calls") * per_op,
        "selection.ms": span("selection.rules") * per_op,
        "guard.calls": guard_calls * per_op,
        "guard.ms": span("guard.conv2d") * per_op,
        "guard.sentinel_ms": span("guard.sentinel") * per_op,
        "guard.fallbacks": fallbacks,
        "guard.useful_ratio": _ratio(guard_calls, guard_calls + fallbacks),
        "serve.submit_ms": span("serve.submit") * per_op,
        "serve.queue_wait_ms": _ratio(delta["serve.queue_wait_ms"],
                                      delta["serve.batch_size"]),
        "serve.rows_per_batch": _ratio(delta["serve.batch_size"],
                                       delta["serve.batches"]),
        "serve.worker_execute_ms":
            span("serve.worker_execute", "ms") * per_op,
        "serve.completed": delta["serve.completed"],
        "serve.shed": delta["serve.shed"],
        "serve.rejected": delta["serve.rejected"],
        "serve.slot_timeouts": delta["serve.slot_timeout"],
        "serve.respawns": delta["serve.cluster.respawns"],
    }
    for stage in STAGES:
        metrics[f"core.stage.{stage}_ms"] = stage_self[stage] * per_op
    return metrics, problems
