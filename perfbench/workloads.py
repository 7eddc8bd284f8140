"""The benchmark's three workloads.

Each workload builds its inputs from the run's seed, sets itself up to a
first verified result, measures for a given number of seconds, and
checks its outputs outside the timed region:

- ``infer_net`` — closed loop, one caller: the Sec. 4.2 synthetic
  20-conv network forward on batch-4 32x32 inputs, PolyHankel forced
  network-wide, guard off, weights frozen.  Checked against the same
  network run with GEMM.
- ``train_step`` — closed loop, one caller: forward, backward and SGD
  through ``repro.nn.autograd`` on a 3-conv CNN, batch 16 at 32x32.  Every
  step rewrites the weights in place, so every convolution recomputes its
  weight spectrum.  The first step's gradients are checked against GEMM
  and every loss must stay finite.
- ``serve_poisson`` — open loop: Poisson arrivals from one submitting
  thread into a one-worker ``ClusterServer``, supervised.
  Every served result is checked bit for bit against in-process
  ``repro.nn.functional.conv2d`` on the batch the server coalesced it
  into, and against the single-image call within the sentinel's error
  bound.
"""

from __future__ import annotations

import functools
import math
import statistics
import sys
import threading
import time
import zlib

import numpy as np
from repro.selection import heuristic
from repro.serve import Overloaded
from repro.serve.loadgen import poisson_arrivals
from repro.utils.shapes import ConvShape

from perfbench import config

MS = 1e3


class CheckFailed(RuntimeError):
    """An output failed its correctness check."""


class RunFailed(RuntimeError):
    """The system under test stopped answering within the run's bounds."""


def note(message: str) -> None:
    """Progress line on stderr (the benchmark's tests wait for these)."""
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def _tail_pct(n: int) -> float:
    """The highest ladder percentile with enough of *n* samples beyond."""
    pct = config.TAIL_LADDER[0]
    for candidate in config.TAIL_LADDER:
        if n * (100.0 - candidate) + 1e-6 >= 100 * config.TAIL_MIN_BEYOND:
            pct = candidate
    return pct


def latency_summary(samples_ms) -> dict:
    """Median and tail of one set of latency samples."""
    samples = np.asarray(samples_ms, dtype=float)
    pct = _tail_pct(len(samples))
    return {"p50": float(np.percentile(samples, 50)),
            "tail": float(np.percentile(samples, pct)),
            "tail_pct": pct, "samples": len(samples)}


def close_to(y: np.ndarray, ref: np.ndarray) -> bool:
    """Whether *y* matches *ref* within ``REL_TOL`` of ref's peak."""
    y = np.asarray(y)
    ref = np.asarray(ref)
    if y.shape != ref.shape or not np.isfinite(y).all():
        return False
    scale = max(float(np.max(np.abs(ref))), 1e-300)
    return float(np.max(np.abs(y - ref))) <= config.REL_TOL * scale


def _digest(array: np.ndarray) -> int:
    """CRC-32 of the array's bytes: cheap enough for the serving path; a
    result that differs escapes detection with probability 2**-32."""
    return zlib.crc32(np.ascontiguousarray(array))


def _closed_loop(call, seconds: float, images: int) -> dict:
    """Run ``call(i)`` back to back for *seconds*; one caller."""
    latencies = []
    start = time.perf_counter()
    end = start + seconds
    ops = 0
    while True:
        t = time.perf_counter()
        call(ops)
        now = time.perf_counter()
        latencies.append((now - t) * MS)
        ops += 1
        if now >= end:
            break
    return {"ops": ops, "latency": latency_summary(latencies),
            "throughput_per_s": images * ops / (now - start)}


# ---------------------------------------------------------------------------
# infer_net
# ---------------------------------------------------------------------------

class InferNet:
    """Synthetic 20-conv network inference, PolyHankel network-wide."""

    name = "infer_net"

    def __init__(self, seed: int):
        self.seed = seed
        self.net = None
        self.inputs: list[np.ndarray] = []
        self.last = None

    def setup(self) -> None:
        from repro.guard import disable_guard
        from repro.nn.synthetic import synthetic_network

        disable_guard()
        cfg = config.INFER
        rng = np.random.default_rng([self.seed, 1])
        # The layer design is fixed so every seed runs the same amount of
        # work; the run's seed draws the weights and the inputs.
        self.net = synthetic_network(cfg["input_size"], cfg["in_channels"],
                                     seed=cfg["design_seed"])
        self.net.set_conv_algorithm("polyhankel")
        for layer in self.net.conv_layers():
            weight = rng.standard_normal(layer.weight.shape) * math.sqrt(
                2.0 / np.prod(layer.weight.shape[1:]))
            weight.flags.writeable = False   # frozen weights
            layer.weight = weight
        shape = (cfg["batch"], cfg["in_channels"], cfg["input_size"],
                 cfg["input_size"])
        self.inputs = [rng.standard_normal(shape)
                       for _ in range(cfg["inputs"])]
        self.last = (self.inputs[0], self.net(self.inputs[0]))
        if not self._matches_gemm(*self.last):
            raise CheckFailed("infer_net: first forward differs from GEMM")

    def _matches_gemm(self, x: np.ndarray, y: np.ndarray) -> bool:
        self.net.set_conv_algorithm("gemm")
        try:
            ref = self.net(x)
        finally:
            self.net.set_conv_algorithm("polyhankel")
        return close_to(y, ref)

    def _forward(self, i: int) -> None:
        x = self.inputs[i % len(self.inputs)]
        self.last = (x, self.net(x))

    def measure(self, seconds: float) -> dict:
        return _closed_loop(self._forward, seconds, config.INFER["batch"])

    def verify(self) -> tuple[int, list[str]]:
        if self._matches_gemm(*self.last):
            return 0, []
        return 1, ["infer_net: final forward differs from GEMM"]

    def kernel_table(self) -> tuple[list[dict], float, float]:
        """Computed per-call operations and bytes for each conv shape
        (``repro.perfmodel.counters.count``), and their per-forward sums."""
        from repro.nn.layers import Conv2d
        from repro.perfmodel.counters import count

        rows: dict[tuple, dict] = {}
        shapes = self.net.layer_shapes(self.inputs[0].shape)
        for layer, in_shape in zip(self.net.layers, shapes):
            if not isinstance(layer, Conv2d):
                continue
            shape = layer.conv_shape(in_shape)
            report = count("polyhankel", shape)
            key = (shape.n, shape.c, shape.f, shape.ih, shape.iw, shape.kh)
            row = rows.setdefault(key, {
                "shape": "n{}_c{}_f{}_{}x{}_k{}".format(*key), "calls": 0,
                "flops_computed": report.flops,
                "bytes_computed": report.bytes_moved})
            row["calls"] += 1
        table = list(rows.values())
        flops = sum(r["calls"] * r["flops_computed"] for r in table)
        nbytes = sum(r["calls"] * r["bytes_computed"] for r in table)
        return table, flops, nbytes

    def child_rss_kb(self) -> int:
        return 0

    def close(self) -> None:
        self.net = None


# ---------------------------------------------------------------------------
# train_step
# ---------------------------------------------------------------------------

class TrainStep:
    """Forward + backward + SGD of a small CNN through the autograd tape."""

    name = "train_step"

    def __init__(self, seed: int):
        self.seed = seed
        self.params = []
        self.batches = []
        self.losses: list[float] = []

    def setup(self) -> None:
        from repro.guard import disable_guard
        from repro.nn import autograd as ag

        disable_guard()
        cfg = config.TRAIN
        rng = np.random.default_rng([self.seed, 2])
        self.params = []
        for c_in, c_out, k, _ in cfg["convs"]:
            scale = math.sqrt(2.0 / (c_in * k * k))
            self.params.append(ag.parameter(
                rng.standard_normal((c_out, c_in, k, k)) * scale))
            self.params.append(ag.parameter(np.zeros(c_out)))
        shape = (cfg["batch"], cfg["convs"][0][0], cfg["size"], cfg["size"])
        self.batches = [(rng.standard_normal(shape),
                         rng.integers(0, cfg["classes"], cfg["batch"]))
                        for _ in range(cfg["batches"])]
        self.optimizer = ag.SGD(self.params, lr=cfg["lr"],
                                momentum=cfg["momentum"])
        # First step, checked: PolyHankel gradients against GEMM ones.
        reference = [ag.parameter(p.data.copy()) for p in self.params]
        x, labels = self.batches[0]
        self._loss(reference, x, labels, "gemm").backward()
        self.optimizer.zero_grad()
        loss = self._loss(self.params, x, labels, "polyhankel")
        loss.backward()
        for p, r in zip(self.params, reference):
            if not close_to(p.grad, r.grad):
                raise CheckFailed("train_step: first-step gradients "
                                  "differ from GEMM")
        self.optimizer.step()
        self.losses = [float(loss.data)]

    @staticmethod
    def _loss(params, x, labels, algorithm: str):
        from repro.nn import autograd as ag

        h = ag.Tensor(x)
        convs = config.TRAIN["convs"]
        for i, (_, _, _, padding) in enumerate(convs):
            h = ag.conv2d(h, params[2 * i], params[2 * i + 1],
                          padding=padding, algorithm=algorithm)
            if i + 1 < len(convs):
                h = ag.max_pool2d(ag.relu(h), 2)
        # Global max-pool to one logit per class.
        h = ag.max_pool2d(h, h.shape[-1])
        return ag.cross_entropy(ag.flatten(h), labels)

    def _step(self, i: int) -> None:
        x, labels = self.batches[i % len(self.batches)]
        self.optimizer.zero_grad()
        loss = self._loss(self.params, x, labels, "polyhankel")
        loss.backward()
        self.optimizer.step()
        self.losses.append(float(loss.data))

    def measure(self, seconds: float) -> dict:
        return _closed_loop(self._step, seconds, config.TRAIN["batch"])

    def verify(self) -> tuple[int, list[str]]:
        bad = int(np.sum(~np.isfinite(self.losses)))
        if not bad:
            return 0, []
        return bad, [f"train_step: {bad} non-finite loss(es)"]

    def child_rss_kb(self) -> int:
        return 0

    def close(self) -> None:
        self.params = []


# ---------------------------------------------------------------------------
# serve_poisson
# ---------------------------------------------------------------------------

class _Family:
    __slots__ = ("weight", "bias", "padding", "pool", "share")

    def __init__(self, weight, bias, padding, pool, share):
        self.weight = weight
        self.bias = bias
        self.padding = padding
        self.pool = pool
        self.share = share


class _Request:
    __slots__ = ("family", "image", "phase", "algorithm", "due", "sent",
                 "done", "digest", "nbytes", "error")

    def __init__(self, family: int, image: int, phase: str):
        self.family = family
        self.image = image
        self.phase = phase
        self.algorithm = None
        self.due = self.sent = self.done = None
        self.digest = None
        self.nbytes = 0
        self.error = None


def peak_rss_kb(pid: int) -> int:
    """Peak resident set (VmHWM) of a live process, in KiB."""
    try:
        with open(f"/proc/{pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


class ServePoisson:
    """Open-loop Poisson traffic into a one-worker cluster."""

    name = "serve_poisson"

    def __init__(self, seed: int):
        cfg = config.SERVE
        self.seed = seed
        rng = np.random.default_rng([seed, 3])
        self.families = []
        for _, (c, h, w), f, k, padding, share in cfg["families"]:
            scale = math.sqrt(2.0 / (c * k * k))
            self.families.append(_Family(
                rng.standard_normal((f, c, k, k)) * scale,
                rng.standard_normal(f) * 0.1, padding,
                rng.standard_normal((cfg["pool"], c, h, w)), share))
        self.server = None
        self.requests: list[_Request] = []
        # Each request's input is its own view object, kept alive for the
        # whole run so that its id() names the request in recorded batches.
        self._views: dict[int, _Request] = {}
        self._keep: list[np.ndarray] = []
        self.batches: list[list[int]] = []
        self._resolved_cond = threading.Condition()
        self._outstanding = 0
        self._unpatch = None
        self.drifted = 0
        self._phase_rng = 0

    # -- lifecycle -----------------------------------------------------------

    def setup(self) -> None:
        from repro.serve import ClusterServer, router

        cfg = config.SERVE
        original = router.stack_requests

        def recording(batch):
            # Which requests the server coalesced: the reference for each
            # served result is the in-process call on that same batch.
            self.batches.append([id(r.x) for r in batch])
            return original(batch)

        router.stack_requests = recording
        self._unpatch = lambda: setattr(router, "stack_requests", original)
        self.server = ClusterServer(workers=cfg["workers"],
                                    max_batch=cfg["max_batch"],
                                    supervised=True)
        first = [_Request(i, 0, "setup") for i in range(len(self.families))]
        for request in first:
            self._submit(request)
        self._drain()
        wrong, _, problems = self._check(first)
        if wrong or problems:
            raise CheckFailed("serve_poisson: first results failed the "
                              "check: " + "; ".join(problems))

    def close(self) -> None:
        server, self.server = self.server, None
        try:
            if server is not None:
                server.close(timeout=config.WAIT_TIMEOUT_S / 3)
        finally:
            if self._unpatch is not None:
                self._unpatch()
                self._unpatch = None

    def child_rss_kb(self) -> int:
        if self.server is None:
            return 0
        return sum(peak_rss_kb(pid) for pid in self.server.worker_pids())

    def refresh(self) -> None:
        """Pull worker-side counters into this process's registry."""
        self.server.refresh_worker_stats(timeout=5.0)

    # -- traffic -------------------------------------------------------------

    def _submit(self, request: _Request) -> None:
        family = self.families[request.family]
        x = family.pool[request.image:request.image + 1]
        self._keep.append(x)
        self._views[id(x)] = request
        self.requests.append(request)
        # The submitting thread picks the algorithm with the selection
        # rules, as functional conv2d does for "auto": the guarded path the
        # workers run accepts only concrete algorithms.
        request.algorithm = heuristic.select_algorithm_rules(
            ConvShape.from_tensors(x.shape, family.weight.shape,
                                   family.padding)).value
        with self._resolved_cond:
            self._outstanding += 1
        request.sent = time.monotonic()
        try:
            future = self.server.submit(x, family.weight, family.bias,
                                        padding=family.padding,
                                        algorithm=request.algorithm)
        except Overloaded as exc:
            request.error = f"rejected: {exc}"
            self._resolved()
            return
        future.add_done_callback(functools.partial(self._on_done, request))

    def _on_done(self, request: _Request, future) -> None:
        request.done = time.monotonic()
        if future.cancelled():
            request.error = "cancelled"
        elif future.exception() is not None:
            exc = future.exception()
            request.error = f"{type(exc).__name__}: {exc}"
        else:
            out = future.result()
            request.digest = _digest(out)
            request.nbytes = out.nbytes + self.families[
                request.family].pool[0].nbytes
        self._resolved()

    def _resolved(self) -> None:
        with self._resolved_cond:
            self._outstanding -= 1
            self._resolved_cond.notify_all()

    def _wait_below(self, limit: int) -> None:
        """Block until fewer than *limit* requests are unanswered."""
        with self._resolved_cond:
            if not self._resolved_cond.wait_for(
                    lambda: self._outstanding < limit,
                    config.WAIT_TIMEOUT_S):
                raise RunFailed(
                    f"serve_poisson: {self._outstanding} request(s) "
                    f"unanswered after {config.WAIT_TIMEOUT_S:g}s")

    def _drain(self) -> None:
        self._wait_below(1)

    def _offer(self, n: int, rate: float | None, phase: str) -> list:
        """Offer *n* requests: Poisson at *rate*, or, without a rate, as
        fast as the in-flight window admits them.  Each family gets its
        share of the *n* exactly, in a seeded order, so every phase offers
        the same mix."""
        rng = np.random.default_rng([self.seed, 4, self._phase_rng])
        self._phase_rng += 1
        counts = [round(f.share * n) for f in self.families[1:]]
        families = np.repeat(np.arange(len(self.families)),
                             [n - sum(counts)] + counts)
        rng.shuffle(families)
        images = rng.integers(0, config.SERVE["pool"], n)
        offsets = np.zeros(n) if rate is None \
            else poisson_arrivals(n, rate, rng)
        batch = [_Request(int(f), int(i), phase)
                 for f, i in zip(families, images)]
        start = time.monotonic() + 0.002
        window = config.SERVE["window"]
        for request, offset in zip(batch, offsets):
            if rate is None:
                self._wait_below(window)
                request.due = time.monotonic()
            else:
                request.due = start + offset
                delay = request.due - time.monotonic()
                if delay > 0:
                    time.sleep(delay)
            self._submit(request)
        self._drain()
        return batch

    def warm_up(self) -> None:
        """Serve untimed traffic until every worker has built the plans of
        the batch sizes coalescing produces."""
        self._offer(config.SERVE["warmup"], None, "warmup")

    def capacity(self) -> float:
        """Completed requests/s while a seeded burst keeps the server
        saturated: the rate between the first and the last tenth of the
        completions, which leaves out the pipeline filling and draining."""
        burst = self._offer(config.SERVE["burst"], None, "burst")
        done = sorted(r.done for r in burst)
        first, last = len(done) // 10, len(done) - 1 - len(done) // 10
        return (last - first) / (done[last] - done[first])

    def measure(self, seconds: float) -> dict:
        """Warm up, then rounds of: a capacity burst, the lo rate and the
        hi rate.  The hi-rate median and tail are medians of the per-round
        figures, so a stretch of seconds in which the host is busy moves a
        few rounds, not the result.  Capacity pools the bursts: every
        burst counts the same number of completions, so the harmonic mean
        of their rates is all of them over all their time (the per-round
        rates can gather in two clusters, between which a median jumps).
        The lo-rate figures pool every round's requests."""
        cfg = config.SERVE
        rounds = cfg["rounds"]

        def count(rate, share):
            return max(1, round(rate * share * seconds / rounds))

        self.warm_up()
        capacity, lo, hi = [], [], []
        for _ in range(rounds):
            capacity.append(self.capacity())
            note("phase lo")
            lo.append(self._offer(count(cfg["lo_rps"], cfg["lo_share"]),
                                  cfg["lo_rps"], "lo"))
            note("phase hi")
            hi.append(self._offer(count(cfg["hi_rps"], cfg["hi_share"]),
                                  cfg["hi_rps"], "hi"))
        measured = [r for r in self.requests if r.phase != "setup"]
        hi_all = [r for batch in hi for r in batch]

        def latencies(batch):
            return [(r.done - r.due) * MS for r in batch
                    if r.error is None]

        per_round = [latency_summary(latencies(batch)) for batch in hi]
        limit = cfg["latency_limit_ms"]
        misses = sum(1 for r in hi_all if r.error is not None
                     or (r.done - r.due) * MS > limit)
        return {
            "ops": len(measured),
            "throughput_per_s": statistics.harmonic_mean(capacity),
            "latency": {
                "p50": float(np.median([s["p50"] for s in per_round])),
                "tail": float(np.median([s["tail"] for s in per_round])),
                "tail_pct": min(s["tail_pct"] for s in per_round),
                "samples": len(hi_all)},
            "pooled_latency": latency_summary(latencies(hi_all)),
            "capacity_rounds": capacity,
            "lo_latency": latency_summary(
                latencies([r for batch in lo for r in batch])),
            "slo_miss_pct": 100.0 * misses / len(hi_all),
            "generator_lag_ms": [(r.sent - r.due) * MS for r in hi_all],
            "shm_bytes_per_request": float(np.mean(
                [r.nbytes for r in measured])),
        }

    # -- correctness ---------------------------------------------------------

    def _check(self, requests) -> tuple[int, int, list[str]]:
        """Check *requests* against in-process ``conv2d``.

        Returns (wrong, drifted, problems): *wrong* counts results that
        differ bit for bit from the in-process call on the batch they
        were served in, or that fall outside the sentinel's error bound
        of the single-image call; *drifted* counts results that are not
        bit-identical to the single-image call.
        """
        from repro.guard import sentinel
        from repro.nn import functional as F

        wanted = {id(r) for r in requests}
        singles: dict[tuple, tuple[np.ndarray, float]] = {}

        def single(request) -> tuple[np.ndarray, float]:
            """The single-image call and twice the sentinel's bound."""
            key = (request.family, request.image)
            if key not in singles:
                family = self.families[request.family]
                x = family.pool[request.image:request.image + 1]
                shape = ConvShape.from_tensors(x.shape, family.weight.shape,
                                               family.padding)
                bound = 2 * sentinel.predicted_error_bound(
                    shape.poly_product_len,
                    sentinel.output_magnitude_bound(x, family.weight))
                singles[key] = (F.conv2d(x, family.weight, family.bias,
                                         padding=family.padding,
                                         algorithm=request.algorithm),
                                bound)
            return singles[key]

        seen: set[int] = set()
        wrong = drifted = 0
        problems: list[str] = []
        for ids in self.batches:
            riders = [self._views.get(i) for i in ids]
            if any(r is None for r in riders):
                problems.append("a served batch holds an unknown request")
                continue
            if not any(id(r) in wanted for r in riders):
                continue
            first = riders[0]
            family = self.families[first.family]
            if len(riders) == 1:
                ref = single(first)[0]
            else:
                ref = F.conv2d(
                    np.concatenate([family.pool[r.image:r.image + 1]
                                    for r in riders]),
                    family.weight, family.bias, padding=family.padding,
                    algorithm=first.algorithm)
            for k, request in enumerate(riders):
                if id(request) not in wanted or request.error is not None:
                    continue
                seen.add(id(request))
                out = ref[k:k + 1]
                alone, bound = single(request)
                if request.digest != _digest(out) \
                        or float(np.max(np.abs(out - alone))) > bound:
                    wrong += 1
                if not np.array_equal(out, alone):
                    drifted += 1
        unseen = sum(1 for r in requests
                     if r.error is None and id(r) not in seen)
        if unseen:
            problems.append(f"{unseen} served result(s) in no recorded "
                            f"batch")
        return wrong + unseen, drifted, problems

    def verify(self) -> tuple[int, list[str]]:
        """(failed requests, problems): wrong results and requests that
        raised, were shed or were rejected."""
        measured = [r for r in self.requests if r.phase != "setup"]
        wrong, self.drifted, problems = self._check(measured)
        errors = [r.error for r in measured if r.error is not None]
        if errors:
            problems.append(f"{len(errors)} request(s) failed, first: "
                            f"{errors[0]}")
        return wrong + len(errors), problems


WORKLOADS = {w.name: w for w in (InferNet, TrainStep, ServePoisson)}
