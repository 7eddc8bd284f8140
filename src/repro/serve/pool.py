"""Persistent worker pool and the batch/group shard splitter.

Requests too large to coalesce (their own batch exceeds the queue's
``max_batch``) are split into independent shards — along the batch axis
first, then along the group axis when groups can absorb more workers than
the batch can — and executed on a persistent thread pool.  Both splits are
bit-exact: batch rows are independent end to end, and each channel group
is an independent frequency-domain product, so reassembling shard outputs
(concatenate along batch, then filters) reproduces the unsharded answer
exactly.

Shards spend their time inside NumPy's FFT/einsum kernels, which release
the GIL, so threads scale on multicore boxes and cost nothing on one
core.  Process-level scale-out, with warm caches per worker process, is
:class:`~repro.serve.router.ClusterServer`'s job.

Every shard runs through :func:`execute_conv`, which routes through the
guard chain while supervision is enabled, passing the request family's
coalescing key as the breaker scope: all shards of one family share one
circuit breaker regardless of how the batch axis was cut.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from repro.observe import span
from repro.observe.registry import counters
from repro.serve.coalescer import ConvRequest

#: Environment knob for the default worker count (also recorded by the
#: bench harness metadata so CI runs are comparable).
WORKERS_ENV = "REPRO_SERVE_WORKERS"


def default_workers() -> int:
    """Worker count from ``REPRO_SERVE_WORKERS`` or the CPU count."""
    value = os.environ.get(WORKERS_ENV)
    if value:
        try:
            return max(1, int(value))
        except ValueError:
            pass
    return max(1, os.cpu_count() or 1)


def execute_conv(x: np.ndarray, weight: np.ndarray,
                 bias: np.ndarray | None = None, *,
                 padding: int | tuple | str = 0, stride: int | tuple = 1,
                 dilation: int | tuple = 1, groups: int = 1,
                 algorithm: str = "polyhankel", strategy: str = "sum",
                 backend: str | None = None, op: str = "conv2d",
                 output_padding: int | tuple = 0,
                 breaker_key=None) -> np.ndarray:
    """One engine execution, supervised when the guard is enabled.

    *op* selects the operator family (``conv1d``/``conv2d``/``conv3d``/
    ``conv_transpose2d``); the execution is the tail every front door
    shares (:func:`repro.nn.functional.run_conv`).  *strategy* and
    *backend* are PolyHankel's knobs, which every request key carries:
    they reach the engine when the algorithm is PolyHankel and the
    request set them, and a route that cannot take a set knob raises.
    *breaker_key* scopes the guard's circuit breaker (see
    :func:`repro.guard.chain.guarded_conv2d`).

    When the online selection bandit is active (``REPRO_SELECTION_BANDIT``
    or :func:`repro.selection.bandit.enable_bandit`) every conv2d — the
    coalesced batch path, the shard path and the cluster workers all
    funnel through here — consults it: the bandit may substitute its
    converged arm for the requested algorithm (apply mode) and may run a
    parity-checked shadow of an exploration arm, but the returned result
    is always the primary's (see :func:`repro.selection.bandit.
    bandit_conv2d`).
    """
    from repro.nn import functional as F

    op = str(getattr(op, "value", op))
    # Resolved before the bandit, which decides among concrete arms.
    algorithm = F.resolve_algorithm(algorithm, op, np.shape(x),
                                    np.shape(weight), padding, stride,
                                    dilation, groups)
    algorithm = str(getattr(algorithm, "value", algorithm))

    def run(algo: str) -> np.ndarray:
        knobs = {}
        if algo == "polyhankel":
            if strategy != "sum":
                knobs["strategy"] = strategy
            if backend is not None:
                knobs["backend"] = backend
        return F.run_conv(x, weight, bias, padding, stride, dilation,
                          groups, algo, op=op,
                          output_padding=output_padding,
                          breaker_key=breaker_key, **knobs)

    if op == "conv2d":
        from repro.selection.bandit import active_bandit, bandit_conv2d

        bandit = active_bandit()
        if bandit is not None:
            return bandit_conv2d(bandit, x, weight, bias, padding=padding,
                                 stride=stride, dilation=dilation,
                                 groups=groups, requested=algorithm,
                                 strategy=strategy, backend=backend,
                                 run=run)
    return run(algorithm)


def shard_splits(n: int, groups: int,
                 parts: int) -> list[tuple[slice, tuple[int, int]]]:
    """Split an ``(n, groups)`` problem into at most *parts* shards.

    Returns ``(batch_slice, (g_lo, g_hi))`` pairs covering the full
    problem exactly once.  The batch axis is cut first (cheapest: no
    weight slicing); the group axis absorbs leftover parallelism only
    when the batch alone cannot (``n < parts`` and ``groups > 1``).
    """
    if n < 1 or groups < 1 or parts < 1:
        raise ValueError("n, groups and parts must all be >= 1")
    batch_parts = min(parts, n)
    group_parts = 1
    if batch_parts < parts and groups > 1:
        group_parts = min(groups, max(1, parts // batch_parts))
    splits = []
    for rows in np.array_split(np.arange(n), batch_parts):
        batch_slice = slice(int(rows[0]), int(rows[-1]) + 1)
        for gs in np.array_split(np.arange(groups), group_parts):
            splits.append((batch_slice, (int(gs[0]), int(gs[-1]) + 1)))
    return splits


def _shard_arguments(request: ConvRequest, batch_slice: slice,
                     g_lo: int, g_hi: int) -> tuple:
    """(x, weight, bias, groups) restricted to one shard."""
    key = request.key
    if key.op == "conv_transpose2d":
        # Transposed weights are (c_in, c_out/g, kh, kw): axis 0 counts
        # *input* channels and the bias is per output channel, so the
        # forward group-slicing below would cut the wrong axes.
        # run_request never asks for a group split on this op; shards
        # carry the full group count and only the batch axis is cut.
        return request.x[batch_slice], request.weight, request.bias, \
            key.groups
    c_per = request.x.shape[1] // key.groups
    f_per = request.weight.shape[0] // key.groups
    x = request.x[batch_slice]
    weight = request.weight
    bias = request.bias
    if (g_lo, g_hi) != (0, key.groups):
        x = x[:, g_lo * c_per:g_hi * c_per]
        weight = weight[g_lo * f_per:g_hi * f_per]
        if bias is not None:
            bias = bias[g_lo * f_per:g_hi * f_per]
    return x, weight, bias, g_hi - g_lo


def _run_shard(request: ConvRequest, batch_slice: slice, g_lo: int,
               g_hi: int) -> np.ndarray:
    key = request.key
    x, weight, bias, shard_groups = _shard_arguments(
        request, batch_slice, g_lo, g_hi)
    with span("serve.shard", rows=x.shape[0], groups=shard_groups):
        return execute_conv(
            x, weight, bias, padding=key.padding, stride=key.stride,
            dilation=key.dilation, groups=shard_groups,
            algorithm=key.algorithm, strategy=key.strategy,
            backend=key.backend, op=key.op,
            output_padding=key.output_padding, breaker_key=key)


class WorkerPool:
    """Persistent shard executor on a lazily created thread pool."""

    def __init__(self, workers: int | None = None):
        self.workers = workers if workers else default_workers()
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        self._lock = threading.Lock()
        self._executor = None

    def _get_executor(self):
        with self._lock:
            if self._executor is None:
                self._executor = ThreadPoolExecutor(
                    max_workers=self.workers,
                    thread_name_prefix="serve-worker")
            return self._executor

    def run_request(self, request: ConvRequest) -> np.ndarray:
        """Execute one request, sharded across the pool when it helps.

        The caller's thread blocks until every shard returns; results are
        reassembled bit-exactly (batch concat, then filter concat).
        """
        key = request.key
        # Transposed convs shard along the batch axis only (see
        # _shard_arguments); forward convs may also split channel groups.
        split_groups = 1 if key.op == "conv_transpose2d" else key.groups
        splits = shard_splits(request.batch, split_groups, self.workers)
        counters.add("serve.shards", len(splits))
        if len(splits) == 1:
            return _run_shard(request, splits[0][0], *splits[0][1])
        executor = self._get_executor()
        futures = [executor.submit(_run_shard, request, bs, g0, g1)
                   for bs, (g0, g1) in splits]
        results = [f.result() for f in futures]
        return self._assemble(results, splits)

    @staticmethod
    def _assemble(results: list[np.ndarray],
                  splits: list[tuple[slice, tuple[int, int]]]) -> np.ndarray:
        """Reassemble shard outputs: filters within a batch slice, then
        batch slices in order."""
        by_batch: dict[tuple[int, int], list[np.ndarray]] = {}
        for out, (bs, _) in zip(results, splits):
            by_batch.setdefault((bs.start, bs.stop), []).append(out)
        blocks = [parts[0] if len(parts) == 1
                  else np.concatenate(parts, axis=1)
                  for _, parts in sorted(by_batch.items())]
        return blocks[0] if len(blocks) == 1 \
            else np.concatenate(blocks, axis=0)

    def resolve(self, request: ConvRequest) -> None:
        """Run *request* and resolve its future (never raises).

        Sheds the request instead of running it when its deadline has
        already passed or a timed-out caller cancelled its future — the
        pool is a dispatch stage like the queue, and dead work must not
        occupy workers.
        """
        from concurrent.futures import InvalidStateError

        from repro.serve.overload import shed_expired

        if not shed_expired([request]):
            return
        try:
            result = self.run_request(request)
        except BaseException as exc:  # noqa: BLE001 - futures carry it
            if not request.future.done():
                request.future.set_exception(exc)
            return
        try:
            request.future.set_result(result)
        except InvalidStateError:
            pass  # cancelled mid-execution; result is discarded

    def close(self) -> None:
        """Shut the executor down (idempotent; pool can be rebuilt)."""
        with self._lock:
            executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=True)
