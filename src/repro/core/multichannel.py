"""Batched multi-channel, multi-filter PolyHankel convolution (Sec. 3.2).

Two channel-handling strategies, as discussed in the paper:

- ``"sum"`` (the paper's chosen option): FFT each input channel separately,
  multiply with per-channel kernel spectra and **sum across channels in the
  frequency domain**, then run one inverse FFT per (image, filter) pair.
- ``"merge"`` (the paper's alternative): interleave all channels into one
  long polynomial whose single FFT aggregates channels automatically, at the
  price of a C-times larger transform.

Both produce identical results; ``benchmarks/bench_ablation_channel_merge``
quantifies the tradeoff the paper describes.  A third strategy,
``"overlap_save"`` (``algorithm="polyhankel_os"``), streams the sum
pipeline through overlap-save blocks of the cost model's block size
(:func:`repro.core.planning.overlap_save_blocks`), one contraction row per
block.

This module is also the execution engine: everything shape-dependent lives
in a :class:`PolyHankelPlan` (bounded LRU cache, :func:`get_plan`), and
everything *weight*-dependent — the kernel spectrum — is memoized in a
bounded, content-verified spectrum cache (:meth:`PolyHankelPlan.
weight_spectrum`), so steady-state inference transforms each kernel exactly
once.  :meth:`PolyHankelPlan.execute` optionally chunks the batch across a
thread pool (``workers=N``); chunked execution is bit-identical to the
sequential path because every pipeline stage is row-independent.
"""

from __future__ import annotations

import math
import threading
import weakref
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import partial
from typing import Literal

import numpy as np

from repro import fft as _fft
from repro.core.construction import (
    merged_input_stack,
    merged_output_gather_indices,
    output_gather_indices,
    polynomial_lengths,
    scatter_channel_stack,
    scatter_merged_stack,
    tap_degrees,
)
from repro.core.planning import (
    FftPolicy,
    PlanSpec,
    overlap_save_blocks,
    plan_fft_size,
    resolve_fft_policy,
)
from repro.fft.plan import CacheInfo
from repro.guard import faults as _faults
from repro.guard.checksum import guard_stamp, servable
from repro.observe import record_cache_event, span
from repro.observe.registry import cache_hits_misses, reset_cache_stats
from repro.utils.shapes import ConvShape
from repro.utils.validation import ensure_array

ChannelStrategy = Literal["sum", "merge", "overlap_save"]

#: Per-backend floor on ``n * (c + f) * nfft`` below which ``workers=N``
#: requests run sequentially anyway: under it, thread wake-up plus the
#: result concatenation cost more than the chunked transforms save
#: (BENCH_2026-08-06.json showed every conv16 case *slower* with workers).
#: pocketfft's batched transforms leave threads far less to win than the
#: builtin backend's pure-Python kernels, hence the much higher bar.
_SPLIT_MIN_WORK = {"builtin": 120_000}
_SPLIT_MIN_WORK_DEFAULT = 1_000_000


def _as_grid(gather: np.ndarray) -> tuple[int, tuple[int, ...]] | None:
    """``(base, steps)`` if *gather* is the affine grid
    ``base + sum_l steps_l * o_l``.

    Output degrees are affine in the output index for every stride
    (Eq. 12), so this holds for all shapes we generate; the check keeps
    it an invariant rather than an assumption.
    """
    if gather.size == 0:
        return None
    base = int(gather.flat[0])
    steps = np.array([int(np.take(gather, 1, axis=axis).flat[0]) - base
                      if extent > 1 else 1
                      for axis, extent in enumerate(gather.shape)])
    if steps.min() <= 0:
        return None
    expect = base + np.tensordot(steps, np.indices(gather.shape), axes=1)
    if not np.array_equal(gather, expect):
        return None
    return base, tuple(int(step) for step in steps)


@dataclass
class PolyHankelPlan:
    """A reusable execution plan for a fixed convolution shape.

    Mirrors cuDNN's plan/descriptor pattern: the FFT size, gather indices
    and the kernel spectrum's shape depend only on the shape, so repeated
    executions (every training/inference step) reuse them.  The weight
    spectrum itself is cached via :meth:`weight_spectrum` when weights are
    frozen.

    One plan serves every spatial rank: the :class:`ConvShape` is read
    only through its rank-generic names (``extents``, ``pad_pairs``,
    ``poly_strides``, ...), because the degree of an input element is its
    flattened index in the padded input at any rank.  Everything
    rank-dependent — the padding window, the staging view's strides, the
    kernel tap degrees, the gather grid — is fixed here at build time.

    ``fft_policy="auto"`` resolves to the concrete policy best for the
    plan's backend (see :func:`repro.core.planning.resolve_fft_policy`);
    after construction :attr:`fft_policy` is always concrete.  The
    ``overlap_save`` strategy takes its block size from the cost model
    instead, so its policy does not change its transforms.
    """

    shape: ConvShape
    fft_policy: FftPolicy = "pow2"
    strategy: ChannelStrategy = "sum"
    backend: str | None = None
    nfft: int = field(init=False)
    bins: int = field(init=False)
    gather: np.ndarray = field(init=False)
    gather_grid: tuple[int, tuple[int, ...]] | None = field(init=False)

    def __post_init__(self) -> None:
        if self.strategy not in ("sum", "merge", "overlap_save"):
            raise ValueError(
                f"unknown channel strategy {self.strategy!r}; "
                "expected 'sum', 'merge' or 'overlap_save'"
            )
        self.fft_policy = resolve_fft_policy(self.fft_policy, self.backend)
        len_a, len_u, transform_len = polynomial_lengths(self.shape)
        # Sum-pipeline staging: each channel row of ``_stage_len`` points
        # holds the padded input from ``_lead`` on and is read as
        # ``_blocks`` transforms of ``nfft`` points, ``_step`` apart.
        self._blocks, self._lead = 1, 0
        if self.strategy == "sum":
            self.nfft = plan_fft_size(transform_len, self.fft_policy)
            self.gather = output_gather_indices(self.shape)
            self._stage_len = self.nfft
        elif self.strategy == "overlap_save":
            self.nfft, self._step, self._blocks = overlap_save_blocks(
                self.shape)
            self._lead = len_u - 1
            self._stage_len = (self._blocks - 1) * self._step + self.nfft
            # Block b holds linear degrees b*step ... after its first K - 1
            # (wrapped) samples: degree t is at (t // step) * nfft + K - 1
            # + t % step of the concatenated block products.
            degrees = output_gather_indices(self.shape)
            self.gather = (degrees // self._step * self.nfft + self._lead
                           + degrees % self._step)
        else:
            # Channels merge *within* a group; each group is an independent
            # polynomial product, so the transform is c/groups times longer,
            # not c times.
            c = self.shape.group_channels
            merged_linear = c * len_a + c * len_u - 1
            self.nfft = plan_fft_size(merged_linear, self.fft_policy)
            self.gather = merged_output_gather_indices(self.shape)
        self.bins = self.nfft // 2 + 1
        self.gather_grid = _as_grid(self.gather)
        shape = self.shape
        self._taps = tap_degrees(shape)
        self._padded_extents = shape.padded_extents
        self._poly_strides = shape.poly_strides
        self._has_padding = any(p for pair in shape.pad_pairs for p in pair)
        # The unpadded input's window inside the padded block.
        self._interior = (Ellipsis,) + tuple(
            slice(lo, lo + extent)
            for (lo, _), extent in zip(shape.pad_pairs, shape.extents))
        # Thread-worker handoff floor (see _SPLIT_MIN_WORK): splitting the
        # batch only pays once the transform work per call clears it.
        backend_name = _fft.get_backend(self.backend).name
        rows = self.shape.groups + self.shape.f if self.strategy == "merge" \
            else self.shape.c + self.shape.f
        self._split_work = self.shape.n * rows * self._blocks * self.nfft
        self._split_min = _SPLIT_MIN_WORK.get(backend_name,
                                              _SPLIT_MIN_WORK_DEFAULT)
        # Per-plan scratch buffers for the sequential path (see _buffer).
        self._scratch: dict = {}
        self._scratch_lock = threading.Lock()

    @property
    def cache_key(self) -> tuple:
        """Identity of this plan's numerical configuration."""
        backend_name = _fft.get_backend(self.backend).name
        return (self.shape, self.fft_policy, self.strategy, backend_name)

    @property
    def spec(self) -> PlanSpec:
        """The pickle-safe :class:`PlanSpec` identifying this plan."""
        return PlanSpec(self.shape, self.fft_policy, self.strategy,
                        _fft.get_backend(self.backend).name)

    def __reduce__(self):
        # Plans hold locks and scratch buffers, so they pickle as their
        # spec and re-resolve against the destination process's warm plan
        # cache: plans travel as cache keys, never as payloads.
        return PlanSpec.resolve, (self.spec,)

    # -- weight handling -----------------------------------------------------

    def transform_weight(self, weight: np.ndarray) -> np.ndarray:
        """Kernel polynomial spectra for *weight* (``(f, c, *kernel)``).

        Returns the ``sum``/``overlap_save`` spectra bins-major as ``(g,
        bins, c_per, f_per)`` — per group and frequency bin, the matrix
        each channel row vector multiplies in the pointwise stage — and
        ``(f, nfft//2 + 1)`` for ``merge``.  Always recomputes; the cached
        entry point is :meth:`weight_spectrum`.
        """
        weight = ensure_array(weight, "weight", dtype=float)
        if weight.shape != self.shape.weight_shape():
            raise ValueError(
                f"weight shape {weight.shape} does not match plan "
                f"{self.shape.weight_shape()}"
            )
        fft = _fft.get_backend(self.backend)
        with span("weight.transform", strategy=self.strategy,
                  nfft=self.nfft, bytes=weight.nbytes):
            if self.strategy != "merge":
                shape = self.shape
                g, c_per, f_per = shape.groups, shape.group_channels, \
                    shape.group_filters
                # Allocated before the transform's temporary: in the other
                # order, freeing the temporary let the allocator hand the
                # heap top back to the OS, and an uncached call took 441
                # page faults instead of 111 (conv64 bench preset).
                operand = np.empty((g, self.bins, c_per, f_per), complex)
                w_hat = fft.rfft(scatter_channel_stack(weight, self._taps),
                                 self.nfft)              # (f, c_per, bins)
                operand[...] = w_hat.reshape(g, f_per, c_per, self.bins) \
                    .transpose(0, 3, 2, 1)
                return operand
            merged = scatter_merged_stack(weight, self._taps)
            return fft.rfft(merged, self.nfft)

    def weight_spectrum(self, weight: np.ndarray,
                        site: str = "spectrum") -> np.ndarray:
        """Cached kernel spectra for *weight*.

        Consults the module-level spectrum cache keyed by ``(id(weight),
        id(plan))``.  An entry dies with its weight array: it holds a weak
        reference whose callback drops the entry once the weight is
        collected, so the spectra of throwaway operands (the per-call
        arrays of a non-PolyHankel gradient's convolutions) are freed with
        them instead of filling the LRU bound.  A weight that cannot be
        weakly referenced is transformed uncached.  A hit is only served after an exact
        content check against the stored snapshot, so mutating a weight
        array (in place or by rebinding) always yields fresh spectra — the
        cache can return stale results **never**, only miss.  Entries
        inserted while the guard is enabled additionally carry a content
        checksum of the *spectrum* itself, and while it is enabled a hit
        is served only if that stamp still matches: an unstamped entry is
        recomputed and stamped, and a mismatched one (in-memory rot, a
        doctored entry) is recomputed and reported through
        ``guard.cache_corrupt`` (see :func:`repro.guard.checksum.servable`).

        *site* names the cache surface the lookup reports to: hits and
        misses count as ``cache.<site>.*`` and a corrupt hit as
        ``guard.cache_corrupt`` under ``cache=<site>``.  Conv layers pass
        ``"layer_spectrum"``, so their lookups on this one cache stay
        separable from functional calls.
        """
        if not _spectrum_cache_enabled():
            return self.transform_weight(weight)
        # Key on object identities — much cheaper to hash per call than the
        # full plan cache_key tuple.  Storing the plan in the entry both
        # pins its id (no reuse while the entry lives) and lets the hit
        # path confirm the entry belongs to this exact plan object.
        key = (id(weight), id(self))
        arr = np.asarray(weight)
        hit = None
        with _spectrum_lock:
            entry = _SPECTRUM_CACHE.get(key)
            if entry is not None and entry[2] is self \
                    and arr.shape == entry[1].shape \
                    and np.array_equal(arr, entry[1]):
                record_cache_event(site, hit=True)
                _SPECTRUM_CACHE.move_to_end(key)
                hit = entry
        if hit is not None:
            spectrum = hit[3]
            if _faults._STACK:
                _faults.maybe_corrupt_spectrum(spectrum)
            if servable(spectrum, hit[4], site):
                return spectrum
        else:
            record_cache_event(site, hit=False)
        try:
            ref = weakref.ref(weight, partial(_evict_spectrum, key))
        except TypeError:
            return self.transform_weight(weight)
        spectrum = self.transform_weight(weight)
        with _spectrum_lock:
            _SPECTRUM_CACHE[key] = (ref, arr.astype(float, copy=True), self,
                                    spectrum, guard_stamp(spectrum))
            _SPECTRUM_CACHE.move_to_end(key)
            while len(_SPECTRUM_CACHE) > _SPECTRUM_LIMIT[0]:
                _SPECTRUM_CACHE.popitem(last=False)
        return spectrum

    # -- execution ------------------------------------------------------------

    def execute(self, x: np.ndarray, weight_hat: np.ndarray,
                workers: int | None = None, check: bool = True) -> np.ndarray:
        """Run the convolution for input *x* against a transformed weight.

        ``workers=N`` (N > 1) *requests* batch thread-chunking; the
        handoff is shape-aware — below the plan's per-backend work floor
        (see ``_SPLIT_MIN_WORK``) the request runs sequentially anyway,
        because thread wake-up would cost more than the chunks save.
        When the batch does split, the result is bit-identical to the
        sequential path: every pipeline stage is row-independent.
        ``check=False`` skips input validation for callers (the functional
        wrapper, layers) that have already performed it.
        """
        if check:
            x = ensure_array(x, "x", dtype=float)
            if x.shape != self.shape.input_shape():
                raise ValueError(
                    f"input shape {x.shape} does not match plan "
                    f"{self.shape.input_shape()}"
                )
        fft = _fft.get_backend(self.backend)
        run = self._execute_merge if self.strategy == "merge" \
            else self._execute_sum
        if _faults._STACK:
            # Fault-injection hook: poisons a *copy*, so reused scratch
            # buffers (whose zero border is never rewritten) stay clean.
            x = _faults.poison_intermediate(x)
        n = self.shape.n
        if workers is None or workers <= 1 or n <= 1 \
                or self._split_work < self._split_min:
            # Scratch reuse only when no other caller holds the buffers
            # (concurrent callers fall back to fresh allocations, so reuse
            # is never a correctness concern).
            reuse = self._scratch_lock.acquire(blocking=False)
            try:
                out = run(x, weight_hat, fft, reuse)
            finally:
                if reuse:
                    self._scratch_lock.release()
        else:
            bounds = np.array_split(np.arange(n), min(workers, n))
            pool = _get_pool(min(workers, n))
            futures = [pool.submit(run, x[idx[0]: idx[-1] + 1], weight_hat,
                                   fft)
                       for idx in bounds if len(idx)]
            out = np.concatenate([f.result() for f in futures], axis=0)
        return _faults.maybe_blowup(out) if _faults._STACK else out

    def _buffer(self, reuse: bool, name: str, shape: tuple, dtype,
                zero: bool = False) -> np.ndarray:
        """A work buffer, from the plan's scratch if *reuse*.

        Reuse keeps the pages warm across repeated calls and is safe
        because every consumed element is rewritten per call — except the
        zero padding border and tail of ``zero`` buffers, which are
        written once at allocation and never dirtied.
        """
        alloc = np.zeros if zero else np.empty
        if not reuse:
            return alloc(shape, dtype=dtype)
        buf = self._scratch.get(name)
        if buf is None or buf.shape != shape:
            buf = self._scratch[name] = alloc(shape, dtype=dtype)
        return buf

    def _execute_sum(self, x: np.ndarray, weight_hat: np.ndarray,
                     fft, reuse: bool = False) -> np.ndarray:
        """The sum-strategy pipeline for one (sub-)batch of **unpadded**
        inputs ``(n_block, c, *extents)`` against the ``(g, bins, c_per,
        f_per)`` operand of :meth:`transform_weight`:

        1. stage every input channel into a zeroed real ``(n, c, nfft)``
           block — the padding border is part of the block's zero state,
           so only the interior window is written — and run **one**
           batched rfft over it;
        2. copy the half-spectra once into the bins-major block ``(g,
           bins, n, 1, c_per)``: per frequency bin, each image is one row
           vector, and its product with the bin's ``(c_per, f_per)``
           weight matrix *is* the pointwise multiply + cross-channel sum;
        3. copy the products once back to ``(n, g, f_per, bins)`` and run
           **one** batched irfft over them.

        Each image gets its own row-vector product rather than sharing
        one ``(c_per, n)`` column block: BLAS blocks a matrix product by
        its column count, which changes the bits with ``n``.  With one
        row per image, row ``i`` of a batch call is bit-identical to the
        single-image call for every ``n``, and chunking the batch for
        ``workers=N`` leaves the result bit-identical too.  Depthwise
        groups (``c_per == 1``) have no channel sum, so their contraction
        is a broadcast multiply — chosen by shape, still per image.

        The ``overlap_save`` strategy runs this same pipeline on blocks:
        each channel row is staged after ``K - 1`` leading zeros, read as
        ``blocks`` overlapping ``nfft``-point windows (a strided view, no
        copy), and every (image, block) pair is one contraction row; the
        gather then skips each block's first ``K - 1`` samples.
        """
        shape = self.shape
        n = x.shape[0]
        g, c_per, f_per = shape.groups, shape.group_channels, \
            shape.group_filters
        bins, nfft, m = self.bins, self.nfft, self._blocks

        with span("stage.input_fft", n=nfft, rows=n * shape.c * m,
                  bytes=x.nbytes):
            block = self._buffer(reuse, "x", (n, shape.c, self._stage_len),
                                 float, zero=True)
            self._staging_view(block)[self._interior] = x
            if m > 1:      # the overlapping windows, ``_step`` apart
                s0, s1, s2 = block.strides
                block = np.lib.stride_tricks.as_strided(
                    block, (n, shape.c, m, nfft), (s0, s1, self._step * s2, s2))
            x_hat = fft.rfft(block, nfft)                # (n, c, [m,] bins)
            # The row block and the inverse transform's input are never
            # live together, so they share one buffer.
            shared = self._buffer(reuse, "spectra",
                                  (n * m * bins * max(shape.c, shape.f),),
                                  complex)
            rows = shared[:n * m * bins * shape.c].reshape(
                g, bins, n * m, 1, c_per)
            rows.reshape(g, bins, n, m, c_per)[...] = x_hat.reshape(
                n, g, c_per, m, bins).transpose(1, 4, 0, 3, 2)

        products = self._buffer(reuse, "products",
                                (g, bins, n * m, 1, f_per), complex)
        with span("stage.pointwise", strategy=self.strategy,
                  bytes=rows.nbytes + weight_hat.nbytes):
            w = weight_hat[:, :, None]                  # (g, bins, 1, c, f)
            if c_per == 1:
                np.multiply(rows, w, out=products)
            else:
                np.matmul(rows, w, out=products)

        with span("stage.inverse_fft", n=nfft, rows=n * shape.f * m,
                  bytes=products.nbytes):
            spec = shared[:n * m * bins * shape.f].reshape(
                n, g, f_per, m, bins)
            spec[...] = products.reshape(g, bins, n, m, f_per).transpose(
                2, 0, 4, 3, 1)
            product = fft.irfft(spec, nfft)        # (n, g, f_per, m, nfft)
        return self._gather_output(product.reshape(n, shape.f, m * nfft))

    def _execute_merge(self, x: np.ndarray, weight_hat: np.ndarray,
                       fft, reuse: bool = False) -> np.ndarray:
        """The merge-strategy pipeline for one (sub-)batch of unpadded
        inputs: pad, interleave each group's channels into one long
        polynomial, one batched rfft, a broadcast multiply with the
        ``(f, bins)`` merged kernel spectra, one batched irfft."""
        shape = self.shape
        g, c_per, f_per = shape.groups, shape.group_channels, \
            shape.group_filters
        bins = self.bins
        if self._has_padding:
            with span("stage.pad", reuse=reuse, bytes=x.nbytes):
                # Allocate-and-assign: several times faster than np.pad.
                xp = self._buffer(reuse, "padded",
                                  x.shape[:2] + self._padded_extents, float,
                                  zero=True)
                xp[self._interior] = x
        else:
            xp = x
        n = xp.shape[0]
        merged = merged_input_stack(xp.reshape(n * g, c_per, -1))
        with span("stage.input_fft", n=self.nfft, rows=n * g,
                  bytes=merged.nbytes):
            x_hat = fft.rfft(merged, self.nfft).reshape(n, g, 1, bins)
        out_hat = self._buffer(reuse, "out_hat", (n, g, f_per, bins),
                               complex)
        with span("stage.pointwise", strategy="merge",
                  bytes=x_hat.nbytes + weight_hat.nbytes):
            np.multiply(x_hat, weight_hat.reshape(g, f_per, bins),
                        out=out_hat)
        with span("stage.inverse_fft", n=self.nfft, rows=n * shape.f,
                  bytes=out_hat.nbytes):
            product = fft.irfft(out_hat.reshape(n, shape.f, bins),
                                self.nfft)               # (n, f, nfft)
        return self._gather_output(product)

    def _gather_output(self, product: np.ndarray) -> np.ndarray:
        """The Eq. 12 output gather over ``(n, f, blocks * nfft)``
        products."""
        with span("stage.gather", bytes=product.nbytes) as gather_span:
            if self.gather_grid is None:
                result = product[..., self.gather]       # (n, f, *out)
            else:
                # The gather degrees form a regular grid, so a strided
                # view + one contiguous copy replaces the advanced indexing
                # (no index array to walk); the values are identical.
                view = self._grid_view(np.ascontiguousarray(product))
                result = np.ascontiguousarray(view).reshape(
                    product.shape[:-1] + self.gather.shape)
            gather_span.add_attrs(out_bytes=result.nbytes)
        return result

    def _grid_view(self, block: np.ndarray) -> np.ndarray:
        """The gather degrees of every row of a C-contiguous block, as a
        strided ``(rows, *out)`` view (needs :attr:`gather_grid`)."""
        base, steps = self.gather_grid
        flat = block.reshape(-1, block.shape[-1])
        s0, s1 = flat.strides
        return np.lib.stride_tricks.as_strided(
            flat[:, base:], shape=(flat.shape[0],) + self.gather.shape,
            strides=(s0,) + tuple(step * s1 for step in steps))

    # -- adjoint ---------------------------------------------------------------

    def adjoint(self, grad_out: np.ndarray, x: np.ndarray | None = None,
                weight: np.ndarray | None = None
                ) -> tuple[np.ndarray | None, np.ndarray | None]:
        """The forward's gradients ``(dx, dw)`` for the output gradient
        *grad_out*, through the plan's own cyclic product.

        The sum-strategy forward is ``y = G C(u) S x``: ``S`` stages *x*
        into the ``nfft`` rows, ``C(u)`` multiplies cyclically by the
        kernel polynomial ``u``, ``G`` reads the gather degrees.  The
        adjoint ``S^T C(u)^T G^T`` is a cyclic *correlation* at the same
        ``nfft``, a product with the conjugate spectrum per bin.  So
        *grad_out* is scattered onto the gather degrees of a zeroed
        ``(n, f, nfft)`` block and transformed once (``P``); then

        - ``dx`` (only if *weight* is given): per group and bin ``dA[n, c]
          = sum_f P[n, f] conj(W[c, f])``, with ``W`` from
          :meth:`weight_spectrum` (a hit right after the forward), one
          row-vector product per image as in :meth:`_execute_sum` — so
          row ``i`` of a batch is bit-identical to the single-image call
          — one batched irfft, read back through the staging window;
        - ``dw`` (only if *x* is given): ``dU[f, c] = sum_n conj(X[n, c])
          P[n, f]``, with ``X`` the rfft of *x* staged as the forward
          stages it, one batched irfft of the ``f * c/g`` rows, read at
          the tap degrees.

        Both are exact gradients of the convolution: input and tap
        degrees lie below ``nfft`` and the forward reads only alias-free
        degrees, so the cyclic product *is* the convolution.  The
        conjugations ride on the bins-major copies: the rows hold
        ``conj(P)``, and the products are conjugated on their way back.
        """
        if self.strategy != "sum":
            raise ValueError("the adjoint runs on sum-strategy plans only")
        shape = self.shape
        grad_out = ensure_array(grad_out, "grad_out", dtype=float)
        if grad_out.shape != shape.output_shape():
            raise ValueError(f"grad_out shape {grad_out.shape} does not "
                             f"match plan {shape.output_shape()}")
        if x is not None:
            x = ensure_array(x, "x", dtype=float)
            if x.shape != shape.input_shape():
                raise ValueError(f"input shape {x.shape} does not match "
                                 f"plan {shape.input_shape()}")
        if _faults._STACK:
            # The transposed conv's PolyHankel forward is this adjoint, so
            # it carries execute's fault-injection hooks.
            grad_out = _faults.poison_intermediate(grad_out)
        weight_hat = None if weight is None else self.weight_spectrum(weight)
        fft = _fft.get_backend(self.backend)
        reuse = self._scratch_lock.acquire(blocking=False)
        try:
            rows = self._output_spectra(grad_out, fft, reuse)
            dx = None if weight_hat is None \
                else self._adjoint_input(rows, weight_hat, fft, reuse)
            dw = None if x is None else self._adjoint_weight(rows, x, fft,
                                                              reuse)
        finally:
            if reuse:
                self._scratch_lock.release()
        if dx is not None and _faults._STACK:
            dx = _faults.maybe_blowup(dx)
        return dx, dw

    def _staging_view(self, block: np.ndarray) -> np.ndarray:
        """Each row of a C-contiguous ``(n, c, stage_len)`` block from
        its ``_lead`` on, viewed as the padded input (the forward's
        staging layout)."""
        step = block.strides[-1]
        return np.lib.stride_tricks.as_strided(
            block[..., self._lead:], block.shape[:-1] + self._padded_extents,
            block.strides[:-1] + tuple(s * step for s in self._poly_strides))

    def _work(self, reuse: bool, name: str, shape: tuple) -> np.ndarray:
        """A complex *shape* view of the adjoint's flat work buffer
        *name*, sized for the largest operand it holds."""
        s = self.shape
        size = self.bins * max(s.n * s.c, s.f * s.group_channels)
        buf = self._buffer(reuse, name, (size,), complex)
        return buf[:math.prod(shape)].reshape(shape)

    def _output_spectra(self, grad_out: np.ndarray, fft,
                        reuse: bool) -> np.ndarray:
        """``conj(P)`` bins-major as ``(g, bins, n, 1, f/g)``: *grad_out*
        scattered onto the gather degrees (the transpose of
        :meth:`_gather_output`), one batched rfft."""
        shape = self.shape
        n, g, f_per = shape.n, shape.groups, shape.group_filters
        nfft = self.nfft
        with span("grad.output_fft", n=nfft, rows=n * shape.f,
                  bytes=grad_out.nbytes):
            # Only the gather degrees are written, every call, so the
            # rest of a reused block keeps its zero state.
            block = self._buffer(reuse, "grad", (n, shape.f, nfft), float,
                                 zero=True)
            if self.gather_grid is None:
                block[..., self.gather] = grad_out
            else:
                view = self._grid_view(block)
                view[...] = grad_out.reshape(view.shape)
            p_hat = fft.rfft(block, nfft)                # (n, f, bins)
            # The forward's product block has this very shape, and the
            # two never run at once on one plan's scratch.
            rows = self._buffer(reuse, "products",
                                (g, self.bins, n, 1, f_per), complex)
            np.conjugate(p_hat.reshape(n, g, f_per, self.bins)
                         .transpose(1, 3, 0, 2), out=rows[:, :, :, 0])
        return rows

    def _adjoint_input(self, rows: np.ndarray, weight_hat: np.ndarray,
                       fft, reuse: bool) -> np.ndarray:
        """``dx`` from the ``conj(P)`` rows and the ``(g, bins, c/g, f/g)``
        weight spectra: per image ``conj(conj(P) W^T)``, one irfft, the
        staging window read back."""
        shape = self.shape
        n, g, c_per = shape.n, shape.groups, shape.group_channels
        bins, nfft = self.bins, self.nfft
        with span("grad.pointwise", operand="input",
                  bytes=rows.nbytes + weight_hat.nbytes):
            w = weight_hat.swapaxes(-1, -2)[:, :, None]  # (g, bins, 1, f, c)
            products = self._work(reuse, "grad_a", (g, bins, n, 1, c_per))
            if shape.group_filters == 1:
                np.multiply(rows, w, out=products)
            else:
                np.matmul(rows, w, out=products)
        with span("grad.inverse_fft", n=nfft, rows=n * shape.c,
                  bytes=products.nbytes):
            spec = self._work(reuse, "grad_b", (n, g, c_per, bins))
            np.conjugate(products[:, :, :, 0].transpose(2, 0, 3, 1),
                         out=spec)
            # irfft may return a non-C-contiguous array; the staging view
            # is built from the strides of a C-contiguous block.
            block = np.ascontiguousarray(
                fft.irfft(spec, nfft).reshape(n, shape.c, nfft))
            return np.ascontiguousarray(
                self._staging_view(block)[self._interior])

    def _adjoint_weight(self, rows: np.ndarray, x: np.ndarray, fft,
                        reuse: bool) -> np.ndarray:
        """``dw`` from the ``conj(P)`` rows and the forward input: per
        group and bin ``conj(X^T conj(P))`` summed over the batch, one
        irfft of the ``f * c/g`` rows, read at the tap degrees."""
        shape = self.shape
        n, g, c_per = shape.n, shape.groups, shape.group_channels
        f_per = shape.group_filters
        bins, nfft = self.bins, self.nfft
        with span("grad.input_fft", n=nfft, rows=n * shape.c,
                  bytes=x.nbytes):
            block = self._buffer(reuse, "x", (n, shape.c, nfft), float,
                                 zero=True)
            self._staging_view(block)[self._interior] = x
            x_hat = fft.rfft(block, nfft)                # (n, c, bins)
            cols = self._work(reuse, "grad_a", (g, bins, c_per, n))
            cols[...] = x_hat.reshape(n, g, c_per, bins).transpose(1, 3, 2, 0)
        with span("grad.pointwise", operand="weight",
                  bytes=cols.nbytes + rows.nbytes):
            products = self._work(reuse, "grad_b", (g, bins, c_per, f_per))
            np.matmul(cols, rows[:, :, :, 0], out=products)
        with span("grad.inverse_fft", n=nfft, rows=shape.f * c_per,
                  bytes=products.nbytes):
            spec = self._work(reuse, "grad_a", (g, f_per, c_per, bins))
            np.conjugate(products.transpose(0, 3, 2, 1), out=spec)
            du = fft.irfft(spec, nfft).reshape(shape.f, c_per, nfft)
            return du[..., self._taps]                   # (f, c/g, *kernel)


# ---------------------------------------------------------------------------
# Bounded plan cache with hit/miss statistics.
# ---------------------------------------------------------------------------

_plan_lock = threading.Lock()
_PLAN_CACHE: OrderedDict[tuple, PolyHankelPlan] = OrderedDict()
_PLAN_LIMIT = [256]
#: Each request spelling of the options -> its resolved plan-cache key.
_PLAN_KEYS: dict[tuple, tuple] = {}


def get_plan(shape: ConvShape,
             fft_policy: FftPolicy = "auto",
             strategy: ChannelStrategy = "sum",
             backend: str | None = None) -> PolyHankelPlan:
    """Fetch (or build and LRU-cache) the plan for *shape* and options.

    A hit is one lookup under the options as the caller spelled them; the
    FFT policy is resolved only on a miss.  Every
    spelling of one numerical configuration shares one plan object, since
    the spectrum caches key on the plan's identity.
    """
    backend_name = _fft.get_backend(backend).name
    request = (shape, fft_policy, strategy, backend_name)
    with _plan_lock:
        key = _PLAN_KEYS.get(request)
        plan = _PLAN_CACHE.get(key) if key is not None else None
        if plan is not None:
            record_cache_event("conv_plan", hit=True)
            _PLAN_CACHE.move_to_end(key)
            return plan
    policy = resolve_fft_policy(fft_policy, backend_name)
    key = (shape, policy, strategy, backend_name)
    with _plan_lock:
        plan = _PLAN_CACHE.get(key)
    record_cache_event("conv_plan", hit=plan is not None)
    if plan is None:
        with span("plan.build", strategy=strategy, backend=backend_name):
            plan = PolyHankelPlan(shape, policy, strategy, backend_name)
    with _plan_lock:
        _PLAN_CACHE[key] = plan
        _PLAN_CACHE.move_to_end(key)
        while len(_PLAN_CACHE) > _PLAN_LIMIT[0]:
            _PLAN_CACHE.popitem(last=False)
        if len(_PLAN_KEYS) >= 4 * _PLAN_LIMIT[0]:
            _PLAN_KEYS.clear()
        _PLAN_KEYS[request] = key
    return plan


def plan_cache_info() -> CacheInfo:
    """Hit/miss statistics of the plan cache (events from the unified
    :mod:`repro.observe` registry; size/limit from the structure)."""
    hits, misses = cache_hits_misses("conv_plan")
    with _plan_lock:
        return CacheInfo(hits, misses, len(_PLAN_CACHE), _PLAN_LIMIT[0])


def set_plan_cache_limit(maxsize: int) -> None:
    """Bound the number of cached plans, evicting LRU entries if needed."""
    if maxsize < 1:
        raise ValueError("plan cache limit must be >= 1")
    with _plan_lock:
        _PLAN_LIMIT[0] = maxsize
        while len(_PLAN_CACHE) > maxsize:
            _PLAN_CACHE.popitem(last=False)


def clear_plan_cache() -> None:
    """Drop all cached plans (mainly for tests and memory control)."""
    with _plan_lock:
        _PLAN_CACHE.clear()
        _PLAN_KEYS.clear()
        _ARG_MEMO.clear()
    reset_cache_stats("conv_plan")


# ---------------------------------------------------------------------------
# Bounded, content-verified weight-spectrum cache.
# ---------------------------------------------------------------------------

_spectrum_lock = threading.Lock()
# key -> (weight ref, weight snapshot, plan, spectrum, spectrum checksum)
_SPECTRUM_CACHE: OrderedDict[
    tuple, tuple[weakref.ref, np.ndarray, PolyHankelPlan, np.ndarray,
                 int | None]
] = OrderedDict()
_SPECTRUM_LIMIT = [64]
_SPECTRUM_ENABLED = [True]


def _evict_spectrum(key: tuple, ref: weakref.ref) -> None:
    """Weakref callback: drop the entry of a weight that was collected.

    It never takes ``_spectrum_lock``: a collection can run inside the
    locked region, where the non-reentrant lock would deadlock; each dict
    operation is atomic under the GIL.  The callback runs before the
    weight's memory is freed, so no newer array holds its ``id()`` yet;
    the ``is ref`` test spares the entry of a weight that was re-inserted
    (after an in-place update) under a newer reference.
    """
    entry = _SPECTRUM_CACHE.get(key)
    if entry is not None and entry[0] is ref:
        _SPECTRUM_CACHE.pop(key, None)


def _spectrum_cache_enabled() -> bool:
    return _SPECTRUM_ENABLED[0]


def enable_spectrum_cache(enabled: bool = True) -> None:
    """Globally enable/disable spectrum caching (used for benchmarking the
    uncached reference path)."""
    _SPECTRUM_ENABLED[0] = bool(enabled)


def spectrum_cache_info() -> CacheInfo:
    """Hit/miss statistics of the weight-spectrum cache (events from the
    unified :mod:`repro.observe` registry)."""
    hits, misses = cache_hits_misses("spectrum")
    with _spectrum_lock:
        return CacheInfo(hits, misses, len(_SPECTRUM_CACHE),
                         _SPECTRUM_LIMIT[0])


def set_spectrum_cache_limit(maxsize: int) -> None:
    """Bound the number of cached spectra, evicting LRU entries if needed."""
    if maxsize < 1:
        raise ValueError("spectrum cache limit must be >= 1")
    with _spectrum_lock:
        _SPECTRUM_LIMIT[0] = maxsize
        while len(_SPECTRUM_CACHE) > maxsize:
            _SPECTRUM_CACHE.popitem(last=False)


def clear_spectrum_cache() -> None:
    """Drop all cached spectra and reset the statistics of both surfaces
    that look them up (``spectrum`` and ``layer_spectrum``)."""
    with _spectrum_lock:
        _SPECTRUM_CACHE.clear()
    reset_cache_stats("spectrum")
    reset_cache_stats("layer_spectrum")


# ---------------------------------------------------------------------------
# Shared thread pools for workers=N execution.
# ---------------------------------------------------------------------------

_pool_lock = threading.Lock()
_POOLS: dict[int, ThreadPoolExecutor] = {}


def _get_pool(workers: int) -> ThreadPoolExecutor:
    with _pool_lock:
        pool = _POOLS.get(workers)
        if pool is None:
            pool = ThreadPoolExecutor(
                max_workers=workers, thread_name_prefix="polyhankel")
            _POOLS[workers] = pool
        return pool


# Front memo for the functional entry points: maps primitive argument
# tuples straight to plan objects, skipping shape construction and its
# (comparatively expensive) dataclass hashing on the steady-state path.
# Entries only reference plans held by _PLAN_CACHE-style lookups; bounded
# like the other caches and flushed by clear_plan_cache().
_ARG_MEMO: OrderedDict[tuple, PolyHankelPlan] = OrderedDict()
_ARG_MEMO_LIMIT = 256


def _hashable(value):
    return tuple(value) if isinstance(value, list) else value


def _plan_for_args(x_shape, w_shape, padding, stride, dilation, groups,
                   fft_policy, strategy, backend) -> PolyHankelPlan:
    key = (x_shape, w_shape, _hashable(padding),
           _hashable(stride), _hashable(dilation), groups, fft_policy,
           strategy, backend)
    with _plan_lock:
        plan = _ARG_MEMO.get(key)
    if plan is not None:
        # The front memo is part of the plan-cache surface: count its hits
        # so the consolidated cache table reflects steady-state reuse.
        record_cache_event("conv_plan", hit=True)
        return plan
    shape = ConvShape.from_tensors(x_shape, w_shape, padding, stride,
                                   dilation, groups)
    plan = get_plan(shape, fft_policy, strategy, backend)
    with _plan_lock:
        _ARG_MEMO[key] = plan
        while len(_ARG_MEMO) > _ARG_MEMO_LIMIT:
            _ARG_MEMO.popitem(last=False)
    return plan


def conv2d_polyhankel(x: np.ndarray, weight: np.ndarray,
                      bias: np.ndarray | None = None,
                      padding: int | tuple | str = 0,
                      stride: int | tuple = 1,
                      dilation: int | tuple = 1, groups: int = 1,
                      fft_policy: FftPolicy = "auto",
                      strategy: ChannelStrategy = "sum",
                      backend: str | None = None,
                      workers: int | None = None) -> np.ndarray:
    """2D convolution of an NCHW batch via the PolyHankel method.

    Parameters mirror ``torch.nn.functional.conv2d``: *stride* and
    *dilation* take an int or an ``(h, w)`` pair, *padding* additionally a
    ``(pt, pb, pl, pr)`` 4-tuple or ``"same"``, and *groups* splits the
    channels (``groups=c`` is depthwise).  Returns an ``(n, f, oh, ow)``
    array.  Repeated calls with the same weight array and geometry reuse
    the cached plan *and* kernel spectrum; ``workers=N`` parallelizes the
    batch across threads.
    """
    x = ensure_array(x, "x", dtype=float, ndim=4)
    # Uncast: the spectrum cache keys on the caller's array, so a
    # float32 weight hits across calls; the transform casts it.
    weight = np.asarray(weight)
    out = run_polyhankel(x, weight, padding, stride, dilation, groups,
                         fft_policy, strategy, backend, workers)
    if bias is not None:
        bias = ensure_array(bias, "bias", ndim=1)
        if len(bias) != out.shape[1]:
            raise ValueError(
                f"bias must have {out.shape[1]} entries, got {len(bias)}"
            )
        out = out + bias[None, :, None, None]
    return out


def run_polyhankel(x: np.ndarray, weight: np.ndarray,
                   padding, stride, dilation, groups: int,
                   fft_policy: FftPolicy = "auto",
                   strategy: ChannelStrategy = "sum",
                   backend: str | None = None,
                   workers: int | None = None,
                   site: str = "spectrum") -> np.ndarray:
    """One forward pass of float array *x* and array *weight* (any real
    dtype; the weight transform casts it) through the cached plan of
    their problem, at any spatial rank — the tail every PolyHankel front
    door shares.  *site* is the cache surface the spectrum lookup reports
    to (:meth:`PolyHankelPlan.weight_spectrum`)."""
    plan = _plan_for_args(x.shape, weight.shape, padding, stride, dilation,
                          groups, fft_policy, strategy, backend)
    return plan.execute(x, plan.weight_spectrum(weight, site),
                        workers=workers, check=False)
