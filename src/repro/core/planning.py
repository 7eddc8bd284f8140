"""FFT size planning and plan caching for PolyHankel.

Sec. 3.2: cuFFT is fastest on sizes ``2^a 3^b 5^c 7^d``; the authors found
plain multiples of two best in their tests and "pad the kernel size to the
nearest multiple of 2".  We expose that choice as a policy:

- ``"pow2"``    — round the FFT size up to the next power of two (paper's
  default choice);
- ``"smooth7"`` — round up to the next 7-smooth size (cuFFT/pocketfft fast
  lengths; usually smaller, sometimes slower per point);
- ``"even"``    — just round up to an even size (the literal "nearest
  multiple of 2");
- ``"exact"``   — no rounding (useful for counting-model experiments);
- ``"auto"``    — pick per backend: pocketfft (the ``numpy`` backend) is
  fast at any 7-smooth size, so the tighter ``smooth7`` rounding wins
  there, while the builtin backend's radix-2 kernel is its fastest path,
  so it keeps ``pow2``.  ``"auto"`` is resolved to a concrete policy at
  plan-construction time by :func:`resolve_fft_policy`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal

from repro import fft as _fft
from repro.utils.validation import require

FftPolicy = Literal["pow2", "smooth7", "even", "exact", "auto"]

POLICIES: tuple[str, ...] = ("pow2", "smooth7", "even", "exact")

#: Largest 1D FFT a single GPU kernel can run out of shared memory
#: (with register pressure and twiddle storage, ~2048 complex64 points).
#: Longer transforms use a multi-pass (four-step) decomposition that
#: streams the whole array through DRAM once more per extra pass.
MAX_SINGLE_PASS_FFT = 2048

#: Smallest overlap-save block size the block-size search starts from.
MIN_OS_BLOCK = 512


@dataclass(frozen=True)
class PlanSpec:
    """Pickle-safe identity of one execution plan.

    A :class:`~repro.core.multichannel.PolyHankelPlan` owns locks and
    scratch buffers, so it cannot (and should not) cross a process
    boundary by value.  Its *spec* — shape, resolved FFT policy, channel
    strategy, backend name — is a plain frozen value that pickles in a
    few bytes and re-resolves against the receiving process's warm plan
    cache, which is how a cluster replica warms a family's plan: plans
    travel as cache keys, never as payloads.
    """

    shape: object  # ConvShape (untyped to stay import-light)
    fft_policy: FftPolicy
    strategy: str
    backend: str | None

    def resolve(self):
        """The (cached) live plan for this spec in *this* process."""
        from repro.core.multichannel import get_plan

        return get_plan(self.shape, self.fft_policy, self.strategy,
                        self.backend)


def resolve_fft_policy(policy: FftPolicy,
                       backend: str | None = None) -> FftPolicy:
    """Resolve ``"auto"`` to the concrete policy best for *backend*.

    Concrete policies pass through unchanged.  *backend* may be a backend
    name or ``None`` for the active backend.
    """
    if policy != "auto":
        return policy
    return "smooth7" if _fft.get_backend(backend).name == "numpy" else "pow2"


def plan_fft_size(min_len: int, policy: FftPolicy = "pow2") -> int:
    """Smallest FFT size >= *min_len* permitted by *policy*."""
    require(min_len >= 1, "minimum length must be positive")
    if policy == "pow2":
        return _fft.next_pow2(min_len)
    if policy == "smooth7":
        return _fft.next_fast_len(min_len)
    if policy == "even":
        return min_len + (min_len % 2)
    if policy == "exact":
        return min_len
    raise ValueError(f"unknown FFT policy {policy!r}; one of {POLICIES}")


def fft_passes(nfft: int) -> int:
    """DRAM passes a batched 1D FFT of size *nfft* needs."""
    passes = 1
    span = MAX_SINGLE_PASS_FFT
    while nfft > span:
        passes += 1
        span *= MAX_SINGLE_PASS_FFT
    return passes


def polyhankel_block_size(shape) -> int:
    """Overlap-save FFT block size: the classic per-sample-optimal choice.

    For kernel-polynomial length ``M = (Kh-1)*Iw + Kw`` (Sec. 3.2), a block
    of size ``nfft`` yields ``nfft - M + 1`` fresh samples, so the FFT work
    per useful sample is ``passes_penalty * nfft * log2(nfft) / (nfft-M+1)``.
    We pick the power-of-two ``nfft`` minimizing that, doubling the weight
    for every extra DRAM pass a beyond-shared-memory transform needs.

    Because of the pass penalty the choice is effectively capped at
    :data:`MAX_SINGLE_PASS_FFT`; once ``M`` grows toward that cap the
    overlap fraction explodes — this is the paper's Fig. 4 mechanism ("the
    FFT size in PolyHankel is determined by the size of kernel vectors.
    When the kernel vector size reaches the next power of two, the FFT size
    will be doubled").
    """
    kernel_len = shape.poly_kernel_len
    floor = max(plan_fft_size(kernel_len + 1, "pow2"), MIN_OS_BLOCK)
    best, best_cost = floor, math.inf
    nfft = floor
    for _ in range(5):
        step = nfft - kernel_len + 1
        penalty = 2.0 ** (fft_passes(nfft) - 1)
        cost = penalty * nfft * math.log2(nfft) / step
        if cost < best_cost:
            best, best_cost = nfft, cost
        nfft *= 2
    return best


def overlap_save_blocks(shape) -> tuple[int, int, int]:
    """``(nfft, step, blocks)``: the overlap-save geometry of one image.

    Each image's polynomial ``A(t)`` of length ``L`` is streamed with
    ``K - 1`` leading zeros (``K`` the kernel polynomial length) through
    blocks of :func:`polyhankel_block_size` points that overlap by
    ``K - 1``; each block contributes ``step = nfft - K + 1`` samples of
    the linear product, so ``ceil((L + K - 1) / step)`` blocks cover it.
    The cost model counts, and the engine runs, exactly this geometry.
    """
    kernel_len = shape.poly_kernel_len
    nfft = polyhankel_block_size(shape)
    step = nfft - (kernel_len - 1)
    blocks = math.ceil((shape.poly_input_len + kernel_len - 1) / step)
    return nfft, step, blocks
