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

from dataclasses import dataclass
from typing import Literal

from repro import fft as _fft
from repro.utils.validation import require

FftPolicy = Literal["pow2", "smooth7", "even", "exact", "auto"]

POLICIES: tuple[str, ...] = ("pow2", "smooth7", "even", "exact")

SpectrumLayout = Literal["planar", "interleaved", "auto"]

LAYOUTS: tuple[str, ...] = ("planar", "interleaved")

#: Pointwise-work floor (``n * g * c_per * f_per * bins`` complex MACs)
#: above which the interleaved layout's one batched bins-major matmul
#: beats the planar einsum by enough to also pay for its transpose passes.
#: Calibrated on the bench suite: the c16 preset (~600k) flips, every
#: small case (and the mid-size strided/dilated presets, under ~400k)
#: stays planar where the einsum's lower fixed cost wins.
INTERLEAVED_MIN_WORK = 500_000


@dataclass(frozen=True)
class PlanSpec:
    """Pickle-safe identity of one execution plan.

    A :class:`~repro.core.multichannel.PolyHankelPlan` owns locks and
    scratch buffers, so it cannot (and should not) cross a process
    boundary by value.  Its *spec* — shape, resolved FFT policy, channel
    strategy, backend name — is a plain frozen value that pickles in a
    few bytes and re-resolves against the receiving process's warm plan
    cache, which is exactly what the serving layer's process workers
    need: plans travel as cache keys, never as payloads.
    """

    shape: object  # ConvShape / ConvShapeNd (untyped to stay import-light)
    fft_policy: FftPolicy
    strategy: str
    backend: str | None
    layout: SpectrumLayout = "auto"

    def resolve(self):
        """The (cached) live plan for this spec in *this* process."""
        from repro.core.multichannel import get_plan

        return get_plan(self.shape, self.fft_policy, self.strategy,
                        self.backend, layout=self.layout)


def resolve_fft_policy(policy: FftPolicy,
                       backend: str | None = None) -> FftPolicy:
    """Resolve ``"auto"`` to the concrete policy best for *backend*.

    Concrete policies pass through unchanged.  *backend* may be a backend
    name or ``None`` for the active backend.
    """
    if policy != "auto":
        return policy
    return "smooth7" if _fft.get_backend(backend).name == "numpy" else "pow2"


def select_spectrum_layout(shape, strategy: str = "sum",
                           fft_policy: FftPolicy = "pow2",
                           layout: SpectrumLayout = "auto") -> str:
    """Resolve ``"auto"`` to the spectrum layout best for *shape*.

    Two layouts exist for the sum strategy's spectrum block:

    - ``"planar"`` — row-major ``(n, c, bins)``: each transform row is
      contiguous, the pointwise stage is an einsum over the channel axis.
      Lowest fixed cost; wins on small blocks.
    - ``"interleaved"`` — bins-major ``(g, bins, rows, cols)``: every
      frequency bin's cross-channel slice is contiguous, so the fused
      pointwise-multiply + channel accumulate is **one** batched complex
      matmul (BLAS-shaped), with one transpose copy on either side of
      it.  Wins once the pointwise work dwarfs those copies.

    The rule: interleaved iff the strategy sums channels in frequency
    space, the per-group contraction is non-degenerate (at least two
    channels *and* two filters per group — depthwise stays planar), and
    the pointwise work ``n * g * c_per * f_per * bins`` clears
    :data:`INTERLEAVED_MIN_WORK`.  Concrete layouts pass through (after
    validation), so tests and experiments can force either path.
    """
    if layout != "auto":
        if layout not in LAYOUTS:
            raise ValueError(
                f"unknown spectrum layout {layout!r}; "
                f"one of {LAYOUTS + ('auto',)}"
            )
        return layout
    if strategy != "sum":
        return "planar"
    c_per, f_per = shape.group_channels, shape.group_filters
    if c_per < 2 or f_per < 2:
        return "planar"
    from repro.core.construction import polynomial_lengths

    _, _, transform_len = polynomial_lengths(shape)
    nfft = plan_fft_size(transform_len, resolve_fft_policy(fft_policy))
    bins = nfft // 2 + 1
    work = shape.n * shape.groups * c_per * f_per * bins
    return "interleaved" if work >= INTERLEAVED_MIN_WORK else "planar"


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
