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
