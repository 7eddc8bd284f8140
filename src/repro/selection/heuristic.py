"""Per-call algorithm selection (the paper's stated future work).

Sec. 4.2 closes with: "Ideally, heuristics should be developed to choose
the best convolution method for each API invocation."  This module builds
that heuristic two ways:

- :func:`select_algorithm` — *model-driven*: run the roofline simulator for
  every capable algorithm and take the argmin.  This is the oracle the
  cost model supports.
- :func:`select_algorithm_rules` — *closed-form rules* distilled from the
  paper's findings (GEMM for small inputs, PolyHankel for large inputs with
  small-to-medium kernels, FFT for very large kernels), for callers that
  want an O(1) decision with no model in the loop.

Both return a :class:`SelectionResult` so callers can see the ranking.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.baselines.registry import FALLBACK_ORDER, ConvAlgorithm, supports
from repro.perfmodel.counters import modeled_algorithms
from repro.perfmodel.device import GpuDevice, get_device
from repro.perfmodel.timing import simulate_ms
from repro.utils.shapes import ConvShape

#: Algorithms the selector will consider — every modeled algorithm,
#: including both PolyHankel variants.  They share one cost model, so
#: their modeled times tie exactly; the tie resolves through
#: :data:`TIE_BREAK` below instead of silently dropping one of the pair
#: from the ranking (which hid POLYHANKEL_OS from every consumer of the
#: full ranking).
CANDIDATES: tuple[ConvAlgorithm, ...] = tuple(modeled_algorithms())

#: Deterministic preference order for modeled-cost ties: the guard
#: chain's descent first, then the remaining algorithms in registry
#: declaration order — so POLYHANKEL ranks before its overlap-save
#: variant, the same engine run through blocks.  Sorting on
#: ``(modeled_ms, tie-break index)`` makes the full ranking a total
#: order: equal-cost pairs always rank the same way, on every host.
TIE_BREAK: tuple[ConvAlgorithm, ...] = tuple(FALLBACK_ORDER) + tuple(
    a for a in ConvAlgorithm if a not in FALLBACK_ORDER
)


def _tie_break_index(algorithm: ConvAlgorithm) -> int:
    return TIE_BREAK.index(algorithm)


@dataclass(frozen=True)
class SelectionResult:
    """Outcome of a selection: the winner plus the full ranking."""

    shape: ConvShape
    device: str
    ranking: tuple[tuple[ConvAlgorithm, float], ...]

    @property
    def algorithm(self) -> ConvAlgorithm:
        return self.ranking[0][0]

    @property
    def predicted_ms(self) -> float:
        return self.ranking[0][1]


def select_algorithm(shape: ConvShape,
                     device: GpuDevice | str = "3090ti",
                     candidates: tuple[ConvAlgorithm, ...] = CANDIDATES,
                     workspace_limit_bytes: float | None = None
                     ) -> SelectionResult:
    """Pick the fastest capable algorithm per the roofline model.

    *workspace_limit_bytes* mirrors cuDNN's ``memoryLimitInBytes``: an
    algorithm whose modeled workspace exceeds the limit is excluded (this
    is how memory-constrained deployments end up on implicit GEMM even
    where the im2col path would be faster).
    """
    from repro.perfmodel.counters import count

    device = get_device(device)
    scored = []
    for algo in candidates:
        if not supports(algo, shape):
            continue
        if workspace_limit_bytes is not None:
            if count(algo, shape).workspace_bytes > workspace_limit_bytes:
                continue
        scored.append((algo, simulate_ms(algo, shape, device)))
    if not scored:
        raise ValueError(
            f"no capable algorithm for shape {shape}"
            + (f" within workspace limit {workspace_limit_bytes:.0f} bytes"
               if workspace_limit_bytes is not None else "")
        )
    scored.sort(key=lambda pair: (pair[1], _tie_break_index(pair[0])))
    return SelectionResult(shape, device.name, tuple(scored))


#: Rule thresholds distilled from the paper's Figs. 3-4 (and re-derivable
#: from the model via tests/selection/test_heuristic.py).
SMALL_INPUT_THRESHOLD = 32       # below: GEMM wins (Fig. 3 left region)
LARGE_KERNEL_THRESHOLD = 15      # above: FFT wins (Fig. 4 right region)
#: Per-filter channel count below which the frequency-domain methods lose
#: their arithmetic advantage (depthwise/grouped layers do almost no
#: channel reduction, so the gather-dominated GEMM path wins).
THIN_GROUP_THRESHOLD = 2


def select_algorithm_rules(shape: ConvShape) -> ConvAlgorithm:
    """O(1) rule-based choice following the paper's empirical regions.

    The rules read the *effective* (dilated) kernel extents — dilation
    moves a layer rightward in Fig. 4 exactly like a larger kernel — and
    route thin grouped layers (depthwise, ``c/groups`` tiny) to implicit
    GEMM, where the per-group FFT work cannot amortize.
    """
    small_input = max(shape.ih, shape.iw) < SMALL_INPUT_THRESHOLD
    large_kernel = max(shape.eff_kernel) >= LARGE_KERNEL_THRESHOLD
    thin_groups = (shape.groups > 1
                   and shape.group_channels <= THIN_GROUP_THRESHOLD)
    if small_input or thin_groups:
        return ConvAlgorithm.IMPLICIT_PRECOMP_GEMM
    if large_kernel:
        return ConvAlgorithm.FFT
    return ConvAlgorithm.POLYHANKEL
