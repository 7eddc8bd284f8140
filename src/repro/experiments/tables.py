"""Table 2 / Table 3 reproduction: symbolic complexity vs counted cost.

The paper's complexity tables are closed-form expressions; this module
evaluates them alongside the concrete counter models over a shape sweep and
reports how tightly each model tracks its expression (they should agree up
to the constant factors the expressions drop).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from repro.baselines.registry import ConvAlgorithm as A
from repro.perfmodel.counters import count
from repro.utils.shapes import ConvShape


def _log(v: float) -> float:
    return math.log2(max(v, 2.0))


# -- the paper's Table 2 expressions (per image, per channel/filter where
# the table leaves those implicit) ------------------------------------------


def time_im2col_mm(s: ConvShape) -> float:
    """Kh x Kw x Oh x Ow."""
    return s.kernel_elems * s.output_elems


def time_traditional_fft(s: ConvShape) -> float:
    """(Iw+Kw)(Ih+Kh)(log(Ih+Kh)+log(Iw+Kw)) * 2 + elementwise + IFFT."""
    ph, pw = s.padded_extents
    plane = (pw + s.kw) * (ph + s.kh)
    logs = _log(ph + s.kh) + _log(pw + s.kw)
    return plane * logs * 2 + plane + plane * logs


def time_finegrain_fft(s: ConvShape) -> float:
    """Ih*2Iw log(2Iw) + Kh*2Iw log(2Iw) + Oh*Kh*Iw + Oh*2Iw log(2Iw)."""
    ph, pw = s.padded_extents
    row = 2 * pw * _log(2 * pw)
    return ph * row + s.kh * row + s.oh * s.kh * pw + s.oh * row


def time_polyhankel(s: ConvShape) -> float:
    """3 * (Ih*Iw + Kh*Iw) log(Ih*Iw + Kh*Iw) + (Ih*Iw + Kh*Iw)."""
    ph, pw = s.padded_extents
    padded = ph * pw + s.kh * pw
    return 3 * padded * _log(padded) + padded


# -- Table 3 expressions ------------------------------------------------------


def space_im2col_mm(s: ConvShape) -> float:
    return s.kernel_elems * s.output_elems


def space_traditional_fft(s: ConvShape) -> float:
    ph, pw = s.padded_extents
    return 3 * (ph + s.kh) * (pw + s.kw)


def space_finegrain_fft(s: ConvShape) -> float:
    ph, pw = s.padded_extents
    return 2 * pw * (ph + s.kh + s.oh)


def space_polyhankel(s: ConvShape) -> float:
    ph, pw = s.padded_extents
    return 3 * (ph * pw + s.kh * pw)


@dataclass(frozen=True)
class ComplexityRow:
    """One method's symbolic expression and concrete counter accessor."""

    method: A
    paper_expression: str
    symbolic: Callable[[ConvShape], float]
    measured: Callable[[ConvShape], float]


TIME_ROWS: tuple[ComplexityRow, ...] = (
    ComplexityRow(A.GEMM, "Kh*Kw*Oh*Ow", time_im2col_mm,
                  lambda s: count(A.GEMM, s).flops),
    ComplexityRow(A.FFT, "(Iw+Kw)(Ih+Kh)(log(Ih+Kh)+log(Iw+Kw))*3 + ew",
                  time_traditional_fft,
                  lambda s: count(A.FFT, s).flops),
    ComplexityRow(A.FINEGRAIN_FFT,
                  "Ih*2Iw*log(2Iw) + Kh*2Iw*log(2Iw) + Oh*Kh*Iw + IFFT",
                  time_finegrain_fft,
                  lambda s: count(A.FINEGRAIN_FFT, s).flops),
    ComplexityRow(A.POLYHANKEL,
                  "3*(Ih*Iw+Kh*Iw)*log(Ih*Iw+Kh*Iw) + (Ih*Iw+Kh*Iw)",
                  time_polyhankel,
                  lambda s: count(A.POLYHANKEL, s).flops),
)

SPACE_ROWS: tuple[ComplexityRow, ...] = (
    ComplexityRow(A.GEMM, "Kh*Kw*Oh*Ow", space_im2col_mm,
                  lambda s: count(A.GEMM, s).workspace_bytes / 4),
    ComplexityRow(A.FFT, "3*(Ih+Kh)(Iw+Kw)", space_traditional_fft,
                  lambda s: count(A.FFT, s).workspace_bytes / 8),
    ComplexityRow(A.FINEGRAIN_FFT, "2Iw*(Ih + Kh + Oh)",
                  space_finegrain_fft,
                  lambda s: count(A.FINEGRAIN_FFT, s).workspace_bytes / 8),
    ComplexityRow(A.POLYHANKEL, "3*(Ih*Iw + Kh*Iw)", space_polyhankel,
                  lambda s: count(A.POLYHANKEL, s).workspace_bytes / 8),
)


def scaling_ratio(row: ComplexityRow, small: ConvShape,
                  large: ConvShape) -> tuple[float, float]:
    """(symbolic growth, measured growth) between two shapes.

    If the counter model implements the table's expression, the two growth
    factors agree up to the constants the asymptotic expression drops.
    """
    sym = row.symbolic(large) / row.symbolic(small)
    meas = row.measured(large) / row.measured(small)
    return sym, meas


def complexity_report(rows: tuple[ComplexityRow, ...],
                      shapes: list[ConvShape]) -> str:
    """Text table of symbolic-vs-measured growth along a shape sweep."""
    base = shapes[0]
    lines = ["method              expression".ljust(72) + "growth sym/meas"]
    for row in rows:
        growth = [scaling_ratio(row, base, s) for s in shapes[1:]]
        ratios = "  ".join(f"{sym:.1f}/{meas:.1f}" for sym, meas in growth)
        lines.append(
            f"{row.method.value:<18}  {row.paper_expression:<50}  {ratios}"
        )
    return "\n".join(lines)
