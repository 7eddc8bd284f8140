"""Exact counter predictions and a CPU roofline for the *running* engine.

:mod:`repro.perfmodel.counters` models the paper's GPU implementation
(overlap-save blocks, launch-level traffic).  This module models the
engine in this repo exactly: for one cached steady-state
``PolyHankelPlan.execute`` call it predicts the FFT invocation counters
the observe registry will measure (``fft_calls`` / ``fft_rows`` /
``by_kind``), per spectrum layout — for a ``ConvShape`` and a
``ConvShapeNd`` alike, since the plan is rank-generic.  ``repro bench
--check`` gates the measured counters against a recorded baseline; the
predictor is the closed-form statement of what those numbers *must* be,
so tests can pin the gate's expectations instead of copying magic
constants:

=============  ======================================================
layout         forward / inverse invocations (sum strategy)
=============  ======================================================
planar         1 ``rfft`` of ``n*c`` rows; 1 ``irfft`` of ``n*f`` rows
interleaved    1 ``fft`` of ``n*g*(c_per//2)`` packed rows (+ 1
               ``rfft`` of ``n*g`` rows when ``c_per`` is odd); 1
               ``ifft`` of ``n*g*(f_per//2)`` packed rows (+ 1
               ``irfft`` of ``n*g`` rows when ``f_per`` is odd)
=============  ======================================================

The merge strategy always runs planar: 1 ``rfft`` of ``n*g`` merged
rows and 1 ``irfft`` of ``n*f`` rows.

The roofline side reuses the GPU-model FLOP/byte stages (packed variant
for the interleaved layout) against the CPU proxy peaks in
:mod:`repro.perfmodel.device`: ``roofline_pct`` is the fraction of the
memory/compute lower bound a measured steady-state call achieves.
"""

from __future__ import annotations

from repro.perfmodel.counters import count_polyhankel, packed_fft_rows
from repro.perfmodel.device import cpu_roofline_seconds
from repro.utils.shapes import ConvShape, ConvShapeNd


def predict_fft_counters(shape: ConvShape | ConvShapeNd,
                         strategy: str = "sum",
                         layout: str = "planar") -> dict:
    """Counters of one cached steady-state engine call.

    Returns the same structure ``repro bench`` records per case:
    ``{"fft_calls": int, "fft_rows": int, "by_kind": {kind: calls}}``.
    *layout* must be concrete (``"planar"`` or ``"interleaved"``) — pass
    the plan's resolved layout, or use
    :func:`repro.core.planning.select_spectrum_layout` first.
    """
    n, g = shape.n, shape.groups
    calls: dict[str, tuple[int, int]] = {}  # kind -> (calls, rows)

    def add(kind: str, rows: int) -> None:
        c, r = calls.get(kind, (0, 0))
        calls[kind] = (c + 1, r + rows)

    if strategy == "merge":
        add("rfft", n * g)
        add("irfft", n * shape.f)
    elif layout == "interleaved":
        c_pairs, c_odd = packed_fft_rows(shape.group_channels)
        f_pairs, f_odd = packed_fft_rows(shape.group_filters)
        if c_pairs:
            add("fft", n * g * c_pairs)
        if c_odd:
            add("rfft", n * g)
        if f_pairs:
            add("ifft", n * g * f_pairs)
        if f_odd:
            add("irfft", n * g)
    else:
        add("rfft", n * shape.c)
        add("irfft", n * shape.f)

    return {
        "fft_calls": sum(c for c, _ in calls.values()),
        "fft_rows": sum(r for _, r in calls.values()),
        "by_kind": {kind: c for kind, (c, _) in sorted(calls.items())},
    }


def predicted_call_ms(shape: ConvShape | ConvShapeNd,
                      layout: str = "planar") -> float:
    """CPU-roofline lower bound (ms) for one cached steady-state call.

    Sums the per-stage ``max(compute wall, memory wall)`` times of the
    PolyHankel cost model, skipping the weight transform (``kernel_ffts``)
    because the spectrum cache amortizes it away from the steady state —
    the same normalization ``repro profile`` applies.
    """
    report = count_polyhankel(shape, packed=(layout == "interleaved"))
    return 1e3 * sum(
        cpu_roofline_seconds(s.flops, s.bytes_moved)
        for s in report.stages if s.name != "kernel_ffts"
    )


def roofline_pct(shape: ConvShape | ConvShapeNd, measured_ms: float,
                 layout: str = "planar") -> float | None:
    """Percent of the CPU roofline bound one measured call achieves."""
    if not measured_ms or measured_ms <= 0:
        return None
    return 100.0 * predicted_call_ms(shape, layout) / measured_ms
