"""Exact counter predictions and a CPU roofline for the *running* engine.

:mod:`repro.perfmodel.counters` models the paper's GPU implementation
(overlap-save blocks, launch-level traffic).  This module models the
engine in this repo exactly: for one cached steady-state
``PolyHankelPlan.execute`` call it predicts the FFT invocation counters
the observe registry will measure (``fft_calls`` / ``fft_rows`` /
``by_kind``) — for a ``ConvShape`` of any rank, since
the plan is rank-generic.  ``repro bench --check`` gates the measured
counters against a recorded baseline; the predictor is the closed-form
statement of what those numbers *must* be, so tests can pin the gate's
expectations instead of copying magic constants.

The sum strategy runs 1 ``rfft`` of ``n*c`` rows and 1 ``irfft`` of
``n*f`` rows.  The merge strategy runs 1 ``rfft`` of ``n*g`` merged rows
and 1 ``irfft`` of ``n*f`` rows.  The overlap-save strategy runs the sum
strategy's two calls over ``B`` blocks per row: ``n*c*B`` and ``n*f*B``
rows at the block size.

The roofline side reuses the GPU-model FLOP/byte stages against the CPU
proxy peaks in :mod:`repro.perfmodel.device`: ``roofline_pct`` is the
fraction of the memory/compute lower bound a measured steady-state call
achieves.
"""

from __future__ import annotations

from repro.core.planning import overlap_save_blocks
from repro.perfmodel.counters import count_polyhankel
from repro.perfmodel.device import cpu_roofline_seconds
from repro.utils.shapes import ConvShape


def predict_fft_counters(shape: ConvShape,
                         strategy: str = "sum") -> dict:
    """Counters of one cached steady-state engine call.

    Returns the same structure ``repro bench`` records per case:
    ``{"fft_calls": int, "fft_rows": int, "by_kind": {kind: calls}}``.
    ``"overlap_save"`` transforms every image and output row once per
    block (:func:`repro.core.planning.overlap_save_blocks`).
    """
    rows_in = shape.n * (shape.groups if strategy == "merge" else shape.c)
    blocks = overlap_save_blocks(shape)[2] \
        if strategy == "overlap_save" else 1
    return {
        "fft_calls": 2,
        "fft_rows": (rows_in + shape.n * shape.f) * blocks,
        "by_kind": {"irfft": 1, "rfft": 1},
    }


def predicted_call_ms(shape: ConvShape) -> float:
    """CPU-roofline lower bound (ms) for one cached steady-state call.

    Sums the per-stage ``max(compute wall, memory wall)`` times of the
    PolyHankel cost model, skipping the weight transform (``kernel_ffts``)
    because the spectrum cache amortizes it away from the steady state —
    the same normalization ``repro profile`` applies.
    """
    report = count_polyhankel(shape)
    return 1e3 * sum(
        cpu_roofline_seconds(s.flops, s.bytes_moved)
        for s in report.stages if s.name != "kernel_ffts"
    )


def roofline_pct(shape: ConvShape,
                 measured_ms: float) -> float | None:
    """Percent of the CPU roofline bound one measured call achieves."""
    if not measured_ms or measured_ms <= 0:
        return None
    return 100.0 * predicted_call_ms(shape) / measured_ms
