"""Counter contract of the benched N-dimensional presets (tier-1).

The slow ``--smoke`` bench already asserts measured-vs-predicted counters
for every ND preset; this module keeps the load-bearing piece of that
gate in tier-1 with tiny shapes: the 1D op's steady-state FFT rows
must match the 2D counter expression of its ``1 x L`` lift, and the 3D
plan's call structure must match the same closed-form predictor.
"""

import numpy as np
import pytest

from repro.baselines.ndops import lift_1d_shape
from repro.core import multichannel as mc
from repro.core.ndim import conv1d_polyhankel, conv3d_polyhankel
from repro.observe import tracing
from repro.observe.registry import counters, fft_call_totals
from repro.perfmodel.engine import predict_fft_counters
from repro.utils.shapes import ConvShape


def _trace_counters(call):
    call()  # warm every cache: plan, spectrum, scratch
    counters.clear("fft.")
    with tracing():
        call()
    totals = fft_call_totals()
    return {
        "fft_calls": sum(v["calls"] for v in totals.values()),
        "fft_rows": sum(v["rows"] for v in totals.values()),
        "by_kind": {k: v["calls"] for k, v in sorted(totals.items())},
    }


# The id tokens name the spectrum layouts the engine once offered; there
# is one pipeline now, and the token picks the batch size instead.
@pytest.mark.parametrize("layout", ["planar", "interleaved"])
def test_conv1d_rows_match_packed_expression(layout):
    """The 1D op rides the 2D engine's caches: steady state re-transforms
    only the activations, and the row count follows the counter
    expression of the lifted shape."""
    rng = np.random.default_rng(3)
    x = rng.standard_normal(({"planar": 1, "interleaved": 4}[layout], 6,
                             64))
    w = rng.standard_normal((8, 6, 5))
    params = dict(padding=2, stride=1, dilation=1, groups=1)

    mc.clear_plan_cache()
    mc.clear_spectrum_cache()
    got = _trace_counters(
        lambda: conv1d_polyhankel(x, w, **params))

    lifted = lift_1d_shape(ConvShape.from_tensors(x.shape, w.shape,
                                                  **params))
    assert got == predict_fft_counters(lifted, "sum")


def test_conv1d_strided_grouped_rows_match():
    rng = np.random.default_rng(5)
    x = rng.standard_normal((2, 4, 47))
    w = rng.standard_normal((4, 2, 3))
    params = dict(padding=(2, 0), stride=2, dilation=2, groups=2)

    mc.clear_plan_cache()
    mc.clear_spectrum_cache()
    got = _trace_counters(lambda: conv1d_polyhankel(x, w, **params))

    lifted = lift_1d_shape(ConvShape.from_tensors(x.shape, w.shape,
                                                  **params))
    assert got == predict_fft_counters(lifted, "sum")


def test_conv3d_call_structure_matches_nd_predictor():
    """The rank-3 problem runs the one plan, so a warm call hits the
    spectrum cache and re-transforms only the activations — the call
    structure the plan's predictor encodes."""
    rng = np.random.default_rng(7)
    x = rng.standard_normal((2, 3, 6, 8, 7))
    w = rng.standard_normal((4, 3, 2, 3, 2))
    params = dict(padding=1, stride=1, dilation=1, groups=1)

    mc.clear_plan_cache()
    mc.clear_spectrum_cache()
    got = _trace_counters(lambda: conv3d_polyhankel(x, w, **params))

    shape = ConvShape.from_tensors(x.shape, w.shape, **params)
    assert got == predict_fft_counters(shape, "sum")
