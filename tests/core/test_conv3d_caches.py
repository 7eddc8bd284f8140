"""conv3d runs the one PolyHankel plan, so it shares its caches.

Plans for rank-3 problems live in the same bounded, counted plan cache
as rank-2 ones, and a warm call re-transforms only the activations: the
kernel spectrum comes from the spectrum cache, and the FFT size follows
the ``"auto"`` policy like every other rank.
"""

import numpy as np

from repro.core.multichannel import (
    clear_plan_cache,
    clear_spectrum_cache,
    plan_cache_info,
    set_plan_cache_limit,
)
from repro.nn import functional as F
from repro.observe import tracing
from repro.observe.registry import counters, fft_call_totals
from repro.perfmodel.engine import predict_fft_counters
from repro.utils.shapes import ConvShape


def test_conv3d_plans_are_counted_and_bounded():
    rng = np.random.default_rng(31)
    w = rng.standard_normal((2, 2, 2, 2, 2))
    limit = plan_cache_info().maxsize
    clear_plan_cache()
    try:
        set_plan_cache_limit(2)
        for depth in range(3, 11):
            F.conv3d(rng.standard_normal((1, 2, depth, 4, 3)), w)
        info = plan_cache_info()
        assert info.misses >= 8
        assert info.size <= 2
    finally:
        set_plan_cache_limit(limit)
        clear_plan_cache()


def test_warm_conv3d_follows_the_plan_counter_model():
    """The ``video_3d_tiny`` bench preset: a warm call runs exactly the
    transforms the rank-agnostic predictor names for its plan."""
    rng = np.random.default_rng(7)
    x = rng.standard_normal((2, 4, 8, 12, 12))
    w = rng.standard_normal((8, 4, 3, 3, 3))
    clear_plan_cache()
    clear_spectrum_cache()
    F.conv3d(x, w, padding=1)
    counters.clear("fft.")
    with tracing():
        F.conv3d(x, w, padding=1)
    totals = fft_call_totals()
    got = {
        "fft_calls": sum(v["calls"] for v in totals.values()),
        "fft_rows": sum(v["rows"] for v in totals.values()),
        "by_kind": {k: v["calls"] for k, v in sorted(totals.items())},
    }
    shape = ConvShape.from_tensors(x.shape, w.shape, padding=1)
    assert got == predict_fft_counters(shape, "sum")
