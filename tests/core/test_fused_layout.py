"""The fused sum-strategy pipeline and its bins-major weight operand.

Every sum-strategy plan runs one pipeline: one batched rfft, a per-bin
row-vector contraction against the ``(g, bins, c_per, f_per)`` weight
operand, one batched irfft.  The merge strategy keeps its own row-major
``(f, bins)`` spectra.  There is no spectrum-layout option any more.
"""

import pickle

import numpy as np
import pytest

from repro.core.multichannel import (
    PolyHankelPlan,
    clear_plan_cache,
    conv2d_polyhankel,
    get_plan,
)
from repro.core.planning import PlanSpec
from repro.observe import tracing
from repro.observe.registry import counters, fft_call_totals
from repro.perfmodel.engine import predict_fft_counters
from repro.utils.shapes import ConvShape
from tests.conftest import assert_conv_close, naive_conv2d_reference

#: The bench suite's c16 preset shape (conv32_sum_numpy_c16).
C16_SHAPE = ConvShape((32, 32), (3, 3), n=4, c=16, f=16, padding=1)


def _problem(shape, seed=11):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((shape.n, shape.c, shape.ih, shape.iw))
    w = rng.standard_normal(
        (shape.f, shape.c // shape.groups, shape.kh, shape.kw))
    return x, w


def _measured_counters(plan, x, w):
    w_hat = plan.transform_weight(w)
    plan.execute(x, w_hat)                    # warm scratch
    counters.clear("fft.")
    with tracing():
        plan.execute(x, w_hat)
    totals = fft_call_totals()
    return {
        "fft_calls": sum(v["calls"] for v in totals.values()),
        "fft_rows": sum(v["rows"] for v in totals.values()),
        "by_kind": {k: v["calls"] for k, v in sorted(totals.items())},
    }


class TestLayoutSelection:
    def test_merge_strategy_is_always_planar(self):
        """The merge strategy's spectra stay row-major: one ``(bins,)``
        row per filter."""
        plan = get_plan(C16_SHAPE, strategy="merge", backend="numpy")
        x, w = _problem(C16_SHAPE)
        assert plan.transform_weight(w).shape == (C16_SHAPE.f, plan.bins)

    def test_unknown_layout_rejected(self):
        """``layout`` is no longer an engine option: every value of it is
        an unknown keyword."""
        with pytest.raises(TypeError, match="layout"):
            get_plan(C16_SHAPE, backend="numpy", layout="diagonal")
        x, w = _problem(C16_SHAPE)
        with pytest.raises(TypeError, match="layout"):
            conv2d_polyhankel(x, w, layout="interleaved")


class TestFusedParity:
    @pytest.mark.parametrize("c,f,groups", [
        (2, 2, 1),    # smallest contraction
        (3, 5, 1),    # both odd
        (1, 4, 1),    # C=1: one-channel contraction
        (4, 1, 1),    # F=1: one-filter output
        (6, 4, 2),    # grouped
        (5, 3, 1),    # odd channels and filters
    ])
    def test_matches_planar_and_reference(self, c, f, groups):
        """The sum pipeline against the naive reference and against the
        merge strategy, the engine's other (row-major spectra) pipeline."""
        rng = np.random.default_rng(c * 7 + f)
        x = rng.standard_normal((2, c, 12, 11))
        w = rng.standard_normal((f, c // groups, 3, 4))
        ref = naive_conv2d_reference(x, w, 1, (1, 1), (1, 1), groups)
        fused = conv2d_polyhankel(x, w, padding=1, groups=groups)
        merged = conv2d_polyhankel(x, w, padding=1, groups=groups,
                                   strategy="merge")
        assert_conv_close(fused, ref)
        np.testing.assert_allclose(fused, merged, atol=1e-10)

    def test_c16_preset_matches_naive(self):
        x, w = _problem(C16_SHAPE)
        ref = naive_conv2d_reference(x, w, 1, (1, 1), (1, 1), 1)
        got = conv2d_polyhankel(x, w, padding=1)
        assert_conv_close(got, ref)

    def test_strided_input(self):
        rng = np.random.default_rng(13)
        base = rng.standard_normal((2, 6, 24, 22))
        x = base[:, :, ::2, ::2]
        w = rng.standard_normal((4, 6, 3, 3))
        want = conv2d_polyhankel(np.ascontiguousarray(x), w)
        np.testing.assert_array_equal(conv2d_polyhankel(x, w), want)

    def test_workers_bit_identical(self):
        """Every stage is independent per image, so the threaded path
        (which stages each chunk unpadded, like the sequential one) stays
        bit-identical — the depthwise multiply included."""
        for groups in (1, 6):
            shape = ConvShape((16, 16), (3, 3), n=6, c=6, f=6, padding=1,
                              groups=groups)
            x, w = _problem(shape)
            # An uncached plan whose work floor is lifted, so workers=3
            # really splits the batch.
            plan = PolyHankelPlan(shape, backend="numpy")
            plan._split_min = 0
            w_hat = plan.transform_weight(w)
            want = plan.execute(x, w_hat)
            np.testing.assert_array_equal(
                plan.execute(x, w_hat, workers=3), want)

    def test_scratch_reuse_is_stable(self):
        """Back-to-back cached executes (scratch reuse on) must not leak
        state between calls."""
        x, w = _problem(C16_SHAPE)
        plan = get_plan(C16_SHAPE, backend="numpy")
        w_hat = plan.transform_weight(w)
        first = plan.execute(x, w_hat).copy()   # allocates scratch
        second = plan.execute(x, w_hat).copy()  # reuses it
        third = plan.execute(x, w_hat)
        np.testing.assert_array_equal(first, second)
        np.testing.assert_array_equal(second, third)


class TestFusedCounters:
    def test_c16_counters_match_planar(self):
        """The fused pipeline runs the plain real transforms a separate
        per-channel pipeline would: one rfft of ``n*c`` rows, one irfft
        of ``n*f`` rows."""
        x, w = _problem(C16_SHAPE)
        n, c, f = C16_SHAPE.n, C16_SHAPE.c, C16_SHAPE.f
        assert _measured_counters(get_plan(C16_SHAPE, backend="numpy"),
                                  x, w) == {
            "fft_calls": 2, "fft_rows": n * c + n * f,
            "by_kind": {"irfft": 1, "rfft": 1}}

    # The third id token names the spectrum layout these shapes ran under
    # before the engine had one pipeline; it now picks the batch size.
    @pytest.mark.parametrize("c,f,layout", [
        (16, 16, "interleaved"),
        (16, 16, "planar"),
        (5, 3, "interleaved"),
        (1, 4, "interleaved"),
    ])
    def test_predictor_matches_measurement(self, c, f, layout):
        n = {"planar": 1, "interleaved": 2}[layout]
        shape = ConvShape((12, 11), (3, 3), n=n, c=c, f=f, padding=1)
        x, w = _problem(shape)
        plan = get_plan(shape, backend="numpy")
        assert _measured_counters(plan, x, w) \
            == predict_fft_counters(shape, "sum")


class TestPlanIdentity:
    def test_plan_pickles_as_spec_with_layout(self):
        """A plan pickles as its spec and re-resolves to the cached plan,
        whose weight operand has the bins-major layout."""
        plan = get_plan(C16_SHAPE, backend="numpy")
        clone = pickle.loads(pickle.dumps(plan))
        assert clone is get_plan(C16_SHAPE, backend="numpy")
        _, w = _problem(C16_SHAPE)
        assert clone.transform_weight(w).shape == (1, plan.bins, 16, 16)

    def test_spec_round_trip(self):
        spec = PlanSpec(C16_SHAPE, "smooth7", "sum", "numpy")
        assert spec.resolve() is get_plan(C16_SHAPE, "smooth7",
                                          backend="numpy")
        assert spec.resolve().spec == spec

    def test_direct_plan_resolves_auto(self):
        clear_plan_cache()
        plan = PolyHankelPlan(C16_SHAPE, "auto", backend="numpy")
        assert plan.fft_policy == "smooth7"
        assert plan.bins == plan.nfft // 2 + 1
