"""Counter registry: tag keys, cache events, FFT invocation totals."""

import pytest

from repro.core import multichannel as mc
from repro.observe import clear_trace, tracing
from repro.observe.registry import (
    CounterRegistry,
    cache_hits_misses,
    cache_stats,
    counters,
    fft_call_totals,
    format_cache_stats,
    record_cache_event,
    reset_cache_stats,
)
from repro.utils.random import random_problem
from repro.utils.shapes import ConvShape


class TestCounterRegistry:
    def test_add_and_get_exact(self):
        reg = CounterRegistry()
        reg.add("fft.calls", 1, kind="rfft", n=128)
        reg.add("fft.calls", 1, kind="rfft", n=128)
        reg.add("fft.calls", 1, kind="rfft", n=256)
        assert reg.get("fft.calls", kind="rfft", n=128) == 2
        assert reg.get("fft.calls", kind="rfft", n=512) == 0

    def test_total_matches_tag_subset(self):
        reg = CounterRegistry()
        reg.add("fft.calls", 1, kind="rfft", n=128)
        reg.add("fft.calls", 1, kind="rfft", n=256)
        reg.add("fft.calls", 1, kind="irfft", n=128)
        assert reg.total("fft.calls") == 3
        assert reg.total("fft.calls", kind="rfft") == 2
        assert reg.total("fft.calls", n=128) == 2

    def test_tag_order_is_irrelevant(self):
        reg = CounterRegistry()
        reg.add("m", 1, a=1, b=2)
        reg.add("m", 1, b=2, a=1)
        assert reg.get("m", a=1, b=2) == 2

    def test_snapshot_prefix_and_clear_prefix(self):
        reg = CounterRegistry()
        reg.add("fft.calls", 1, kind="rfft")
        reg.add("bytes.moved", 64.0, stage="pad")
        assert [r.name for r in reg.snapshot("fft.")] == ["fft.calls"]
        reg.clear("fft.")
        assert reg.snapshot("fft.") == []
        assert reg.get("bytes.moved", stage="pad") == 64.0


class TestCacheEvents:
    def test_record_and_read_back(self):
        reset_cache_stats("unit_test")
        record_cache_event("unit_test", hit=True)
        record_cache_event("unit_test", hit=True)
        record_cache_event("unit_test", hit=False)
        assert cache_hits_misses("unit_test") == (2, 1)
        reset_cache_stats("unit_test")
        assert cache_hits_misses("unit_test") == (0, 0)

    def test_cache_stats_lists_every_surface(self):
        rows = {row["cache"]: row for row in cache_stats()}
        assert set(rows) == {"conv_plan", "spectrum", "fft_plan",
                             "layer_spectrum"}
        for row in rows.values():
            total = row["hits"] + row["misses"]
            if total:
                assert row["hit_rate"] == pytest.approx(row["hits"] / total)
            else:
                assert row["hit_rate"] is None

    def test_plan_cache_feeds_the_registry(self):
        mc.clear_plan_cache()
        shape = ConvShape((10, 10), (3, 3), n=1, c=1, f=1)
        mc.get_plan(shape)
        mc.get_plan(shape)
        hits, misses = cache_hits_misses("conv_plan")
        assert misses >= 1 and hits >= 1

    def test_format_cache_stats_is_one_table(self):
        text = format_cache_stats()
        for label in ("conv plans", "weight spectra", "fft plans",
                      "layer spectra"):
            assert label in text


class TestFftCallTotals:
    """Counter totals must equal the analytically known invocation count."""

    @pytest.fixture
    def plan_and_data(self):
        shape = ConvShape((16, 16), (3, 3), n=2, c=3, f=4, padding=1)
        x, w = random_problem(shape)
        plan = mc.get_plan(shape, strategy="sum", backend="numpy")
        w_hat = plan.transform_weight(w)
        plan.execute(x, w_hat)  # warm every lazy path
        return plan, x, w, w_hat

    def test_steady_state_call_counts(self, plan_and_data):
        plan, x, w, w_hat = plan_and_data
        counters.clear("fft.")
        with tracing():
            plan.execute(x, w_hat)
        clear_trace()
        totals = fft_call_totals()
        # Sum strategy: one batched rfft over the n*c input rows and one
        # batched irfft over the n*f output rows, both at the plan's nfft.
        assert totals["rfft"]["calls"] == 1
        assert totals["irfft"]["calls"] == 1
        assert totals["rfft"]["rows"] == 2 * 3
        assert totals["irfft"]["rows"] == 2 * 4
        assert totals["rfft"]["by_n"] == {plan.nfft: 1}
        assert totals["irfft"]["by_n"] == {plan.nfft: 1}

    def test_weight_transform_counts(self, plan_and_data):
        plan, x, w, w_hat = plan_and_data
        counters.clear("fft.")
        with tracing():
            plan.transform_weight(w)
        clear_trace()
        totals = fft_call_totals()
        # One batched rfft over the c*f kernel rows; no inverse transform.
        assert totals["rfft"]["calls"] == 1
        assert totals["rfft"]["rows"] == 3 * 4
        assert "irfft" not in totals

    def test_counters_off_without_tracing(self, plan_and_data):
        plan, x, w, w_hat = plan_and_data
        counters.clear("fft.")
        plan.execute(x, w_hat)
        assert fft_call_totals() == {}

    def test_bytes_moved_recorded_under_tracing(self, plan_and_data):
        plan, x, w, w_hat = plan_and_data
        counters.clear("bytes.")
        with tracing():
            plan.execute(x, w_hat)
        clear_trace()
        assert counters.total("bytes.moved") > 0
