"""Tests for repro.guard.chain: the supervised fallback chain end to end."""

import numpy as np
import pytest

from repro.baselines.naive import convnd_naive
from repro.baselines.registry import ConvAlgorithm, convolve, fallback_chain
from repro.core.multichannel import PolyHankelPlan
from repro.guard import faults
from repro.guard.chain import (
    GuardExhaustedError, breaker, guarded_conv2d, reset_guard,
)
from repro.guard.state import GuardConfig, guarded
from repro.nn.layers import Conv2d
from repro.observe.registry import counters
from repro.utils.random import random_problem
from repro.utils.shapes import ConvShape
from tests.conftest import assert_conv_close


@pytest.fixture(autouse=True)
def _clean_guard():
    from repro.core import multichannel as mc
    reset_guard()
    yield
    reset_guard()
    # The corruption injector doctors cached spectra in place; drop them so
    # a doctored entry cannot leak into unrelated tests.
    mc.clear_spectrum_cache()


@pytest.fixture
def problem():
    shape = ConvShape((12, 12), (3, 3), n=2, c=3, f=4, padding=1)
    x, w = random_problem(shape, seed=0)
    ref = convnd_naive(x, w, padding=1)
    return x, w, ref


class TestFallbackChain:
    def _shape(self):
        return ConvShape((12, 12), (3, 3), n=1, c=1, f=1, padding=1)

    def test_default_order_ends_in_naive(self):
        chain = fallback_chain(self._shape())
        assert chain[-1] is ConvAlgorithm.NAIVE
        assert chain[0] is ConvAlgorithm.POLYHANKEL

    def test_primary_moves_to_front_without_duplicates(self):
        chain = fallback_chain(self._shape(), primary=ConvAlgorithm.GEMM)
        assert chain[0] is ConvAlgorithm.GEMM
        assert chain.count(ConvAlgorithm.GEMM) == 1

    def test_accepts_string_names(self):
        chain = fallback_chain(self._shape(), primary="naive",
                               order=("naive", "gemm"))
        assert chain == [ConvAlgorithm.NAIVE, ConvAlgorithm.GEMM]

    def test_explicit_order_restricts_chain(self):
        chain = fallback_chain(self._shape(), order=("gemm", "naive"))
        assert chain == [ConvAlgorithm.GEMM, ConvAlgorithm.NAIVE]


class TestHealthyPath:
    def test_matches_naive_with_zero_fallbacks(self, problem):
        x, w, ref = problem
        out = guarded_conv2d(x, w, padding=1)
        assert_conv_close(out, ref)
        assert counters.total("guard.fallback") == 0
        assert counters.total("guard.sentinel_trip") == 0

    def test_bias_applied_once(self, problem):
        x, w, ref = problem
        bias = np.arange(w.shape[0], dtype=float)
        out = guarded_conv2d(x, w, bias=bias, padding=1)
        assert_conv_close(out, ref + bias[None, :, None, None])

    def test_nonfinite_input_served_degraded(self, problem):
        # Garbage-in is not an engine fault: the first attempt's result is
        # passed through instead of burning the whole chain.
        x, w, _ = problem
        x = x.copy()
        x[0, 0, 0, 0] = np.nan
        out = guarded_conv2d(x, w, padding=1)
        assert np.isnan(out).any()
        assert counters.total("guard.fallback") == 0

    def test_input_validation_still_applies(self, problem):
        x, w, _ = problem
        with pytest.raises(ValueError, match="stride"):
            guarded_conv2d(x, w, padding=1, stride=0)


class TestRecovery:
    # Engine kinds only: cluster kinds fire at serving-tier hook sites
    # (worker loop, router slot accounting) that guarded_conv2d never
    # reaches — tests/serve/test_chaos.py drills those.  Each kind runs
    # through two doors: the warm functional chain, and a Conv2d layer
    # whose first forward meets a cold spectrum cache.
    @pytest.mark.parametrize(
        "door, kind",
        [(door, kind) for door in ("functional", "cold_layer")
         for kind in faults.ENGINE_FAULT_KINDS],
        ids=[kind if door == "functional" else f"cold_layer-{kind}"
             for door in ("functional", "cold_layer")
             for kind in faults.ENGINE_FAULT_KINDS])
    def test_recovers_reference_answer_under_fault(self, problem, door,
                                                   kind):
        x, w, ref = problem
        if door == "functional":
            # Warm the spectrum cache: the corruption injector doctors
            # cached entries on their next hit, so a cold cache would
            # never fire it.
            guarded_conv2d(x, w, padding=1)
            reset_guard()
            calls = 1
        else:
            layer = Conv2d(3, 4, 3, padding=1, bias=False)
            layer.weight = w
            # The second forward hits the entry the first one inserted.
            calls = 2
        with guarded(), faults.inject(kind, seed=11) as state, \
                np.errstate(invalid="ignore", over="ignore"):
            for _ in range(calls):
                out = (guarded_conv2d(x, w, padding=1)
                       if door == "functional" else layer(x))
                assert_conv_close(out, ref)
        assert sum(state.counts.values()) >= 1, "fault must actually fire"

    @pytest.mark.parametrize("kind", faults.ENGINE_FAULT_KINDS)
    def test_transposed_conv_recovers_under_fault(self, rng, kind):
        # PolyHankel runs conv_transpose2d as its plan's adjoint, which
        # carries the engine's fault hooks too.
        x = rng.standard_normal((2, 4, 5, 5))
        w = rng.standard_normal((4, 3, 3, 3))
        params = dict(padding=1, stride=2, op="conv_transpose2d")
        ref = convolve(x, w, ConvAlgorithm.NAIVE, **params)
        guarded_conv2d(x, w, **params)
        reset_guard()
        with guarded(), faults.inject(kind, seed=11) as state, \
                np.errstate(invalid="ignore", over="ignore"):
            out = guarded_conv2d(x, w, **params)
        assert_conv_close(out, ref)
        assert sum(state.counts.values()) >= 1, "fault must actually fire"

    def test_fallback_counters_tagged_by_cause(self, problem):
        x, w, _ = problem
        with faults.inject("backend_error"):
            guarded_conv2d(x, w, padding=1)
        assert counters.total("guard.fallback", cause="exception") >= 1
        assert counters.total("guard.fallback",
                              algorithm="polyhankel") >= 1

    def test_sentinel_trip_counted_on_blowup(self, problem):
        x, w, _ = problem
        with faults.inject("accuracy_blowup"):
            guarded_conv2d(x, w, padding=1)
        assert counters.total("guard.sentinel_trip", status="suspect") >= 1


class TestBreaker:
    def test_opens_and_routes_around_primary(self, problem):
        x, w, ref = problem
        cfg = GuardConfig(breaker_threshold=1)
        with faults.inject("backend_error"):
            guarded_conv2d(x, w, padding=1, config=cfg)
        assert counters.total("guard.breaker_open") >= 1
        assert breaker().open_keys(), "primary's breaker should be open"
        # Next call (fault gone) skips the open entry instead of retrying.
        out = guarded_conv2d(x, w, padding=1, config=cfg)
        assert_conv_close(out, ref)
        assert counters.total("guard.fallback", cause="breaker_open") >= 1

    def test_open_breaker_keeps_layer_off_polyhankel(self, problem,
                                                     monkeypatch):
        """A guarded layer forward takes the chain's breaker into
        account: with PolyHankel's breaker open for this shape, the layer
        never runs the PolyHankel engine."""
        x, w, ref = problem
        cfg = GuardConfig(breaker_threshold=1)
        with faults.inject("backend_error"):
            guarded_conv2d(x, w, padding=1, config=cfg)
        assert breaker().open_keys(), "primary's breaker should be open"
        executed = []
        execute = PolyHankelPlan.execute

        def counting_execute(plan, *args, **kwargs):
            executed.append(plan)
            return execute(plan, *args, **kwargs)

        monkeypatch.setattr(PolyHankelPlan, "execute", counting_execute)
        layer = Conv2d(3, 4, 3, padding=1, bias=False)
        layer.weight = w
        with guarded():
            assert_conv_close(layer(x), ref)
        assert executed == []
        assert counters.total("guard.fallback", cause="breaker_open") >= 1

    def test_breaker_key_overrides_shape_scope(self, problem):
        """Shards of one request family share a single breaker: two
        calls with different batch sizes but the same breaker_key trip
        one key, where shape scoping would have kept two half-tripped
        breakers."""
        x, w, _ = problem
        cfg = GuardConfig(breaker_threshold=2)
        family = ("serve", "family-key")
        with faults.inject("backend_error"):
            guarded_conv2d(x, w, padding=1, config=cfg,
                           breaker_key=family)
            guarded_conv2d(x[:1], w, padding=1, config=cfg,
                           breaker_key=family)
        open_keys = breaker().open_keys()
        assert any(key[1] == family for key in open_keys)

    def test_breaker_shape_scope_keeps_batches_separate(self, problem):
        x, w, _ = problem
        cfg = GuardConfig(breaker_threshold=2)
        with faults.inject("backend_error"):
            guarded_conv2d(x, w, padding=1, config=cfg)
            guarded_conv2d(x[:1], w, padding=1, config=cfg)
        # One failure per distinct shape: neither breaker reached 2.
        assert breaker().open_keys() == []

    def test_reset_guard_clears_breaker_and_counters(self, problem):
        x, w, _ = problem
        cfg = GuardConfig(breaker_threshold=1)
        with faults.inject("backend_error"):
            guarded_conv2d(x, w, padding=1, config=cfg)
        reset_guard()
        assert breaker().open_keys() == []
        assert counters.total("guard.fallback") == 0


class TestExhaustion:
    def test_single_entry_chain_exhausts_under_fault(self, problem):
        x, w, _ = problem
        cfg = GuardConfig(chain=("polyhankel",), breaker_threshold=100)
        with faults.inject("backend_error"):
            with pytest.raises(GuardExhaustedError) as excinfo:
                guarded_conv2d(x, w, padding=1, config=cfg)
        err = excinfo.value
        assert err.attempts, "exhaustion must carry the attempt log"
        assert err.attempts[0][0] == "polyhankel"
        assert "exhausted its fallback chain" in str(err)
        assert isinstance(err.__cause__, Exception)
