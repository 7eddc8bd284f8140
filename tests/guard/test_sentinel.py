"""Tests for repro.guard.sentinel: the a-priori/a-posteriori error model."""

import numpy as np
import pytest

from repro.baselines.naive import convnd_naive
from repro.guard.sentinel import (
    DEGRADED, FAILED, HEALTHY, SUSPECT, calibrate_ulp_constant, classify,
    output_magnitude_bound, predicted_error_bound,
)
from repro.guard.state import GuardConfig
from repro.utils.random import random_problem
from repro.utils.shapes import ConvShape


@pytest.fixture
def problem():
    shape = ConvShape((12, 12), (3, 3), n=2, c=3, f=4, padding=1)
    x, w = random_problem(shape, seed=0)
    return shape, x, w


class TestMagnitudeBound:
    def test_matches_manual_formula(self, problem):
        _, x, w = problem
        expected = float(np.max(np.abs(x))) * float(
            np.max(np.sum(np.abs(w), axis=(1, 2, 3))))
        assert output_magnitude_bound(x, w) == pytest.approx(expected)

    def test_is_a_hard_bound_on_exact_outputs(self, problem):
        shape, x, w = problem
        out = convnd_naive(x, w, padding=shape.padding)
        assert float(np.max(np.abs(out))) <= output_magnitude_bound(x, w)

    def test_empty_inputs(self):
        assert output_magnitude_bound(np.zeros((0, 1, 1, 1)),
                                      np.ones((1, 1, 1, 1))) == 0.0


class TestPredictedErrorBound:
    def test_grows_with_transform_size(self):
        small = predicted_error_bound(64, 10.0, ulp_constant=8.0)
        large = predicted_error_bound(4096, 10.0, ulp_constant=8.0)
        assert large > small > 0

    def test_floor_keeps_zero_bound_meaningful(self):
        # All-zero inputs give B = 0; round-off noise must still have a
        # nonzero allowance or every zero problem would read as suspect.
        assert predicted_error_bound(64, 0.0, ulp_constant=8.0) > 0

    def test_uses_active_config_when_constant_omitted(self):
        from repro.guard.state import disable_guard, guarded
        with guarded(GuardConfig(ulp_constant=2.0)):
            assert predicted_error_bound(64, 1.0) == \
                predicted_error_bound(64, 1.0, ulp_constant=2.0)
        disable_guard()


class TestClassify:
    def test_healthy_on_real_engine_output(self, problem):
        shape, x, w = problem
        out = convnd_naive(x, w, padding=shape.padding)
        verdict = classify(out, x, w, shape.poly_product_len)
        assert verdict.status == HEALTHY
        assert verdict.healthy and verdict.ok
        assert verdict.observed_peak <= verdict.bound

    def test_suspect_on_magnitude_blowup(self, problem):
        shape, x, w = problem
        out = convnd_naive(x, w, padding=shape.padding) * 1e12
        verdict = classify(out, x, w, shape.poly_product_len)
        assert verdict.status == SUSPECT
        assert not verdict.ok
        assert "exceeds exact-arithmetic bound" in verdict.reason

    def test_failed_on_nonfinite_output_from_finite_inputs(self, problem):
        shape, x, w = problem
        out = convnd_naive(x, w, padding=shape.padding)
        out[0, 0, 0, 0] = np.nan
        verdict = classify(out, x, w, shape.poly_product_len)
        assert verdict.status == FAILED
        assert not verdict.ok

    def test_degraded_passthrough_on_nonfinite_input(self, problem):
        shape, x, w = problem
        x = x.copy()
        x[0, 0, 0, 0] = np.inf
        out = np.full(shape.output_shape(), np.nan)
        verdict = classify(out, x, w, shape.poly_product_len)
        assert verdict.status == DEGRADED
        assert verdict.ok and not verdict.healthy

    def test_tight_config_flags_barely_over_bound(self):
        # All-ones tensors make the exact output hit the bound B exactly;
        # with zero slack and a zero ulp constant the threshold collapses
        # to B, so any excess must trip.
        x = np.ones((1, 2, 6, 6))
        w = np.ones((3, 2, 3, 3))
        out = convnd_naive(x, w, padding=0)
        cfg = GuardConfig(ulp_constant=0.0, magnitude_slack=0.0)
        assert classify(out, x, w, 64, cfg).status == HEALTHY
        verdict = classify(out * (1.0 + 1e-9), x, w, 64, cfg)
        assert verdict.status == SUSPECT


class TestCalibration:
    def test_default_constant_dominates_measured_growth(self):
        measured = calibrate_ulp_constant(sizes=(8, 64, 128), trials=2)
        assert 0 < measured
        # The shipped default must leave generous headroom, or healthy
        # forwards would trip the sentinel on ordinary round-off.
        assert measured <= GuardConfig().ulp_constant / 2
