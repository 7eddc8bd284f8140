"""Tests for the batched multi-channel PolyHankel path."""

import numpy as np
import pytest

from repro.core.multichannel import (
    PolyHankelPlan,
    clear_plan_cache,
    conv2d_polyhankel,
    get_plan,
)
from repro.utils.shapes import ConvShape
from tests.conftest import naive_conv2d_reference

CASES = [
    dict(n=1, c=1, f=1, ih=5, iw=5, kh=3, kw=3, padding=0, stride=1),
    dict(n=2, c=3, f=4, ih=8, iw=9, kh=3, kw=3, padding=1, stride=1),
    dict(n=3, c=2, f=5, ih=12, iw=10, kh=2, kw=2, padding=0, stride=2),
    dict(n=2, c=4, f=3, ih=10, iw=7, kh=5, kw=3, padding=2, stride=1),
    dict(n=1, c=2, f=2, ih=6, iw=6, kh=1, kw=1, padding=0, stride=1),
]


def _problem(rng, case):
    x = rng.standard_normal((case["n"], case["c"], case["ih"], case["iw"]))
    w = rng.standard_normal((case["f"], case["c"], case["kh"], case["kw"]))
    return x, w


class TestCorrectness:
    @pytest.mark.parametrize("case", CASES)
    def test_sum_strategy(self, rng, case):
        x, w = _problem(rng, case)
        got = conv2d_polyhankel(x, w, padding=case["padding"],
                                stride=case["stride"], strategy="sum")
        ref = naive_conv2d_reference(x, w, case["padding"], case["stride"])
        np.testing.assert_allclose(got, ref, atol=1e-8)

    @pytest.mark.parametrize("case", CASES)
    def test_merge_strategy(self, rng, case):
        x, w = _problem(rng, case)
        got = conv2d_polyhankel(x, w, padding=case["padding"],
                                stride=case["stride"], strategy="merge")
        ref = naive_conv2d_reference(x, w, case["padding"], case["stride"])
        np.testing.assert_allclose(got, ref, atol=1e-8)

    def test_strategies_agree(self, rng):
        x = rng.standard_normal((2, 3, 7, 7))
        w = rng.standard_normal((4, 3, 3, 3))
        np.testing.assert_allclose(
            conv2d_polyhankel(x, w, padding=1, strategy="sum"),
            conv2d_polyhankel(x, w, padding=1, strategy="merge"),
            atol=1e-8,
        )

    def test_bias(self, rng):
        x = rng.standard_normal((2, 2, 6, 6))
        w = rng.standard_normal((3, 2, 3, 3))
        b = rng.standard_normal(3)
        got = conv2d_polyhankel(x, w, bias=b, padding=1)
        ref = naive_conv2d_reference(x, w, 1) + b[None, :, None, None]
        np.testing.assert_allclose(got, ref, atol=1e-8)

    def test_builtin_backend(self, rng):
        x = rng.standard_normal((1, 2, 6, 6))
        w = rng.standard_normal((2, 2, 3, 3))
        np.testing.assert_allclose(
            conv2d_polyhankel(x, w, backend="builtin"),
            naive_conv2d_reference(x, w), atol=1e-8)


class TestValidation:
    def test_bias_length_checked(self, rng):
        x = rng.standard_normal((1, 1, 5, 5))
        w = rng.standard_normal((2, 1, 3, 3))
        with pytest.raises(ValueError, match="bias"):
            conv2d_polyhankel(x, w, bias=np.zeros(3))

    def test_channel_mismatch(self, rng):
        with pytest.raises(ValueError, match="channel mismatch"):
            conv2d_polyhankel(rng.standard_normal((1, 2, 5, 5)),
                              rng.standard_normal((1, 3, 3, 3)))

    def test_unknown_strategy(self, rng):
        with pytest.raises(ValueError, match="unknown channel strategy"):
            conv2d_polyhankel(rng.standard_normal((1, 1, 5, 5)),
                              rng.standard_normal((1, 1, 3, 3)),
                              strategy="magic")


class TestPlan:
    def setup_method(self):
        clear_plan_cache()

    def test_plan_reuse_from_cache(self):
        shape = ConvShape((8, 8), (3, 3), n=2, c=2, f=2)
        assert get_plan(shape) is get_plan(shape)

    def test_cache_distinguishes_options(self):
        shape = ConvShape((8, 8), (3, 3))
        assert get_plan(shape, strategy="sum") is not get_plan(
            shape, strategy="merge"
        )

    def test_clear_cache(self):
        shape = ConvShape((8, 8), (3, 3))
        first = get_plan(shape)
        clear_plan_cache()
        assert get_plan(shape) is not first

    def test_plan_execute_validates_input_shape(self, rng):
        shape = ConvShape((8, 8), (3, 3), n=1, c=1, f=1)
        plan = PolyHankelPlan(shape)
        w_hat = plan.transform_weight(rng.standard_normal((1, 1, 3, 3)))
        with pytest.raises(ValueError, match="input shape"):
            plan.execute(rng.standard_normal((1, 1, 9, 9)), w_hat)

    def test_plan_validates_weight_shape(self, rng):
        shape = ConvShape((8, 8), (3, 3), n=1, c=1, f=1)
        plan = PolyHankelPlan(shape)
        with pytest.raises(ValueError, match="weight shape"):
            plan.transform_weight(rng.standard_normal((2, 1, 3, 3)))

    def test_weight_reuse_across_inputs(self, rng):
        """A cached weight spectrum serves many inputs (inference case)."""
        shape = ConvShape((6, 6), (3, 3), n=1, c=2, f=2, padding=1)
        plan = PolyHankelPlan(shape)
        w = rng.standard_normal((2, 2, 3, 3))
        w_hat = plan.transform_weight(w)
        for _ in range(3):
            x = rng.standard_normal((1, 2, 6, 6))
            np.testing.assert_allclose(
                plan.execute(x, w_hat),
                naive_conv2d_reference(x, w, 1), atol=1e-8)

    def test_fft_size_covers_cyclic_length(self):
        shape = ConvShape((8, 8), (3, 3))
        plan = PolyHankelPlan(shape)
        assert plan.nfft >= shape.poly_input_len
