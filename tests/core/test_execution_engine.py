"""Execution-engine tests: spectrum cache, plan cache bounds, workers.

The engine's contract is that every cached or parallel path is *bit
identical* (``np.array_equal``, not ``allclose``) to the uncached,
sequential reference — caching may only skip work, never change it.
"""

import numpy as np
import pytest

from repro.core.multichannel import (
    PolyHankelPlan,
    clear_plan_cache,
    clear_spectrum_cache,
    conv2d_polyhankel,
    enable_spectrum_cache,
    get_plan,
    plan_cache_info,
    set_plan_cache_limit,
    set_spectrum_cache_limit,
    spectrum_cache_info,
)
from repro.utils.shapes import ConvShape


@pytest.fixture(autouse=True)
def _fresh_caches():
    clear_plan_cache()
    clear_spectrum_cache()
    yield
    enable_spectrum_cache(True)
    set_plan_cache_limit(256)
    set_spectrum_cache_limit(64)
    clear_plan_cache()
    clear_spectrum_cache()


SHAPE = ConvShape((10, 9), (3, 3), n=4, c=2, f=3, padding=1)


def _problem(rng):
    x = rng.standard_normal(SHAPE.input_shape())
    w = rng.standard_normal(SHAPE.weight_shape())
    return x, w


class TestSpectrumCacheParity:
    @pytest.mark.parametrize("strategy", ["sum", "merge"])
    @pytest.mark.parametrize("backend", ["numpy", "builtin"])
    def test_cached_path_bit_identical(self, rng, strategy, backend):
        x, w = _problem(rng)
        plan = get_plan(SHAPE, strategy=strategy, backend=backend)
        reference = plan.execute(x, plan.transform_weight(w))
        first = conv2d_polyhankel(x, w, padding=1, strategy=strategy,
                                  backend=backend)
        second = conv2d_polyhankel(x, w, padding=1, strategy=strategy,
                                   backend=backend)
        np.testing.assert_array_equal(first, reference)
        np.testing.assert_array_equal(second, reference)
        assert spectrum_cache_info().hits >= 1

    @pytest.mark.parametrize("strategy", ["sum", "merge"])
    @pytest.mark.parametrize("backend", ["numpy", "builtin"])
    def test_workers_bit_identical(self, rng, strategy, backend):
        x, w = _problem(rng)
        plan = get_plan(SHAPE, strategy=strategy, backend=backend)
        w_hat = plan.transform_weight(w)
        reference = plan.execute(x, w_hat)
        for workers in (2, 3, 8):
            np.testing.assert_array_equal(
                plan.execute(x, w_hat, workers=workers), reference)

    def test_workers_through_functional_path(self, rng):
        x, w = _problem(rng)
        reference = conv2d_polyhankel(x, w, padding=1)
        np.testing.assert_array_equal(
            conv2d_polyhankel(x, w, padding=1, workers=2), reference)

    def test_disabled_cache_recomputes(self, rng):
        x, w = _problem(rng)
        enable_spectrum_cache(False)
        conv2d_polyhankel(x, w, padding=1)
        conv2d_polyhankel(x, w, padding=1)
        info = spectrum_cache_info()
        assert info.hits == 0 and info.size == 0


class TestSpectrumCacheInvalidation:
    def test_in_place_mutation_yields_fresh_spectra(self, rng):
        x, w = _problem(rng)
        out1 = conv2d_polyhankel(x, w, padding=1)
        w[0, 0, 0, 0] += 1.0
        out2 = conv2d_polyhankel(x, w, padding=1)
        enable_spectrum_cache(False)
        fresh = conv2d_polyhankel(x, w, padding=1)
        np.testing.assert_array_equal(out2, fresh)
        assert not np.array_equal(out1, out2)

    def test_distinct_arrays_same_content_hit_or_recompute_exactly(self, rng):
        x, w = _problem(rng)
        out1 = conv2d_polyhankel(x, w, padding=1)
        out2 = conv2d_polyhankel(x, w.copy(), padding=1)
        np.testing.assert_array_equal(out1, out2)


class TestCacheBounds:
    def test_spectrum_cache_is_bounded(self, rng):
        set_spectrum_cache_limit(2)
        x, _ = _problem(rng)
        for _ in range(5):
            w = rng.standard_normal(SHAPE.weight_shape())
            conv2d_polyhankel(x, w, padding=1)
        assert spectrum_cache_info().size <= 2

    def test_spectrum_limit_validation(self):
        with pytest.raises(ValueError):
            set_spectrum_cache_limit(0)

    def test_plan_cache_is_bounded(self):
        set_plan_cache_limit(2)
        for ih in (6, 7, 8, 9):
            get_plan(ConvShape((ih, ih), (3, 3)))
        info = plan_cache_info()
        assert info.size <= 2
        assert info.maxsize == 2

    def test_plan_cache_stats(self):
        shape = ConvShape((6, 6), (3, 3))
        get_plan(shape)
        get_plan(shape)
        info = plan_cache_info()
        assert info.misses >= 1 and info.hits >= 1

    def test_plan_limit_validation(self):
        with pytest.raises(ValueError):
            set_plan_cache_limit(0)


class TestAutoPolicy:
    def test_auto_resolves_per_backend(self):
        numpy_plan = get_plan(SHAPE, fft_policy="auto", backend="numpy")
        builtin_plan = get_plan(SHAPE, fft_policy="auto", backend="builtin")
        assert numpy_plan.fft_policy == "smooth7"
        assert builtin_plan.fft_policy == "pow2"

    def test_auto_matches_explicit_plan(self):
        assert get_plan(SHAPE, "auto", backend="numpy") is get_plan(
            SHAPE, "smooth7", backend="numpy")

    def test_direct_construction_keeps_pow2_default(self):
        plan = PolyHankelPlan(SHAPE)
        assert plan.fft_policy == "pow2"
        assert plan.nfft & (plan.nfft - 1) == 0

    @pytest.mark.parametrize("backend", ["numpy", "builtin"])
    def test_auto_policy_correctness(self, rng, backend):
        from tests.conftest import naive_conv2d_reference

        x, w = _problem(rng)
        out = conv2d_polyhankel(x, w, padding=1, backend=backend)
        np.testing.assert_allclose(out, naive_conv2d_reference(x, w, 1),
                                   atol=1e-8)


class TestVectorizedMergeConstruction:
    def test_merged_kernel_stack_matches_loop(self, rng):
        from repro.core.construction import (
            merged_kernel_polynomial,
            merged_kernel_stack,
        )

        w = rng.standard_normal((4, 3, 2, 3))
        stack = merged_kernel_stack(w, iw=7)
        for f in range(4):
            np.testing.assert_array_equal(
                stack[f], merged_kernel_polynomial(w[f], 7))

    def test_merged_input_stack_matches_loop(self, rng):
        from repro.core.construction import (
            merged_input_polynomial,
            merged_input_stack,
        )

        xp = rng.standard_normal((3, 2, 5, 6))
        stack = merged_input_stack(xp)
        for i in range(3):
            np.testing.assert_array_equal(
                stack[i], merged_input_polynomial(xp[i]))
