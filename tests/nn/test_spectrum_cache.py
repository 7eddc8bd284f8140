"""Conv2d weight spectra: amortization guard and invalidation.

A PolyHankel ``Conv2d`` reads its kernel spectra from the engine's one
weight-spectrum cache, the cache :func:`repro.nn.functional.conv2d` uses.
The microbenchmark guard asserts the *mechanism* (not wall-clock): the
engine's own ``weight.transform`` span proves the second forward of a
fixed-shape ``Conv2d`` transforms its weight zero times, so the
amortization cannot silently regress.
"""

from contextlib import contextmanager, nullcontext

import numpy as np
import pytest

from repro.core.multichannel import (
    clear_plan_cache,
    clear_spectrum_cache,
    enable_spectrum_cache,
    spectrum_cache_info,
)
from repro.guard.state import guarded
from repro.nn import functional as F
from repro.nn.layers import Conv2d
from repro.observe import tracing
from repro.observe.registry import cache_hits_misses, counters
from tests.conftest import naive_conv2d_reference


@pytest.fixture(autouse=True)
def _fresh_caches():
    clear_plan_cache()
    clear_spectrum_cache()
    yield
    clear_plan_cache()
    clear_spectrum_cache()


@contextmanager
def _transforms():
    """Counts the transforms run inside the block: ``weight`` from the
    engine's ``weight.transform`` span, ``rfft`` from the ``fft.calls``
    counter (the input transforms, plus any weight transform's)."""
    counts = {}
    counters.clear("fft.")
    with tracing() as spans:
        yield counts
    counts["weight"] = sum(s.name == "weight.transform" for s in spans)
    counts["rfft"] = counters.total("fft.calls", kind="rfft")


class TestAmortizationGuard:
    def test_second_forward_performs_zero_weight_rffts(self, rng):
        layer = Conv2d(3, 8, 3, padding=1, bias=False)
        x = rng.standard_normal((2, 3, 12, 12))

        with _transforms() as counts:
            layer(x)
        assert counts["weight"] == 1  # cold: transform once

        with _transforms() as counts:
            layer(x)
            layer(x)
        assert counts["weight"] == 0  # warm: never again
        assert counts["rfft"] == 2  # the input transform still runs

    def test_cache_disabled_layer_retransforms(self, rng):
        layer = Conv2d(3, 8, 3, padding=1, bias=False)
        x = rng.standard_normal((2, 3, 12, 12))
        try:
            enable_spectrum_cache(False)
            layer(x)
            with _transforms() as counts:
                layer(x)
        finally:
            enable_spectrum_cache(True)
        assert counts["weight"] == 1

    def test_layer_and_functional_share_one_spectrum(self, rng):
        layer = Conv2d(3, 8, 3, padding=1, bias=False)
        x = rng.standard_normal((2, 3, 12, 12))
        expect = layer(x)
        with _transforms() as counts:
            out = F.conv2d(x, layer.weight, padding=1)
        assert counts["weight"] == 0
        np.testing.assert_array_equal(out, expect)
        assert spectrum_cache_info().size == 1

    @pytest.mark.parametrize("guard", [False, True])
    def test_float32_weight_hits(self, rng, guard):
        """The cache keys on the caller's array, not on a float64 copy
        made per call, so a float32 weight is transformed once."""
        layer = Conv2d(3, 8, 3, padding=1, bias=False)
        layer.weight = layer.weight.astype(np.float32)
        x = rng.standard_normal((2, 3, 12, 12))
        with guarded() if guard else nullcontext():
            expect = layer(x)
            with _transforms() as counts:
                np.testing.assert_array_equal(layer(x), expect)
                F.conv2d(x, layer.weight, padding=1)
        assert counts["weight"] == 0


class TestLayerCacheCorrectness:
    def test_cached_forward_matches_reference(self, rng):
        layer = Conv2d(3, 4, 3, padding=1)
        x = rng.standard_normal((2, 3, 10, 10))
        expected = naive_conv2d_reference(x, layer.weight, 1) \
            + layer.bias[None, :, None, None]
        for _ in range(3):  # cold then cached
            np.testing.assert_allclose(layer(x), expected, atol=1e-8)
        assert cache_hits_misses("layer_spectrum") == (2, 1)

    def test_cached_forward_bit_identical_to_uncached(self, rng):
        layer = Conv2d(3, 4, 3, padding=1, bias=False)
        x = rng.standard_normal((2, 3, 10, 10))
        try:
            enable_spectrum_cache(False)
            reference = layer(x)
        finally:
            enable_spectrum_cache(True)
        np.testing.assert_array_equal(layer(x), reference)
        np.testing.assert_array_equal(layer(x), reference)

    def test_workers_forward_bit_identical(self, rng):
        layer = Conv2d(3, 4, 3, padding=1, bias=False)
        x = rng.standard_normal((4, 3, 10, 10))
        np.testing.assert_array_equal(
            F.conv2d(x, layer.weight, padding=1, workers=3), layer(x))

    def test_multiple_input_shapes_each_get_a_plan(self, rng):
        layer = Conv2d(2, 3, 3, padding=1, bias=False)
        for ih in (8, 10, 12):
            x = rng.standard_normal((1, 2, ih, ih))
            np.testing.assert_allclose(
                layer(x), naive_conv2d_reference(x, layer.weight, 1),
                atol=1e-8)
        assert spectrum_cache_info().size == 3


class TestLayerCacheInvalidation:
    def test_rebinding_weight_invalidates(self, rng):
        layer = Conv2d(2, 3, 3, padding=1, bias=False)
        x = rng.standard_normal((1, 2, 8, 8))
        layer(x)
        layer.weight = rng.standard_normal(layer.weight.shape)
        np.testing.assert_allclose(
            layer(x), naive_conv2d_reference(x, layer.weight, 1),
            atol=1e-8)

    def test_in_place_mutation_yields_fresh_spectra(self, rng):
        layer = Conv2d(2, 3, 3, padding=1, bias=False)
        x = rng.standard_normal((1, 2, 8, 8))
        stale = layer(x)
        layer.weight[...] = rng.standard_normal(layer.weight.shape)
        out = layer(x)
        assert not np.array_equal(out, stale)
        np.testing.assert_allclose(
            out, naive_conv2d_reference(x, layer.weight, 1), atol=1e-8)

    def test_explicit_invalidation_retransforms(self, rng):
        layer = Conv2d(2, 3, 3, padding=1, bias=False)
        x = rng.standard_normal((1, 2, 8, 8))
        layer(x)
        clear_spectrum_cache()
        with _transforms() as counts:
            layer(x)
        assert counts["weight"] == 1
