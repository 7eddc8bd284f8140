"""Cache correctness under the extended parameter space.

The plan cache keys on the full :class:`ConvShape` (which embeds
canonicalized stride/dilation/groups/padding) and the spectrum cache keys
on ``(weight, plan)`` — so the same weight array convolved under different
parameters must never be served a stale spectrum.  These tests pin that
down, because a silent aliasing bug here produces plausible-looking wrong
numbers rather than a crash.
"""


from repro.core.multichannel import (
    conv2d_polyhankel, get_plan, spectrum_cache_info,
)
from repro.observe.registry import cache_hits_misses
from repro.utils.shapes import ConvShape
from tests.conftest import assert_conv_close, naive_conv2d_reference


def _shape(**overrides):
    base = dict(extents=(10, 9), kernel=(3, 3), n=1, c=4, f=4, padding=1)
    base.update(overrides)
    return ConvShape(**base)


class TestPlanIdentity:
    def test_dilation_yields_distinct_plans(self):
        p1 = get_plan(_shape())
        p2 = get_plan(_shape(dilation=2))
        assert p1 is not p2
        assert p1.cache_key != p2.cache_key

    def test_groups_yield_distinct_plans(self):
        assert get_plan(_shape()).cache_key \
            != get_plan(_shape(groups=2)).cache_key

    def test_per_axis_stride_yields_distinct_plans(self):
        assert get_plan(_shape(stride=(1, 2))).cache_key \
            != get_plan(_shape(stride=(2, 1))).cache_key

    def test_asymmetric_padding_yields_distinct_plans(self):
        assert get_plan(_shape(padding=(1, 1, 0, 2))).cache_key \
            != get_plan(_shape(padding=(0, 2, 1, 1))).cache_key

    def test_equivalent_spellings_share_a_plan(self):
        """Canonicalization must collapse (2, 2) and 2 to one plan — the
        cache should not fragment over spelling."""
        assert get_plan(_shape(stride=(2, 2), dilation=(3, 3))) \
            is get_plan(_shape(stride=2, dilation=3))


class TestSpectrumNoAliasing:
    def test_same_weight_different_dilation(self, rng):
        """Interleaved calls with one weight under two dilations must each
        match the reference — a stale dilation-1 spectrum reused for the
        dilation-2 call would corrupt the second result."""
        x1 = rng.standard_normal((1, 4, 10, 9))
        x2 = rng.standard_normal((1, 4, 12, 11))
        w = rng.standard_normal((4, 4, 3, 3))
        for _ in range(2):  # second round hits both cache entries
            a = conv2d_polyhankel(x1, w, padding=1, dilation=1)
            b = conv2d_polyhankel(x2, w, padding=2, dilation=2)
            assert_conv_close(a, naive_conv2d_reference(x1, w, 1))
            assert_conv_close(
                b, naive_conv2d_reference(x2, w, 2, dilation=2))

    def test_same_weight_different_groups(self, rng):
        """A (4, 1, 3, 3) weight is valid both as depthwise over 4
        channels and as 4 filters over 1 channel; the two interpretations
        share the weight array but must not share a spectrum."""
        w = rng.standard_normal((4, 1, 3, 3))
        x_dw = rng.standard_normal((2, 4, 8, 8))
        x_full = rng.standard_normal((2, 1, 8, 8))
        dw = conv2d_polyhankel(x_dw, w, padding=1, groups=4)
        full = conv2d_polyhankel(x_full, w, padding=1)
        assert_conv_close(
            dw, naive_conv2d_reference(x_dw, w, 1, groups=4))
        assert_conv_close(full, naive_conv2d_reference(x_full, w, 1))

    def test_dilation_change_is_a_miss_not_a_hit(self, rng):
        """The second dilation must repopulate, not reuse: watch the
        global spectrum-cache statistics across the two calls."""
        x = rng.standard_normal((1, 2, 12, 12))
        w = rng.standard_normal((2, 2, 3, 3))
        conv2d_polyhankel(x, w, padding=2, dilation=1)
        before = spectrum_cache_info()
        conv2d_polyhankel(x, w, padding=2, dilation=2)
        after = spectrum_cache_info()
        assert after.misses == before.misses + 1
        # ...and repeating the dilation=2 call is now a hit.
        conv2d_polyhankel(x, w, padding=2, dilation=2)
        assert spectrum_cache_info().hits == after.hits + 1


class TestLayerSpectrumCache:
    def test_extended_layer_caches_and_stays_correct(self, rng):
        from repro.nn.layers import Conv2d

        layer = Conv2d(4, 4, 3, padding="same", dilation=2, groups=2,
                       bias=False, rng=rng)
        x = rng.standard_normal((2, 4, 11, 10))
        ref = naive_conv2d_reference(x, layer.weight, "same", dilation=2,
                                     groups=2)
        hits, misses = cache_hits_misses("layer_spectrum")
        assert_conv_close(layer(x), ref)
        assert_conv_close(layer(x), ref)  # served from the spectrum cache
        after = cache_hits_misses("layer_spectrum")
        assert after[0] - hits >= 1 and after[1] - misses == 1

    def test_rebinding_weight_invalidates(self, rng):
        from repro.nn.layers import Conv2d

        layer = Conv2d(3, 3, 3, padding=1, groups=3, bias=False, rng=rng)
        x = rng.standard_normal((1, 3, 7, 7))
        layer(x)
        layer.weight = rng.standard_normal(layer.weight.shape)
        assert_conv_close(
            layer(x),
            naive_conv2d_reference(x, layer.weight, 1, groups=3))
