"""Tests for algorithm="auto" dispatch in nn.functional.conv2d."""

import numpy as np

from repro.nn import functional as F
from tests.conftest import naive_conv2d_reference


class TestAutoDispatch:
    def test_auto_is_correct_small_input(self, rng):
        x = rng.standard_normal((2, 3, 12, 12))
        w = rng.standard_normal((4, 3, 3, 3))
        got = F.conv2d(x, w, padding=1, algorithm="auto")
        np.testing.assert_allclose(got, naive_conv2d_reference(x, w, 1),
                                   atol=1e-8)

    def test_auto_is_correct_large_input(self, rng):
        x = rng.standard_normal((1, 1, 64, 64))
        w = rng.standard_normal((2, 1, 5, 5))
        got = F.conv2d(x, w, padding=2, algorithm="auto")
        np.testing.assert_allclose(got, naive_conv2d_reference(x, w, 2),
                                   atol=1e-8)

    def test_auto_is_correct_large_kernel(self, rng):
        x = rng.standard_normal((1, 1, 40, 40))
        w = rng.standard_normal((1, 1, 17, 17))
        got = F.conv2d(x, w, algorithm="auto")
        np.testing.assert_allclose(got, naive_conv2d_reference(x, w),
                                   atol=1e-7)

    def test_auto_with_groups_and_dilation(self, rng):
        x = rng.standard_normal((1, 4, 20, 20))
        w = rng.standard_normal((4, 2, 3, 3))
        got = F.conv2d(x, w, padding=2, dilation=2, groups=2,
                       algorithm="auto")
        explicit = F.conv2d(x, w, padding=2, dilation=2, groups=2,
                            algorithm="gemm")
        np.testing.assert_allclose(got, explicit, atol=1e-8)

    def test_auto_with_bias(self, rng):
        x = rng.standard_normal((1, 2, 10, 10))
        w = rng.standard_normal((3, 2, 3, 3))
        b = rng.standard_normal(3)
        got = F.conv2d(x, w, bias=b, padding=1, algorithm="auto")
        ref = naive_conv2d_reference(x, w, 1) + b[None, :, None, None]
        np.testing.assert_allclose(got, ref, atol=1e-8)


class TestAutoFollowsRules:
    def test_regions_route_to_expected_families(self, rng):
        from repro.selection.heuristic import select_algorithm_rules
        from repro.utils.shapes import ConvShape

        # Tiny input -> GEMM family; sweet spot -> PolyHankel;
        # huge kernel -> FFT family.
        small = ConvShape((12, 12), (3, 3), padding=1)
        sweet = ConvShape((112, 112), (5, 5), padding=2)
        bigk = ConvShape((64, 64), (20, 20))
        assert "gemm" in select_algorithm_rules(small).value
        assert select_algorithm_rules(sweet).value == "polyhankel"
        assert "fft" in select_algorithm_rules(bigk).value
