"""Tests for the analytic counter models (Tables 2-3, Fig. 7)."""

import math

import numpy as np
import pytest

from repro.baselines.registry import ConvAlgorithm as A
from repro.core.planning import (
    MAX_SINGLE_PASS_FFT,
    fft_passes,
    polyhankel_block_size,
)
from repro.perfmodel.counters import (
    count,
    count_gemm,
    count_polyhankel,
    modeled_algorithms,
)
from repro.utils.shapes import ConvShape

SHAPE = ConvShape((64, 64), (5, 5), n=8, c=3, f=16, padding=2)


class TestBasicInvariants:
    @pytest.mark.parametrize("algo", [a for a in modeled_algorithms()])
    def test_counts_positive(self, algo):
        report = count(algo, SHAPE)
        assert report.flops > 0
        assert report.bytes_moved > 0
        assert report.transactions == report.bytes_moved / 32
        assert report.launches == len(report.stages)

    @pytest.mark.parametrize("algo", [A.GEMM, A.FFT, A.POLYHANKEL])
    def test_counts_scale_with_batch(self, algo):
        small = count(algo, SHAPE.with_(n=2))
        large = count(algo, SHAPE.with_(n=16))
        assert large.flops > 4 * small.flops
        assert large.bytes_moved > 4 * small.bytes_moved

    def test_unmodeled_algorithm_raises(self):
        with pytest.raises(ValueError, match="no counter model"):
            count(A.NAIVE, SHAPE)

    def test_string_accepted(self):
        assert count("gemm", SHAPE).algorithm is A.GEMM


class TestTable2TimeComplexity:
    def test_gemm_flops_exact(self):
        """Table 2 row 1: Kh*Kw*Oh*Ow multiply-accumulates (x2 for FLOPs),
        per (image, filter, channel)."""
        report = count_gemm(SHAPE)
        expected = 2 * SHAPE.n * SHAPE.f * SHAPE.c \
            * SHAPE.kernel_elems * SHAPE.output_elems
        assert report.stages[-1].flops == expected
        assert report.flops == expected  # im2col itself does no FLOPs

    def test_polyhankel_flops_scale_n_log_n(self):
        """Table 2 row 4: (Ih*Iw + Kh*Iw) log(Ih*Iw + Kh*Iw) scaling."""
        small = count_polyhankel(SHAPE)
        big = count_polyhankel(SHAPE.with_(extents=(128, 128)))
        work = lambda s: s.poly_product_len * math.log2(s.poly_product_len)
        ratio_model = big.flops / small.flops
        ratio_formula = work(SHAPE.with_(extents=(128, 128))) / work(SHAPE)
        # Same growth within the slack of block rounding.
        assert 0.5 * ratio_formula < ratio_model < 2.0 * ratio_formula

    def test_fft_method_has_most_flops(self):
        """Fig. 7a: the FFT method has the highest operation count (its
        power-of-two padded, two-pass transforms dominate at the common
        3x3-kernel shapes)."""
        shape = ConvShape((112, 112), (3, 3), n=32, c=3, f=16, padding=1)
        fft_flops = count(A.FFT, shape).flops
        for algo in (A.GEMM, A.WINOGRAD, A.POLYHANKEL, A.FINEGRAIN_FFT):
            assert fft_flops > count(algo, shape).flops, algo

    def test_polyhankel_lowest_flops(self):
        """Fig. 7a: PolyHankel typically has the lowest operation count."""
        shape = ConvShape((112, 112), (5, 5), n=32, c=3, f=16, padding=2)
        poly = count(A.POLYHANKEL, shape).flops
        for algo in (A.GEMM, A.FFT, A.WINOGRAD, A.FINEGRAIN_FFT):
            assert poly < count(algo, shape).flops, algo


class TestTable3SpaceComplexity:
    def test_gemm_workspace_formula(self):
        """Table 3 row 1: im2col workspace = Kh*Kw*Oh*Ow elements."""
        report = count_gemm(SHAPE)
        expected = SHAPE.n * SHAPE.c * SHAPE.kernel_elems \
            * SHAPE.output_elems * 4
        assert report.workspace_bytes == expected

    def test_gemm_has_most_transactions_at_large_sizes(self):
        """Fig. 7b: im2col+GEMM has the highest memory transactions."""
        shape = ConvShape((160, 160), (5, 5), n=32, c=3, f=16, padding=2)
        gemm_tx = count(A.GEMM, shape).transactions
        for algo in (A.FFT, A.POLYHANKEL, A.FINEGRAIN_FFT):
            assert gemm_tx > count(algo, shape).transactions, algo

    def test_polyhankel_lowest_transactions(self):
        """Fig. 7b: PolyHankel typically has the fewest transactions."""
        shape = ConvShape((112, 112), (5, 5), n=32, c=3, f=16, padding=2)
        poly = count(A.POLYHANKEL, shape).transactions
        for algo in (A.GEMM, A.FFT, A.WINOGRAD):
            assert poly < count(algo, shape).transactions, algo

    def test_implicit_gemm_avoids_workspace(self):
        explicit = count(A.GEMM, SHAPE)
        implicit = count(A.IMPLICIT_GEMM, SHAPE)
        assert implicit.bytes_moved < explicit.bytes_moved
        assert implicit.workspace_bytes == 0

    def test_nonfused_winograd_streams_workspaces(self):
        fused = count(A.WINOGRAD, SHAPE.with_(kernel=(3, 3), padding=1))
        nonfused = count(A.WINOGRAD_NONFUSED,
                         SHAPE.with_(kernel=(3, 3), padding=1))
        assert nonfused.bytes_moved > fused.bytes_moved
        assert np.isclose(nonfused.flops, fused.flops, rtol=0.05)


class TestPolyhankelBlocking:
    def test_block_size_is_power_of_two(self):
        nfft = polyhankel_block_size(SHAPE)
        assert nfft & (nfft - 1) == 0

    def test_block_covers_kernel(self):
        nfft = polyhankel_block_size(SHAPE)
        assert nfft > SHAPE.poly_kernel_len

    def test_block_grows_with_kernel_vector(self):
        """Sec. 4.1: FFT size is determined by the kernel vector size."""
        small = polyhankel_block_size(ConvShape((112, 112), (3, 3)))
        large = polyhankel_block_size(ConvShape((112, 112), (21, 21)))
        assert large > small

    def test_cost_steps_up_with_kernel_size(self):
        """Fig. 4: PolyHankel cost grows (stepwise) with kernel size."""
        flops = [count_polyhankel(
            ConvShape((112, 112), (k, k), n=16, c=3, f=16)).flops
            for k in (4, 10, 16, 22)]
        assert flops[-1] > flops[0]

    def test_fft_passes(self):
        assert fft_passes(MAX_SINGLE_PASS_FFT) == 1
        assert fft_passes(2 * MAX_SINGLE_PASS_FFT) == 2
        assert fft_passes(MAX_SINGLE_PASS_FFT ** 2) == 2
        assert fft_passes(2 * MAX_SINGLE_PASS_FFT ** 2) == 3
