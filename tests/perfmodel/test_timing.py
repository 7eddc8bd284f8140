"""Tests for the roofline timing simulator (Figs. 3-6 machinery)."""

import pytest

from repro.baselines.registry import ConvAlgorithm as A
from repro.perfmodel.device import PAPER_DEVICES, RTX_3090TI, V100
from repro.perfmodel.timing import compare, simulate, simulate_ms
from repro.utils.shapes import ConvShape

SHAPE = ConvShape((64, 64), (5, 5), n=16, c=3, f=16, padding=2)


class TestSimulate:
    def test_total_is_sum_of_stages(self):
        report = simulate(A.POLYHANKEL, SHAPE, V100)
        assert report.total_s == pytest.approx(
            sum(st.total_s for st in report.stage_times)
        )

    def test_stage_time_includes_overhead(self):
        report = simulate(A.GEMM, SHAPE, V100)
        for st in report.stage_times:
            assert st.total_s >= V100.launch_overhead_s

    def test_bound_classification(self):
        report = simulate(A.GEMM, SHAPE, V100)
        for st in report.stage_times:
            assert st.bound in ("compute", "memory")
            if st.bound == "compute":
                assert st.compute_s >= st.memory_s

    def test_breakdown_names(self):
        report = simulate(A.GEMM, SHAPE, V100)
        assert set(report.breakdown()) == {"im2col", "gemm"}

    def test_monotone_in_input_size(self):
        for algo in (A.GEMM, A.FFT, A.POLYHANKEL):
            t_small = simulate_ms(algo, SHAPE, V100)
            t_large = simulate_ms(algo, SHAPE.with_(extents=(160, 160)), V100)
            assert t_large > t_small, algo

    def test_devices_differ(self):
        times = {d.name: simulate_ms(A.POLYHANKEL, SHAPE, d)
                 for d in PAPER_DEVICES}
        assert len(set(times.values())) == 3

    def test_accepts_device_name(self):
        assert simulate_ms(A.FFT, SHAPE, "a10g") == pytest.approx(
            simulate_ms(A.FFT, SHAPE, "A10G")
        )


class TestPaperShapes:
    """The headline orderings of Figs. 3-5, asserted at reference points."""

    def test_fig3_gemm_wins_small_inputs(self):
        shape = ConvShape((8, 8), (5, 5), n=128, c=3, f=16, padding=2)
        times = compare(shape, RTX_3090TI,
                        [A.GEMM, A.FFT, A.WINOGRAD, A.POLYHANKEL])
        assert min(times, key=times.get) is A.GEMM

    @pytest.mark.parametrize("device", ["3090ti", "a10g", "v100"])
    def test_fig3_polyhankel_wins_large_inputs(self, device):
        shape = ConvShape((224, 224), (5, 5), n=128, c=3, f=16, padding=2)
        times = compare(shape, device, [A.GEMM, A.FFT, A.WINOGRAD,
                                        A.FINEGRAIN_FFT, A.POLYHANKEL])
        assert min(times, key=times.get) is A.POLYHANKEL

    def test_fig4_polyhankel_wins_small_kernels(self):
        shape = ConvShape((112, 112), (5, 5), n=128, c=3, f=16)
        times = compare(shape, RTX_3090TI,
                        [A.GEMM, A.FFT, A.FINEGRAIN_FFT, A.POLYHANKEL])
        assert min(times, key=times.get) is A.POLYHANKEL

    def test_fig4_polyhankel_loses_at_very_large_kernels(self):
        """Fig. 4's right region: past the crossover an FFT-family method
        overtakes PolyHankel (our calibrated crossover sits near k=25 for
        96x96 inputs vs the paper's ~15; see EXPERIMENTS.md)."""
        shape = ConvShape((96, 96), (25, 25), n=128, c=3, f=16)
        times = compare(shape, RTX_3090TI,
                        [A.GEMM, A.FFT, A.FINEGRAIN_FFT, A.POLYHANKEL])
        winner = min(times, key=times.get)
        assert winner is not A.POLYHANKEL
        assert winner in (A.FFT, A.FINEGRAIN_FFT)

    def test_fig4_gemm_degrades_quadratically(self):
        t = [simulate_ms(A.GEMM,
                         ConvShape((112, 112), (k, k), n=128, c=3,
                                   f=16), RTX_3090TI)
             for k in (5, 10, 20)]
        assert t[1] > 2.5 * t[0]
        assert t[2] > 2.5 * t[1]

    def test_fig4_fft_insensitive_to_kernel_size(self):
        t = [simulate_ms(A.FFT,
                         ConvShape((112, 112), (k, k), n=128, c=3,
                                   f=16), RTX_3090TI)
             for k in (5, 10, 15)]
        assert max(t) < 1.3 * min(t)

    def test_fig5_polyhankel_beats_cudnn_at_high_channels(self):
        shape = ConvShape((112, 112), (3, 3), n=128, c=128, f=128, padding=1)
        times = compare(shape, RTX_3090TI, [
            A.GEMM, A.IMPLICIT_GEMM, A.IMPLICIT_PRECOMP_GEMM, A.FFT,
            A.FFT_TILING, A.WINOGRAD, A.WINOGRAD_NONFUSED, A.POLYHANKEL,
        ])
        assert min(times, key=times.get) is A.POLYHANKEL

    def test_v100_speedup_reflects_low_compute_bandwidth_ratio(self):
        """The paper's largest input-sweep speedup is on V100; flop-heavy
        rivals suffer most where peak compute is lowest."""
        shape = ConvShape((160, 160), (5, 5), n=128, c=3, f=16, padding=2)
        gap = {}
        for dev in ("3090ti", "v100"):
            times = compare(shape, dev, [A.FFT, A.POLYHANKEL])
            gap[dev] = times[A.FFT] / times[A.POLYHANKEL]
        assert gap["v100"] > gap["3090ti"]
