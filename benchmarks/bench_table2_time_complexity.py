"""Table 2 reproduction: time-complexity expressions vs counted FLOPs.

The paper's Table 2 gives closed-form operation counts for im2col+MM,
traditional FFT, fine-grain FFT and PolyHankel.  We evaluate each
expression over an input-size sweep and compare its growth against the
concrete counter model's growth — they must agree up to the constant
factors asymptotic expressions drop.
"""

from conftest import run_once
from repro.experiments import TIME_ROWS, complexity_report, scaling_ratio
from repro.utils.shapes import ConvShape

SHAPES = [ConvShape((s, s), (5, 5), n=1, c=1, f=1, padding=2)
          for s in (32, 64, 128, 224)]


def test_table2_growth_agreement(benchmark, record_result):
    report = run_once(benchmark,
                      lambda: complexity_report(TIME_ROWS, SHAPES))
    record_result("table2_time_complexity", report)

    for row in TIME_ROWS:
        sym, meas = scaling_ratio(row, SHAPES[0], SHAPES[-1])
        # Growth factors agree up to constant factors across a 7x
        # input-size range (the FFT rows quantize to power-of-two sizes,
        # which the smooth expressions do not capture — hence the slack).
        assert 0.35 * sym <= meas <= 2.5 * sym, row.method


def test_table2_ranking_at_large_sizes(benchmark):
    """The table's qualitative claim: PolyHankel needs far fewer
    operations than the traditional (2D) FFT method."""
    shape = ConvShape((224, 224), (5, 5), n=1, c=1, f=1, padding=2)

    def evaluate():
        return {row.method: row.measured(shape) for row in TIME_ROWS}

    measured = run_once(benchmark, evaluate)
    from repro.baselines.registry import ConvAlgorithm as A
    assert measured[A.POLYHANKEL] < measured[A.FFT]


def test_table2_kernel_size_sensitivity(benchmark):
    """Table 2 structure: GEMM's count scales with Kh*Kw; PolyHankel's only
    via the (Kh*Iw) term inside the log/linear factors."""
    small = ConvShape((64, 64), (3, 3), n=1, c=1, f=1, padding=1)
    big = ConvShape((64, 64), (9, 9), n=1, c=1, f=1, padding=4)

    def ratios():
        from repro.baselines.registry import ConvAlgorithm as A
        from repro.perfmodel.counters import count
        return {
            "gemm": count(A.GEMM, big).flops / count(A.GEMM, small).flops,
            "poly": count(A.POLYHANKEL, big).flops
            / count(A.POLYHANKEL, small).flops,
        }

    r = run_once(benchmark, ratios)
    assert r["gemm"] > 6.0       # ~9x from the kernel-area term
    assert r["poly"] < 3.0       # much gentler growth
