"""Table 3 reproduction: space-complexity expressions vs modeled workspace.

Table 3 gives each method's extra storage: the im2col matrix for GEMM, the
padded complex planes for the FFT methods, and the padded 1D polynomials
for PolyHankel.
"""

from conftest import run_once
from repro.baselines.registry import ConvAlgorithm as A
from repro.experiments import SPACE_ROWS, complexity_report, scaling_ratio
from repro.perfmodel.counters import count
from repro.utils.shapes import ConvShape

SHAPES = [ConvShape((s, s), (5, 5), n=1, c=1, f=1, padding=2)
          for s in (32, 64, 128, 224)]


def test_table3_growth_agreement(benchmark, record_result):
    report = run_once(benchmark,
                      lambda: complexity_report(SPACE_ROWS, SHAPES))
    record_result("table3_space_complexity", report)

    for row in SPACE_ROWS:
        sym, meas = scaling_ratio(row, SHAPES[0], SHAPES[-1])
        assert 0.4 * sym <= meas <= 2.5 * sym, row.method


def test_table3_im2col_redundancy_dominates(benchmark):
    """Table 3's headline: the im2col workspace (Kh*Kw*Oh*Ow) dwarfs every
    FFT-family footprint by roughly the kernel-area factor."""
    shape = ConvShape((128, 128), (5, 5), n=1, c=1, f=1, padding=2)

    def workspaces():
        return {row.method: row.measured(shape) for row in SPACE_ROWS}

    ws = run_once(benchmark, workspaces)
    assert ws[A.GEMM] > 3 * ws[A.POLYHANKEL]
    assert ws[A.GEMM] > 3 * ws[A.FFT]


def test_table3_polyhankel_workspace_linear_in_input(benchmark):
    """PolyHankel's footprint is ~3*(Ih*Iw + Kh*Iw): linear in the input
    area, independent of Kw."""
    def ratio():
        a = count(A.POLYHANKEL,
                  ConvShape((64, 64), (5, 5), padding=2))
        b = count(A.POLYHANKEL,
                  ConvShape((128, 128), (5, 5), padding=2))
        return b.workspace_bytes / a.workspace_bytes

    r = run_once(benchmark, ratio)
    assert 2.0 < r < 8.0  # ~4x for a 4x input-area increase
