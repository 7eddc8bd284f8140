"""Unit tests for the Table 2/3 complexity expressions and reports."""

import pytest

from repro.baselines.registry import ConvAlgorithm as A
from repro.experiments.tables import (
    SPACE_ROWS,
    TIME_ROWS,
    complexity_report,
    scaling_ratio,
    time_polyhankel,
    time_traditional_fft,
)
from repro.utils.shapes import ConvShape


def shape(size: int, kernel: int = 3) -> ConvShape:
    return ConvShape((size, size), (kernel, kernel), n=1, c=1, f=1,
                     padding=kernel // 2)


class TestExpressions:
    @pytest.mark.parametrize("row", TIME_ROWS,
                             ids=[r.method.value for r in TIME_ROWS])
    def test_time_expressions_positive_and_growing(self, row):
        small, large = shape(16), shape(64)
        assert row.symbolic(small) > 0
        assert row.symbolic(large) > row.symbolic(small)

    @pytest.mark.parametrize("row", SPACE_ROWS,
                             ids=[r.method.value for r in SPACE_ROWS])
    def test_space_expressions_positive_and_growing(self, row):
        small, large = shape(16), shape(64)
        assert row.symbolic(small) > 0
        assert row.symbolic(large) > row.symbolic(small)

    def test_polyhankel_beats_traditional_fft_asymptotically(self):
        # The paper's core claim at expression level: PolyHankel's 1-D
        # transform term grows slower than the traditional 2-D FFT's.
        s = shape(128, kernel=5)
        assert time_polyhankel(s) < time_traditional_fft(s)


class TestScalingRatio:
    @pytest.mark.parametrize("row", TIME_ROWS,
                             ids=[r.method.value for r in TIME_ROWS])
    def test_symbolic_tracks_measured_growth(self, row):
        # The counter models implement the table expressions, so growth
        # factors (which cancel dropped constants) agree loosely.
        sym, meas = scaling_ratio(row, shape(16), shape(64))
        assert sym > 1 and meas > 1
        assert 0.2 < sym / meas < 5.0

    def test_ratio_of_same_shape_is_one(self):
        row = TIME_ROWS[0]
        sym, meas = scaling_ratio(row, shape(16), shape(16))
        assert sym == pytest.approx(1.0)
        assert meas == pytest.approx(1.0)


class TestComplexityReport:
    def test_one_line_per_method(self):
        report = complexity_report(TIME_ROWS, [shape(16), shape(32),
                                               shape(64)])
        lines = report.splitlines()
        assert len(lines) == 1 + len(TIME_ROWS)
        for row in TIME_ROWS:
            assert any(line.startswith(row.method.value)
                       for line in lines[1:])

    def test_growth_columns_per_sweep_point(self):
        report = complexity_report(SPACE_ROWS, [shape(16), shape(32),
                                                shape(64)])
        # Two non-base sweep points -> two sym/meas growth cells per row.
        polyhankel_line = next(
            line for line in report.splitlines()
            if line.startswith(A.POLYHANKEL.value))
        assert polyhankel_line.count("/") == 2
