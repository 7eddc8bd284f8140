"""Ablation: the two multi-channel strategies of Sec. 3.2.

The paper chose "FFT each input channel individually and sum their outputs"
over "merge all input channels and FFT the merged polynomial" after finding
that larger FFTs cost more than the channel summation saves.  This ablation
reproduces that comparison, both analytically (FFT sizes) and in wall
clock.
"""

import numpy as np
import pytest

from repro.core.multichannel import PolyHankelPlan, conv2d_polyhankel
from repro.utils.random import random_problem
from repro.utils.shapes import ConvShape

SHAPE = ConvShape((32, 32), (3, 3), n=2, c=8, f=8, padding=1)


@pytest.mark.parametrize("strategy", ["sum", "merge"])
def test_strategy_wallclock(benchmark, strategy):
    x, w = random_problem(SHAPE)
    benchmark.pedantic(
        lambda: conv2d_polyhankel(x, w, padding=SHAPE.padding,
                                  strategy=strategy),
        rounds=3, iterations=1, warmup_rounds=1,
    )


def test_merge_needs_c_times_larger_fft(benchmark, record_result):
    """The analytic core of the paper's decision: the merged polynomial's
    FFT is ~C times the per-channel FFT."""
    def plan_sizes():
        rows = []
        for c in (1, 2, 4, 8, 16):
            shape = SHAPE.with_(c=c, f=c)
            nfft_sum = PolyHankelPlan(shape, strategy="sum").nfft
            nfft_merge = PolyHankelPlan(shape, strategy="merge").nfft
            rows.append((c, nfft_sum, nfft_merge))
        return rows

    rows = benchmark.pedantic(plan_sizes, rounds=1, iterations=1)
    text = "channels  nfft_sum  nfft_merge\n" + "\n".join(
        f"{c:<9} {a:<9} {b}" for c, a, b in rows
    )
    record_result("ablation_channel_merge", text)

    for c, nfft_sum, nfft_merge in rows:
        assert nfft_merge >= c * nfft_sum / 2, c
        # n log n: the merged transform does strictly more work per output
        # than C independent smaller transforms once C > 1.
        if c > 1:
            merged_work = nfft_merge * np.log2(nfft_merge)
            summed_work = c * nfft_sum * np.log2(nfft_sum)
            assert merged_work > summed_work


def test_strategies_numerically_identical(benchmark):
    x, w = random_problem(SHAPE)
    out = benchmark.pedantic(
        lambda: (conv2d_polyhankel(x, w, padding=1, strategy="sum"),
                 conv2d_polyhankel(x, w, padding=1, strategy="merge")),
        rounds=1, iterations=1,
    )
    np.testing.assert_allclose(out[0], out[1], atol=1e-8)
