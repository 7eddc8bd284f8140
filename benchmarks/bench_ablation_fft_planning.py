"""Ablation: FFT size policy (Sec. 3.2's padding discussion).

cuFFT is fastest on 7-smooth sizes but the authors found power-of-two
padding best overall; this ablation compares the policies on transform
size overhead and wall clock.
"""

import pytest

from repro.core.multichannel import conv2d_polyhankel
from repro.core.planning import plan_fft_size
from repro.utils.random import random_problem
from repro.utils.shapes import ConvShape

SHAPE = ConvShape((48, 48), (5, 5), n=2, c=3, f=4, padding=2)
POLICIES = ["pow2", "smooth7", "even"]


@pytest.mark.parametrize("policy", POLICIES)
def test_policy_wallclock(benchmark, policy):
    x, w = random_problem(SHAPE)
    benchmark.pedantic(
        lambda: conv2d_polyhankel(x, w, padding=SHAPE.padding,
                                  fft_policy=policy),
        rounds=3, iterations=1, warmup_rounds=1,
    )


def test_padding_overhead_by_policy(benchmark, record_result):
    """smooth7 always needs the least padding; pow2 the most; the pow2
    overhead is bounded by 2x (amortized much less)."""
    def overheads():
        rows = []
        for size in (24, 48, 96, 144, 224):
            shape = SHAPE.with_(extents=(size, size))
            need = shape.poly_input_len   # the cyclic transform bound
            rows.append((size, need,
                         {p: plan_fft_size(need, p) for p in POLICIES}))
        return rows

    rows = benchmark.pedantic(overheads, rounds=1, iterations=1)
    lines = ["size  cyclic_len  " + "  ".join(POLICIES)]
    for size, need, sizes in rows:
        lines.append(f"{size:<5} {need:<10} "
                     + "  ".join(str(sizes[p]) for p in POLICIES))
    record_result("ablation_fft_planning", "\n".join(lines))

    for _, need, sizes in rows:
        assert sizes["smooth7"] <= sizes["pow2"]
        assert need <= sizes["even"] <= need + 1
        assert sizes["pow2"] < 2 * need
