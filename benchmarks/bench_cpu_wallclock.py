"""Real wall-clock microbenchmarks of the NumPy implementations.

These complement the simulated-GPU figures: they time the library's actual
numeric kernels on this machine.  Absolute numbers are CPU-bound and not
comparable to the paper's GPUs, but they make regressions in the
implementations visible.
"""

import pytest

from repro.baselines.registry import ConvAlgorithm as A
from repro.baselines.registry import convolve, supports
from repro.utils.random import random_problem
from repro.utils.shapes import ConvShape

SHAPE = ConvShape((64, 64), (5, 5), n=4, c=3, f=8, padding=2)
SMALL = ConvShape((16, 16), (3, 3), n=4, c=3, f=8, padding=1)

ALGOS = [A.GEMM, A.IMPLICIT_GEMM, A.IMPLICIT_PRECOMP_GEMM, A.FFT,
         A.FFT_TILING, A.WINOGRAD, A.FINEGRAIN_FFT, A.POLYHANKEL,
         A.POLYHANKEL_OS]


@pytest.mark.parametrize("algo", ALGOS, ids=lambda a: a.value)
def test_conv_wallclock_64(benchmark, algo):
    x, w = random_problem(SHAPE)
    benchmark.pedantic(
        lambda: convolve(x, w, algorithm=algo, padding=SHAPE.padding),
        rounds=3, iterations=1, warmup_rounds=1,
    )


@pytest.mark.parametrize("algo", [A.POLYHANKEL, A.GEMM, A.WINOGRAD],
                         ids=lambda a: a.value)
def test_conv_wallclock_small(benchmark, algo):
    x, w = random_problem(SMALL)
    benchmark.pedantic(
        lambda: convolve(x, w, algorithm=algo, padding=SMALL.padding),
        rounds=5, iterations=2, warmup_rounds=1,
    )


def test_polyhankel_plan_reuse_wallclock(benchmark):
    """The plan-cached inference path: weight transformed once."""
    from repro.core.multichannel import PolyHankelPlan

    x, w = random_problem(SHAPE)
    plan = PolyHankelPlan(SHAPE)
    w_hat = plan.transform_weight(w)
    benchmark.pedantic(lambda: plan.execute(x, w_hat),
                       rounds=5, iterations=1, warmup_rounds=1)


def test_builtin_fft_backend_wallclock(benchmark):
    """The from-scratch FFT substrate end to end (slower than pocketfft,
    but self-contained)."""
    x, w = random_problem(SMALL)
    benchmark.pedantic(
        lambda: convolve(x, w, algorithm=A.POLYHANKEL,
                         padding=SMALL.padding, backend="builtin"),
        rounds=3, iterations=1, warmup_rounds=1,
    )
