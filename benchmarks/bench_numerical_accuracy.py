"""Numerical accuracy of each algorithm (not in the paper, but the reason
cuDNN caps Winograd at 3x3: transform conditioning).

Measures max relative error against the direct float64 computation.  The
FFT-family methods stay near machine precision at any kernel size, while
Winograd's generated F(2, r) transforms lose digits as r grows — the
quantitative justification for the MAX_ALPHA guard and cuDNN's restriction.
"""

import numpy as np
import pytest

from repro.baselines.registry import ConvAlgorithm as A
from repro.baselines.registry import convolve, supports
from repro.utils.random import random_problem
from repro.utils.shapes import ConvShape


def relative_error(algorithm, shape: ConvShape) -> float:
    x, w = random_problem(shape)
    reference = convolve(x, w, algorithm=A.NAIVE, padding=shape.padding)
    out = convolve(x, w, algorithm=algorithm, padding=shape.padding)
    scale = np.abs(reference).max()
    return float(np.abs(out - reference).max() / scale)


def test_accuracy_by_algorithm(benchmark, record_result):
    shape = ConvShape((24, 24), (5, 5), n=2, c=3, f=4, padding=2)

    def measure():
        errors = {}
        for algo in (A.GEMM, A.IMPLICIT_GEMM, A.FFT, A.FFT_TILING,
                     A.WINOGRAD, A.FINEGRAIN_FFT, A.POLYHANKEL,
                     A.POLYHANKEL_OS):
            if supports(algo, shape):
                errors[algo] = relative_error(algo, shape)
        return errors

    errors = benchmark.pedantic(measure, rounds=1, iterations=1)
    text = "\n".join(f"{a.value:<22} {e:.3e}" for a, e in errors.items())
    record_result("numerical_accuracy_k5", f"max relative error, 24x24 "
                  f"input, 5x5 kernel:\n{text}")

    # Everything is acceptably accurate at this size...
    for algo, err in errors.items():
        assert err < 1e-6, algo
    # ...and the FFT-family methods sit near machine precision.
    for algo in (A.FFT, A.POLYHANKEL):
        assert errors[algo] < 1e-10


def test_winograd_error_grows_with_kernel_size(benchmark, record_result):
    def measure():
        rows = []
        for k in (2, 3, 5, 7):
            shape = ConvShape((20, 20), (k, k), n=1, c=2, f=2)
            rows.append((k, relative_error(A.WINOGRAD, shape),
                         relative_error(A.POLYHANKEL, shape)))
        return rows

    rows = benchmark.pedantic(measure, rounds=1, iterations=1)
    text = "kernel  winograd_err  polyhankel_err\n" + "\n".join(
        f"{k:<7} {we:.3e}     {pe:.3e}" for k, we, pe in rows
    )
    record_result("numerical_accuracy_winograd", text)

    wino = [we for _, we, _ in rows]
    poly = [pe for _, _, pe in rows]
    # Winograd loses accuracy with r (even with exact-rational transform
    # generation and well-conditioned points); PolyHankel does not.
    assert wino[-1] > 10 * wino[0]
    assert max(poly) < 1e-10
    assert wino[-1] > 10 * poly[-1]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_polyhankel_accuracy_by_dtype(benchmark, dtype):
    """Input dtype does not break the pipeline; float32 inputs keep
    ~float32-level agreement with the float64 reference."""
    shape = ConvShape((16, 16), (3, 3), n=2, c=2, f=2, padding=1)

    def measure():
        x, w = random_problem(shape, dtype=dtype)
        ref = convolve(np.asarray(x, np.float64),
                       np.asarray(w, np.float64),
                       algorithm=A.NAIVE, padding=1)
        out = convolve(x, w, algorithm=A.POLYHANKEL, padding=1)
        return float(np.abs(out - ref).max() / np.abs(ref).max())

    err = benchmark.pedantic(measure, rounds=1, iterations=1)
    assert err < (1e-5 if dtype == np.float32 else 1e-12)
