"""Integration: every algorithm agrees with every other on a shape grid."""

import itertools

import numpy as np
import pytest

from repro.baselines.registry import (
    ConvAlgorithm,
    convolve,
    list_algorithms,
    supports,
)
from repro.utils.random import random_problem
from repro.utils.shapes import ConvShape

GRID = [
    ConvShape((6, 6), (3, 3), n=1, c=1, f=1),
    ConvShape((9, 7), (3, 2), n=2, c=3, f=4, padding=1),
    ConvShape((8, 8), (5, 5), n=1, c=2, f=2, padding=2),
    ConvShape((11, 11), (3, 3), n=2, c=2, f=3, stride=2),
    ConvShape((7, 12), (1, 1), n=3, c=2, f=2),
    ConvShape((10, 10), (7, 7), n=1, c=1, f=2, padding=3),
]


@pytest.mark.parametrize("shape", GRID, ids=lambda s: f"{s.ih}x{s.iw}"
                         f"k{s.kh}x{s.kw}p{s.padding}s{s.stride}")
def test_all_capable_algorithms_agree(shape):
    x, w = random_problem(shape, seed=hash(shape) % 2 ** 31)
    results = {}
    for algo in list_algorithms():
        if supports(algo, shape):
            results[algo] = convolve(x, w, algorithm=algo,
                                     padding=shape.padding,
                                     stride=shape.stride)
    assert ConvAlgorithm.NAIVE in results
    reference = results[ConvAlgorithm.NAIVE]
    for algo, out in results.items():
        assert out.shape == shape.output_shape(), algo
        np.testing.assert_allclose(out, reference, atol=1e-6,
                                   err_msg=str(algo))


def test_pairwise_consistency_transitive(rng):
    """Spot-check pairwise closeness directly (tighter than via naive)."""
    shape = ConvShape((8, 8), (3, 3), n=2, c=2, f=2, padding=1)
    x, w = random_problem(shape, seed=99)
    outs = [
        convolve(x, w, algorithm=a, padding=1)
        for a in (ConvAlgorithm.POLYHANKEL, ConvAlgorithm.FFT,
                  ConvAlgorithm.GEMM)
    ]
    for a, b in itertools.combinations(outs, 2):
        np.testing.assert_allclose(a, b, atol=1e-8)


def test_float32_inputs_accepted(rng):
    x = rng.standard_normal((1, 2, 8, 8)).astype(np.float32)
    w = rng.standard_normal((2, 2, 3, 3)).astype(np.float32)
    got = convolve(x, w, algorithm="polyhankel", padding=1)
    ref = convolve(x, w, algorithm="naive", padding=1)
    np.testing.assert_allclose(got, ref, atol=1e-5)
