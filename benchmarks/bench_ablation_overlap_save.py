"""Ablation: overlap-save block streaming vs one monolithic FFT per image.

Sec. 3.2 adopts overlap-save for batching.  The tradeoff: streamed blocks
keep the FFT size tied to the kernel vector (small, cache-friendly) but
discard the block overlap; the monolithic path transforms each padded
image once at full length.  Both run through the registry: ``polyhankel``
is the monolithic path, ``polyhankel_os`` the engine's ``overlap_save``
strategy at the cost model's block size.
"""

import time

import numpy as np
import pytest

from repro.baselines.registry import convolve
from repro.core.multichannel import get_plan
from repro.core.planning import overlap_save_blocks, polyhankel_block_size
from repro.utils.random import random_problem
from repro.utils.shapes import ConvShape

SHAPE = ConvShape((32, 32), (3, 3), n=8, c=2, f=2, padding=1)

#: Ablation arm -> registry algorithm.
ALGORITHMS = {"monolithic": "polyhankel", "overlap_save": "polyhankel_os"}

#: The measured crossover: 64x64 images, kernels 3, 9 and 21.
KERNELS = (3, 9, 21)


def _run(impl: str, x, w, padding):
    return convolve(x, w, algorithm=ALGORITHMS[impl], padding=padding)


def _best_of_3_ms(impl: str, shape: ConvShape) -> float:
    x, w = random_problem(shape)
    _run(impl, x, w, shape.padding)                 # warm plan + spectrum
    times = []
    for _ in range(3):
        start = time.perf_counter()
        _run(impl, x, w, shape.padding)
        times.append((time.perf_counter() - start) * 1e3)
    return min(times)


@pytest.mark.parametrize("impl", list(ALGORITHMS))
def test_execution_strategy_wallclock(benchmark, impl):
    x, w = random_problem(SHAPE)
    benchmark.pedantic(lambda: _run(impl, x, w, SHAPE.padding),
                       rounds=3, iterations=1, warmup_rounds=1)


def test_block_size_tracks_kernel_not_input(benchmark, record_result):
    """The paper's Fig. 4 mechanism: the OS FFT size is set by the kernel
    vector, so it is invariant to input size and grows with kernel size.
    Beside the modeled sizes, the measured best-of-3 wall clock of both
    arms per kernel shows where streaming stops paying on this host."""
    def sizes():
        by_input = [polyhankel_block_size(
            ConvShape((s, 64), (3, 3))) for s in (16, 64, 256)]
        by_kernel = [polyhankel_block_size(
            ConvShape((64, 64), (k, k))) for k in KERNELS]
        return by_input, by_kernel

    by_input, by_kernel = benchmark.pedantic(sizes, rounds=1, iterations=1)
    lines = [f"block size by input height (iw=64, k=3): {by_input}",
             f"block size by kernel size (64x64): {by_kernel}",
             "measured best-of-3 ms, 64x64, n=4, c=8, f=8, padding k//2:"]
    for k in KERNELS:
        shape = ConvShape((64, 64), (k, k), n=4, c=8, f=8, padding=k // 2)
        mono = _best_of_3_ms("monolithic", shape)
        streamed = _best_of_3_ms("overlap_save", shape)
        nfft, _, blocks = overlap_save_blocks(shape)
        lines.append(
            f"  k={k:<2}  monolithic {mono:7.2f} ms (nfft "
            f"{get_plan(shape).nfft})  overlap-save {streamed:7.2f} ms "
            f"({blocks} x {nfft})  ratio {streamed / mono:.2f}")
    record_result("ablation_overlap_save", "\n".join(lines))

    assert len(set(by_input)) == 1          # invariant to input size
    assert by_kernel == sorted(by_kernel)   # grows with kernel size
    assert by_kernel[-1] > by_kernel[0]


def test_equivalence_across_batch_sizes(benchmark):
    results = []

    def run():
        for n in (1, 3, 8):
            shape = SHAPE.with_(n=n)
            x, w = random_problem(shape, seed=n)
            results.append((_run("monolithic", x, w, 1),
                            _run("overlap_save", x, w, 1)))

    benchmark.pedantic(run, rounds=1, iterations=1)
    for a, b in results:
        np.testing.assert_allclose(a, b, atol=1e-8)
