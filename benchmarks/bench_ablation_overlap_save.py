"""Ablation: overlap-save batch streaming vs one monolithic FFT per image.

Sec. 3.2 adopts overlap-save for batching.  The tradeoff: streamed blocks
keep the FFT size tied to the kernel vector (small, cache-friendly) but
discard the block overlap; the monolithic path transforms each padded
image once at full length.
"""

import numpy as np
import pytest

from repro.core.multichannel import conv2d_polyhankel
from repro.core.overlap_save import conv2d_polyhankel_os
from repro.perfmodel.counters import polyhankel_block_size
from repro.utils.random import random_problem
from repro.utils.shapes import ConvShape

SHAPE = ConvShape((32, 32), (3, 3), n=8, c=2, f=2, padding=1)


@pytest.mark.parametrize("impl", ["monolithic", "overlap_save"])
def test_execution_strategy_wallclock(benchmark, impl):
    x, w = random_problem(SHAPE)
    fn = conv2d_polyhankel if impl == "monolithic" else conv2d_polyhankel_os
    benchmark.pedantic(lambda: fn(x, w, padding=SHAPE.padding),
                       rounds=3, iterations=1, warmup_rounds=1)


def test_block_size_tracks_kernel_not_input(benchmark, record_result):
    """The paper's Fig. 4 mechanism: the OS FFT size is set by the kernel
    vector, so it is invariant to input size and grows with kernel size."""
    def sizes():
        by_input = [polyhankel_block_size(
            ConvShape((s, 64), (3, 3))) for s in (16, 64, 256)]
        by_kernel = [polyhankel_block_size(
            ConvShape((64, 64), (k, k))) for k in (3, 9, 21)]
        return by_input, by_kernel

    by_input, by_kernel = benchmark.pedantic(sizes, rounds=1, iterations=1)
    record_result("ablation_overlap_save",
                  f"block size by input height (iw=64, k=3): {by_input}\n"
                  f"block size by kernel size (64x64): {by_kernel}")

    assert len(set(by_input)) == 1          # invariant to input size
    assert by_kernel == sorted(by_kernel)   # grows with kernel size
    assert by_kernel[-1] > by_kernel[0]


def test_equivalence_across_batch_sizes(benchmark):
    results = []

    def run():
        for n in (1, 3, 8):
            shape = SHAPE.with_(n=n)
            x, w = random_problem(shape, seed=n)
            a = conv2d_polyhankel(x, w, padding=1)
            b = conv2d_polyhankel_os(x, w, padding=1)
            results.append((a, b))

    benchmark.pedantic(run, rounds=1, iterations=1)
    for a, b in results:
        np.testing.assert_allclose(a, b, atol=1e-8)
