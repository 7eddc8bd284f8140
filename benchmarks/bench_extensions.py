"""Wall-clock benchmarks for the library extensions beyond the paper:
1D/3D convolution, gradient computation, autograd training steps, and the
auto/tuned dispatch paths.
"""

import numpy as np
import pytest

from repro.core.ndim import conv1d_polyhankel, conv3d_polyhankel
from repro.nn import autograd as ag
from repro.nn.grad import convnd_backward_input, convnd_backward_weight
from repro.utils.random import random_problem
from repro.utils.shapes import ConvShape

rng = np.random.default_rng(1)


def test_conv1d_wallclock(benchmark):
    x = rng.standard_normal((8, 4, 4096))
    w = rng.standard_normal((8, 4, 31))
    benchmark.pedantic(lambda: conv1d_polyhankel(x, w, padding=15),
                       rounds=3, iterations=1, warmup_rounds=1)


def test_conv3d_wallclock(benchmark):
    x = rng.standard_normal((2, 2, 12, 24, 24))
    w = rng.standard_normal((4, 2, 3, 3, 3))
    benchmark.pedantic(lambda: conv3d_polyhankel(x, w, padding=1),
                       rounds=3, iterations=1, warmup_rounds=1)


@pytest.mark.parametrize("which", ["input", "weight"])
def test_backward_wallclock(benchmark, which):
    shape = ConvShape((32, 32), (3, 3), n=4, c=8, f=8, padding=1)
    x, w = random_problem(shape)
    g = rng.standard_normal(shape.output_shape())
    if which == "input":
        fn = lambda: convnd_backward_input(g, w, x.shape, 1, 1)
    else:
        fn = lambda: convnd_backward_weight(g, x, (3, 3), 1, 1)
    benchmark.pedantic(fn, rounds=3, iterations=1, warmup_rounds=1)


def test_training_step_wallclock(benchmark):
    """One full forward+backward+SGD step of a small CNN, every
    convolution through PolyHankel."""
    x = rng.standard_normal((8, 1, 16, 16))
    labels = rng.integers(0, 3, size=8)
    w1 = ag.parameter(rng.standard_normal((4, 1, 3, 3)) * 0.3)
    w2 = ag.parameter(rng.standard_normal((3, 4 * 8 * 8)) * 0.1)
    opt = ag.SGD([w1, w2], lr=0.01)

    def step():
        opt.zero_grad()
        h = ag.relu(ag.conv2d(ag.Tensor(x), w1, padding=1))
        h = ag.max_pool2d(h, 2)
        loss = ag.cross_entropy(ag.linear(ag.flatten(h), w2), labels)
        loss.backward()
        opt.step()
        return float(loss.data)

    benchmark.pedantic(step, rounds=3, iterations=1, warmup_rounds=1)


def test_auto_dispatch_overhead(benchmark):
    """algorithm='auto' adds only the O(1) rule evaluation."""
    from repro.nn import functional as F

    shape = ConvShape((24, 24), (3, 3), n=2, c=2, f=4, padding=1)
    x, w = random_problem(shape)
    benchmark.pedantic(
        lambda: F.conv2d(x, w, padding=1, algorithm="auto"),
        rounds=5, iterations=2, warmup_rounds=1,
    )


def test_plan_cache_ablation(benchmark, record_result):
    """Plan reuse: repeated PolyHankel calls on one shape skip replanning
    and (for frozen weights) the kernel transform."""
    import time

    from repro.core.multichannel import (
        PolyHankelPlan, clear_plan_cache, conv2d_polyhankel,
    )

    shape = ConvShape((48, 48), (3, 3), n=4, c=4, f=8, padding=1)
    x, w = random_problem(shape)

    def measure():
        clear_plan_cache()
        start = time.perf_counter()
        conv2d_polyhankel(x, w, padding=1)
        cold = time.perf_counter() - start
        start = time.perf_counter()
        conv2d_polyhankel(x, w, padding=1)
        warm = time.perf_counter() - start
        plan = PolyHankelPlan(shape)
        w_hat = plan.transform_weight(w)
        start = time.perf_counter()
        plan.execute(x, w_hat)
        frozen = time.perf_counter() - start
        return cold, warm, frozen

    cold, warm, frozen = benchmark.pedantic(measure, rounds=1, iterations=1)
    record_result(
        "ablation_plan_cache",
        f"cold call (plan + weight FFT + exec): {cold * 1e3:.3f} ms\n"
        f"warm call (cached plan):              {warm * 1e3:.3f} ms\n"
        f"frozen weights (exec only):           {frozen * 1e3:.3f} ms",
    )
    assert frozen <= cold * 1.5  # generous: timing noise on shared CPU
