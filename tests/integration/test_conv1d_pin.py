"""conv1d returns the bits of the equivalent ``1 x L`` conv2d.

A length-L sequence is a ``1 x L`` image: the degree map, FFT size,
spectrum pipeline and gather are the same numbers either way, so the
PolyHankel conv1d must be ``np.array_equal`` to the conv2d call on the
singleton-height lift — for every channel strategy and FFT policy.  The
other any-rank algorithms, naive and GEMM, unroll the same taps in the
same order at either rank, so they are pinned the same way.
"""

import itertools

import numpy as np
import pytest

from repro.nn import functional as F
from repro.utils.shapes import ConvShape

#: One entry per algorithm route: PolyHankel under each channel strategy
#: and FFT policy, then naive and GEMM.  The sum-strategy ids keep the
#: names of the spectrum layouts the engine once offered; every sum case
#: now runs the one pipeline, each under a different FFT policy.
ENGINE = [
    pytest.param(dict(algorithm="polyhankel", strategy="sum",
                      fft_policy="pow2"), id="sum-planar"),
    pytest.param(dict(algorithm="polyhankel", strategy="sum",
                      fft_policy="exact"), id="sum-interleaved"),
    pytest.param(dict(algorithm="polyhankel", strategy="sum",
                      fft_policy="auto"), id="sum-auto"),
    pytest.param(dict(algorithm="polyhankel", strategy="merge"),
                 id="merge"),
    pytest.param(dict(algorithm="naive"), id="naive"),
    pytest.param(dict(algorithm="gemm"), id="gemm"),
]

PARAMS = [
    pytest.param(dict(padding=p, stride=s, dilation=d, groups=g),
                 id=f"p{p}-s{s}-d{d}-g{g}")
    for p, s, d, g in itertools.product(
        [0, 2, (1, 3), "same"], [1, 2], [1, 2], [1, 2])
]


@pytest.mark.parametrize("params", PARAMS)
@pytest.mark.parametrize("engine", ENGINE)
def test_conv1d_is_the_lifted_conv2d(engine, params):
    rng = np.random.default_rng(29)
    g = params["groups"]
    x = rng.standard_normal((3, 4, 19))
    w = rng.standard_normal((6, 4 // g, 3))
    (lo, hi), = ConvShape.from_tensors(x.shape, w.shape,
                                       **params).pad_pairs
    got = F.conv1d(x, w, **engine, **params)
    want = F.conv2d(x[:, :, None, :], w[:, :, None, :],
                    padding=(0, 0, lo, hi),
                    stride=(1, params["stride"]),
                    dilation=(1, params["dilation"]), groups=g,
                    **engine)[:, :, 0]
    assert np.array_equal(got, want)
