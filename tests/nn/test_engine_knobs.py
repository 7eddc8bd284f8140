"""A knob the chosen route does not accept raises, for every op.

Engine knobs (``workers``, ``strategy``, ``backend``, ...) reach the
route the dispatch picks; none is filtered or dropped on the way, so a
knob that route cannot take fails loudly instead of being ignored.
"""

import numpy as np
import pytest

from repro.nn import functional as F

RNG = np.random.default_rng(0)
X1, W1 = RNG.standard_normal((1, 2, 9)), RNG.standard_normal((2, 2, 3))
X2, W2 = RNG.standard_normal((1, 2, 8, 8)), RNG.standard_normal(
    (2, 2, 3, 3))
X3, W3 = RNG.standard_normal((1, 2, 4, 4, 4)), RNG.standard_normal(
    (2, 2, 2, 2, 2))

CALLS = {
    "conv2d-gemm-workers": lambda: F.conv2d(X2, W2, algorithm="gemm",
                                            workers=2),
    "conv2d-bogus-strategy": lambda: F.conv2d(X2, W2, strategy="bogus"),
    "conv1d-gemm-workers": lambda: F.conv1d(X1, W1, algorithm="gemm",
                                            workers=2),
    "conv1d-bogus-strategy": lambda: F.conv1d(X1, W1, strategy="bogus"),
    "conv3d-bogus-strategy": lambda: F.conv3d(X3, W3, strategy="bogus"),
    "conv3d-gemm-workers": lambda: F.conv3d(X3, W3, algorithm="gemm",
                                            workers=2),
    "conv3d-naive-backend": lambda: F.conv3d(X3, W3, algorithm="naive",
                                             backend="numpy"),
    "conv_transpose2d-workers": lambda: F.conv_transpose2d(X2, W2,
                                                           workers=2),
    "conv_transpose2d-naive-workers": lambda: F.conv_transpose2d(
        X2, W2, algorithm="naive", workers=2),
    "conv3d-bogus-layout": lambda: F.conv3d(X3, W3, layout="bogus"),
    # The spectrum-layout knob is gone; its old values are unknown too.
    "conv2d-layout-interleaved": lambda: F.conv2d(X2, W2,
                                                  layout="interleaved"),
}


@pytest.mark.parametrize("name", CALLS)
def test_a_knob_the_route_cannot_take_raises(name):
    with pytest.raises((TypeError, ValueError)):
        CALLS[name]()


def test_a_knob_the_route_takes_still_runs():
    want = F.conv3d(X3, W3)
    assert np.array_equal(F.conv3d(X3, W3, backend="numpy"), want)
    assert np.array_equal(F.conv3d(X3, W3, workers=2), want)
    np.testing.assert_allclose(F.conv3d(X3, W3, strategy="merge"), want,
                               atol=1e-12)
    np.testing.assert_allclose(F.conv1d(X1, W1, strategy="merge"),
                               F.conv1d(X1, W1), atol=1e-12)
