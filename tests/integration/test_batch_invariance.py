"""A PolyHankel batch returns each image's single-image bits.

Every stage of the sum-strategy pipeline works on one image at a time,
the pointwise channel contraction included, so row ``i`` of a batch-``n``
call is ``np.array_equal`` to the call on image ``i`` alone, whatever
``n`` is.  The overlap-save strategy (``polyhankel_os``) runs the same
pipeline on per-image blocks and keeps the same property.  The serving
layer leans on this: a request coalesced with companions must come back
with the bits the caller would have got from a direct single-image call.
"""

from functools import partial

import numpy as np
import pytest

from repro.nn import functional as F
from repro.serve import ConvServer
from repro.serve.router import ClusterServer

#: (channels, filters, spatial extents): the c64 8x8 layers of the Sec. 4.2
#: network and the c16 32x32 serving shape, both k3 with padding 1.
CONV2D = [
    pytest.param(64, 64, (8, 8), id="c64-8x8"),
    pytest.param(16, 16, (32, 32), id="c16-32x32"),
]


def _problem(c, f, extents, n=8, seed=5):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, c) + extents)
    w = rng.standard_normal((f, c) + (3,) * len(extents))
    return x, w


def _assert_rows_are_single_calls(conv, x, w, batches=(2, 3, 4, 8)):
    singles = [conv(x[i:i + 1], w, padding=1) for i in range(len(x))]
    for n in batches:
        out = conv(x[:n], w, padding=1)
        for i in range(n):
            assert np.array_equal(out[i:i + 1], singles[i]), (n, i)


@pytest.mark.parametrize("c,f,extents", CONV2D)
def test_conv2d_batch_rows_equal_single_image_calls(c, f, extents):
    x, w = _problem(c, f, extents)
    _assert_rows_are_single_calls(F.conv2d, x, w)


def test_conv1d_batch_rows_equal_single_image_calls():
    x, w = _problem(32, 32, (128,))
    _assert_rows_are_single_calls(F.conv1d, x, w)


def test_conv3d_batch_rows_equal_single_image_calls():
    x, w = _problem(16, 16, (8, 8, 8))
    _assert_rows_are_single_calls(F.conv3d, x, w, batches=(2, 8))


@pytest.mark.parametrize("conv,c,f,extents", [
    pytest.param(F.conv1d, 32, 32, (128,), id="conv1d"),
    pytest.param(F.conv2d, 16, 16, (32, 32), id="conv2d-c16-32x32"),
    pytest.param(F.conv3d, 16, 16, (8, 8, 8), id="conv3d"),
])
def test_overlap_save_batch_rows_equal_single_image_calls(conv, c, f,
                                                          extents):
    """``polyhankel_os`` streams each image through its own blocks, and
    each block is one contraction row, so its batches keep the bits too."""
    x, w = _problem(c, f, extents)
    _assert_rows_are_single_calls(
        partial(conv, algorithm="polyhankel_os"), x, w)


@pytest.mark.parametrize("c,f,extents", CONV2D)
def test_conv_server_coalesced_batch_equals_single_calls(c, f, extents):
    """Eight single-image requests under a one-minute wait: only the size
    trigger can dispatch them, so they run as one coalesced batch of 8."""
    x, w = _problem(c, f, extents)
    with ConvServer(max_batch=8, max_wait_ms=60_000, workers=1) as server:
        futures = [server.submit(x[i:i + 1], w, padding=1)
                   for i in range(len(x))]
        outs = [future.result(timeout=30) for future in futures]
    for i, out in enumerate(outs):
        assert np.array_equal(out, F.conv2d(x[i:i + 1], w, padding=1)), i


def test_cluster_server_coalesced_batch_equals_single_calls():
    x, w = _problem(16, 16, (32, 32))
    with ClusterServer(workers=1, slots=8, slot_bytes=1 << 20,
                       max_batch=8, max_wait_ms=60_000) as server:
        futures = [server.submit(x[i:i + 1], w, padding=1)
                   for i in range(len(x))]
        outs = [future.result(timeout=60) for future in futures]
    for i, out in enumerate(outs):
        assert np.array_equal(out, F.conv2d(x[i:i + 1], w, padding=1)), i
