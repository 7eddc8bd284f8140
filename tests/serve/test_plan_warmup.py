"""Worker plan warm-up covers every forward PolyHankel op.

With a weight's first shipment the router sends the family's
:class:`~repro.core.planning.PlanSpec`, and the worker builds the plan
before the first conv order arrives.  The plan is rank-generic, so the
spec must name the very plan the engine runs for conv1d, conv2d and
conv3d alike; the transposed op runs its adjoint problem and ships none.
"""

import numpy as np
import pytest

from repro.baselines.registry import op_shape
from repro.core.multichannel import get_plan
from repro.nn import functional as F
from repro.serve.coalescer import coalesce_key
from repro.serve.router import ClusterServer

CASES = {
    "conv1d": ((2, 4, 17), (6, 2, 3), dict(padding=1, groups=2)),
    "conv2d": ((2, 4, 9, 8), (6, 4, 3, 3), dict(stride=2)),
    "conv3d": ((2, 4, 5, 6, 4), (6, 4, 2, 3, 2), dict(padding=1)),
}


@pytest.fixture(scope="module")
def server():
    with ClusterServer(workers=1, slots=8, slot_bytes=1 << 18) as srv:
        yield srv


@pytest.mark.parametrize("op", CASES)
def test_spec_resolves_to_the_engine_plan(server, op):
    x_shape, w_shape, params = CASES[op]
    rng = np.random.default_rng(37)
    x, w = rng.standard_normal(x_shape), rng.standard_normal(w_shape)
    key = coalesce_key(x, w, op=op, **params)
    spec = server._plan_spec(key, x, w)
    assert spec is not None
    assert spec.resolve() is get_plan(op_shape(op, x_shape, w_shape,
                                               **params))


def test_transposed_op_ships_no_spec(server):
    rng = np.random.default_rng(37)
    x, w = rng.standard_normal((2, 4, 5, 5)), rng.standard_normal(
        (4, 2, 3, 3))
    key = coalesce_key(x, w, op="conv_transpose2d")
    assert server._plan_spec(key, x, w) is None


def test_served_conv3d_is_bit_exact(server):
    x_shape, w_shape, params = CASES["conv3d"]
    rng = np.random.default_rng(41)
    x, w = rng.standard_normal(x_shape), rng.standard_normal(w_shape)
    out = server.submit(x, w, op="conv3d", **params).result(60)
    assert np.array_equal(out, F.conv3d(x, w, **params))
