"""Every front door returns the same bits for the same op and algorithm.

One table of ``(op, algorithm)`` cases runs through each way into the
library — the layer, the :mod:`repro.nn.functional` op, that op inside
:func:`repro.guard.guarded`, :func:`repro.serve.pool.execute_conv` with the
guard off and on, and the :mod:`repro.nn.autograd` forward — and every
result must be ``np.array_equal`` to the layer's.  The two servers,
:class:`~repro.serve.ConvServer` and :class:`~repro.serve.ClusterServer`,
must return the functional op's bits for every op under PolyHankel, GEMM
and the naive reference, and so must a ``ConvServer`` whose selection
bandit is on and pinned to one arm.  The module also pins
the calls that must keep raising ``ValueError``, the layers' seeded He
initialization and the ``repro algorithms`` support matrix.
"""

import numpy as np
import pytest

from repro.baselines.registry import fallback_chain
from repro.cli import main as cli_main
from repro.guard.state import guarded
from repro.nn import autograd as ag
from repro.nn import functional as F
from repro.nn.layers import Conv1d, Conv2d, Conv3d, ConvTranspose2d
from repro.selection.bandit import (
    BanditConfig,
    disable_bandit,
    enable_bandit,
    key_digest,
)
from repro.serve import ClusterServer, ConvServer
from repro.serve.pool import execute_conv
from repro.utils.shapes import ConvShape

#: Per op: layer class, functional op, autograd op, input shape, layer
#: constructor arguments (after in/out channels and kernel size).
OPS = {
    "conv2d": (Conv2d, F.conv2d, ag.conv2d, (2, 4, 9, 8),
               dict(padding=(1, 0, 2, 1), groups=2)),
    "conv1d": (Conv1d, F.conv1d, ag.conv1d, (2, 4, 13),
               dict(padding=(1, 2), stride=2, dilation=2, groups=2)),
    "conv3d": (Conv3d, F.conv3d, ag.conv3d, (2, 4, 5, 6, 4),
               dict(padding=1, stride=(1, 2, 1), groups=2)),
    "conv_transpose2d": (ConvTranspose2d, F.conv_transpose2d,
                         ag.conv_transpose2d, (2, 4, 5, 4),
                         dict(padding=1, stride=2, output_padding=1,
                              groups=2)),
}

CASES = [("conv2d", algo) for algo in (
    "polyhankel", "polyhankel_os", "gemm", "implicit_precomp_gemm", "fft",
    "winograd", "naive")] + [
    (op, algo) for op in ("conv1d", "conv3d", "conv_transpose2d")
    for algo in ("polyhankel", "polyhankel_os", "gemm", "naive")]


#: The served subset of CASES: every op under three algorithms.
SERVED = [(op, algo) for op, algo in CASES
          if algo in ("polyhankel", "gemm", "naive")]


def _layer_problem(op, algorithm):
    """A seeded layer of *op* with a bias, and an input for it."""
    layer_cls, _, _, x_shape, params = OPS[op]
    rng = np.random.default_rng(7)
    layer = layer_cls(4, 6, 3, algorithm=algorithm, rng=rng, **params)
    layer.bias = rng.standard_normal(6)
    return layer, rng.standard_normal(x_shape)


def _doors(op, algorithm):
    _, f_op, ag_op, _, params = OPS[op]
    layer, x = _layer_problem(op, algorithm)
    w, b = layer.weight, layer.bias
    serve_params = dict(params, op=op, algorithm=algorithm)
    doors = {"layer": layer(x),
             "functional": f_op(x, w, b, algorithm=algorithm, **params)}
    with guarded():
        doors["guarded"] = f_op(x, w, b, algorithm=algorithm, **params)
    doors["serve"] = execute_conv(x, w, b, **serve_params)
    with guarded():
        doors["serve_guarded"] = execute_conv(x, w, b, **serve_params)
    doors["autograd"] = ag_op(ag.Tensor(x), ag.parameter(w),
                              ag.parameter(b), algorithm=algorithm,
                              **params).data
    return doors


@pytest.mark.parametrize("op,algorithm", CASES,
                         ids=[f"{op}-{algo}" for op, algo in CASES])
def test_every_door_returns_the_same_bits(op, algorithm):
    doors = _doors(op, algorithm)
    want = doors.pop("layer")
    for door, got in doors.items():
        assert got.shape == want.shape, door
        assert np.array_equal(got, want), door


@pytest.fixture(scope="module")
def servers():
    """Both servers, shared by every served case.  The ConvServer's two
    pool workers shard a lone request along the batch axis."""
    with ConvServer(workers=2) as conv, \
            ClusterServer(workers=1, max_batch=8) as cluster:
        yield {"ConvServer": conv, "ClusterServer": cluster}


@pytest.mark.parametrize("op,algorithm", SERVED,
                         ids=[f"{op}-{algo}" for op, algo in SERVED])
def test_servers_return_the_functional_bits(servers, op, algorithm):
    _, f_op, _, _, params = OPS[op]
    layer, x = _layer_problem(op, algorithm)
    w, b = layer.weight, layer.bias
    want = f_op(x, w, b, algorithm=algorithm, **params)
    for door, server in servers.items():
        got = server.submit(x, w, b, op=op, algorithm=algorithm,
                            **params).result(60)
        assert got.shape == want.shape, door
        assert np.array_equal(got, want), door


@pytest.mark.parametrize("pin", ["polyhankel", "gemm", "naive"])
def test_bandit_door_returns_its_pinned_arm_bits(servers, pin):
    """With the selection bandit on (apply mode, no exploration) and
    every arm of the served key poisoned but *pin*, ConvServer serves the
    pinned arm whatever was requested: the functional op's bits for it."""
    _, f_op, _, _, params = OPS["conv2d"]
    layer, x = _layer_problem("conv2d", pin)
    w, b = layer.weight, layer.bias
    want = f_op(x, w, b, algorithm=pin, **params)
    requested = "gemm" if pin == "polyhankel" else "polyhankel"
    shape = ConvShape.from_tensors(x.shape, w.shape, **params)
    digest = key_digest(op="conv2d", input_chw=x.shape[1:],
                        weight_shape=w.shape, dtype=str(x.dtype),
                        stride=1, dilation=1, strategy="sum", backend=None,
                        **params)
    bandit = enable_bandit(BanditConfig(apply=True, explore_fraction=0.0))
    try:
        bandit.decide(digest, shape, requested)  # seeds the key's arms
        for arm in fallback_chain(shape, primary=requested):
            if arm.value != pin:
                bandit.record_shadow_failure(digest, arm.value, "error")
        assert bandit.best(digest) == pin
        got = servers["ConvServer"].submit(
            x, w, b, op="conv2d", algorithm=requested,
            **params).result(60)
        assert bandit.best(digest) == pin
    finally:
        disable_bandit()
    assert got.shape == want.shape
    assert np.array_equal(got, want)


def test_unsupported_calls_raise_value_error():
    rng = np.random.default_rng(3)
    x2, w2 = rng.standard_normal((1, 2, 8, 8)), rng.standard_normal(
        (2, 2, 3, 3))
    x1, w1 = rng.standard_normal((1, 2, 8)), rng.standard_normal((2, 2, 3))
    x3, w3 = rng.standard_normal((1, 2, 4, 4, 4)), rng.standard_normal(
        (2, 2, 2, 2, 2))
    calls = [
        lambda: F.conv2d(x2, w2, stride=2, algorithm="winograd"),
        lambda: F.conv3d(x3, w3, algorithm="fft"),
        lambda: F.conv1d(x1, w1, output_padding=1),
        lambda: F.conv3d(x3, w3, output_padding=1),
        lambda: F.conv_transpose2d(x2, w2, padding="same"),
    ]
    for call in calls:
        with pytest.raises(ValueError):
            call()


@pytest.mark.parametrize("layer_cls,ndim,transposed", [
    (Conv2d, 2, False), (Conv1d, 1, False), (Conv3d, 3, False),
    (ConvTranspose2d, 2, True)], ids=lambda v: getattr(v, "__name__", v))
def test_layers_draw_seeded_he_weights(layer_cls, ndim, transposed):
    c_in, c_out, k, groups = 4, 6, 3, 2
    layer = layer_cls(c_in, c_out, k, groups=groups,
                      rng=np.random.default_rng(5))
    lead = (c_in, c_out // groups) if transposed else (c_out,
                                                        c_in // groups)
    shape = lead + (k,) * ndim
    fan_in = (c_in // groups) * k ** ndim
    want = np.random.default_rng(5).standard_normal(shape) * np.sqrt(
        2 / fan_in)
    assert np.array_equal(layer.weight, want)


ALGORITHMS_MATRIX = (
    "algorithm                  1d   2d   3d  t2d  description\n"
    "naive                       y    y    y    y  direct definition-following "
    "convolution (reference)\n"
    "gemm                        y    y    y    y  explicit im2col expansion + GEMM\n"
    "implicit_gemm               y    y    -    y  GEMM with the patch gather fused "
    "into the contraction\n"
    "implicit_precomp_gemm       y    y    -    y  implicit GEMM with precomputed "
    "gather offset tables\n"
    "fft                         y    y    -    y  monolithic 2D-FFT convolution\n"
    "fft_tiling                  y    y    -    y  tiled 2D-FFT convolution (2D "
    "overlap-save)\n"
    "winograd                    y    y    -    y  Winograd F(2x2, KhxKw) with "
    "generated transforms\n"
    "winograd_nonfused           y    y    -    y  Winograd with materialized "
    "transform workspaces\n"
    "finegrain_fft               y    y    -    y  Zhang & Li's per-row block-FFT "
    "method (PACT'20)\n"
    "polyhankel                  y    y    y    y  this paper: "
    "polynomial-multiplication convolution, one 1D FFT\n"
    "polyhankel_os               y    y    y    y  PolyHankel streamed through "
    "overlap-save FFT blocks\n"
)


def test_algorithms_command_prints_the_support_matrix(capsys):
    assert cli_main(["algorithms"]) == 0
    assert capsys.readouterr().out == ALGORITHMS_MATRIX
