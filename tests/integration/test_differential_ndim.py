"""Cross-dimensional differential harness: every registered algorithm for
every operator family (conv1d / conv3d / conv_transpose2d) against the
rank-generic loop oracle in :mod:`tests.conftest`.

This is the acceptance gate for the N-dimensional degree-map extension:

- **Forward grids** — per-op parameter grids (per-axis stride/dilation,
  groups up to depthwise, symmetric/asymmetric/``"same"`` padding) run
  through :func:`repro.baselines.registry.convolve` for every algorithm
  whose ``supports`` predicate accepts the case; the predicate itself
  is also checked to be *honest* (a claimed-supported case must run, a
  rejected case must raise).
- **Adjoint identity** — ``<conv(x, w), y> == <x, conv_T(y, w~)>``: the
  transposed op must be the exact linear-algebra adjoint of the forward
  convolution, validated without any reference implementation at all.
- **Grid budget** — a guard test keeps the module inside the tier-1 time
  budget when someone grows the grids.
"""

import itertools

import numpy as np
import pytest

from repro.baselines.registry import (
    ConvAlgorithm,
    ConvOp,
    convolve,
    fallback_chain,
    get_entry,
    list_algorithms,
    op_shape,
    supports,
)
from tests.conftest import (
    assert_conv_close,
    naive_conv_transpose2d_reference,
    naive_convnd_reference,
)

# Geometry shared by the grids: small but awkward (odd/uneven extents,
# channels divisible by every groups value used below).
N, C, F = 2, 4, 4
L_1D, K_1D = 11, 3
EXT_3D, K_3D = (5, 6, 4), (2, 3, 2)
EXT_T2D, K_T2D = (5, 4), (3, 2)

GRID_1D = [
    pytest.param(s, d, g, p, id=f"s{s}-d{d}-g{g}-p{p}")
    for s, d, g, p in itertools.product(
        [1, 2, 3], [1, 2], [1, 2, 4], [0, 1, (2, 0), "same"])
]

GRID_3D = [
    pytest.param(s, d, g, p, id=f"s{s}-d{d}-g{g}-p{p}")
    for s, d, g, p in [
        (1, 1, 1, 0),
        (2, 1, 1, 1),
        ((1, 2, 1), 1, 1, (1, 0, 1)),
        (1, (1, 1, 2), 1, 1),
        (1, 1, 2, 1),
        (1, 1, 4, "same"),
        (2, 2, 1, 2),
        ((2, 1, 2), (1, 2, 1), 2, (0, 1, 1, 0, 2, 1)),
    ]
]

GRID_T2D = [
    pytest.param(s, d, g, p, op, id=f"s{s}-d{d}-g{g}-p{p}-op{op}")
    for s, d, g, p, op in [
        (1, 1, 1, 0, 0),
        (2, 1, 1, 1, 0),
        (2, 1, 1, 0, 1),
        ((2, 3), 1, 1, (1, 0), (1, 2)),
        (1, 2, 1, 1, 0),
        (2, 2, 2, (1, 0, 0, 1), 1),
        (3, 1, 4, 1, 2),
    ]
]

#: Hard ceiling on the total grid size; see the guard test at the bottom.
GRID_BUDGET = 120

#: The algorithms registered with a rank-generic engine (conv3d's table).
CONV3D_ALGORITHMS = [a for a in list_algorithms() if get_entry(a).any_rank]


def _skip_unsupported(op, algorithm, x_shape, w_shape, **params):
    if not supports(algorithm, op_shape(op, x_shape, w_shape, **params)):
        pytest.skip(f"{algorithm.value} does not support this case")


class TestConv1dGrid:
    """Every registered algorithm on the 1D grid (native or lowered)."""

    @pytest.mark.parametrize("stride,dilation,groups,padding", GRID_1D)
    @pytest.mark.parametrize(
        "algorithm", list_algorithms(),
        ids=lambda a: a.value)
    def test_matches_reference(self, algorithm, stride, dilation, groups,
                               padding):
        rng = np.random.default_rng(11)
        x = rng.standard_normal((N, C, L_1D))
        w = rng.standard_normal((F, C // groups, K_1D))
        params = dict(padding=padding, stride=stride, dilation=dilation,
                      groups=groups)
        _skip_unsupported(ConvOp.CONV1D, algorithm, x.shape, w.shape,
                          **params)
        got = convolve(x, w, op=ConvOp.CONV1D, algorithm=algorithm,
                       **params)
        assert_conv_close(got, naive_convnd_reference(x, w, **params))


class TestConv3dGrid:
    """The rank-3 operator across its registered algorithm table."""

    @pytest.mark.parametrize("stride,dilation,groups,padding", GRID_3D)
    @pytest.mark.parametrize(
        "algorithm", CONV3D_ALGORITHMS,
        ids=lambda a: a.value)
    def test_matches_reference(self, algorithm, stride, dilation, groups,
                               padding):
        rng = np.random.default_rng(13)
        x = rng.standard_normal((N, C, *EXT_3D))
        w = rng.standard_normal((F, C // groups, *K_3D))
        params = dict(padding=padding, stride=stride, dilation=dilation,
                      groups=groups)
        _skip_unsupported(ConvOp.CONV3D, algorithm, x.shape, w.shape,
                          **params)
        got = convolve(x, w, op=ConvOp.CONV3D, algorithm=algorithm,
                       **params)
        assert_conv_close(got, naive_convnd_reference(x, w, **params))


class TestConvTranspose2dGrid:
    """Transposed conv: the scatter oracle referees every algorithm's
    adjoint lowering (and the native scatter itself)."""

    @pytest.mark.parametrize("stride,dilation,groups,padding,output_padding",
                             GRID_T2D)
    @pytest.mark.parametrize(
        "algorithm",
        [ConvAlgorithm.POLYHANKEL, ConvAlgorithm.GEMM, ConvAlgorithm.FFT,
         ConvAlgorithm.NAIVE],
        ids=lambda a: a.value)
    def test_matches_reference(self, algorithm, stride, dilation, groups,
                               padding, output_padding):
        rng = np.random.default_rng(17)
        x = rng.standard_normal((N, C, *EXT_T2D))
        w = rng.standard_normal((C, F // groups, *K_T2D))
        params = dict(padding=padding, stride=stride, dilation=dilation,
                      groups=groups, output_padding=output_padding)
        _skip_unsupported(ConvOp.CONV_TRANSPOSE2D, algorithm, x.shape,
                          w.shape, **params)
        got = convolve(x, w, op=ConvOp.CONV_TRANSPOSE2D,
                       algorithm=algorithm, **params)
        assert_conv_close(
            got, naive_conv_transpose2d_reference(x, w, **params))


class TestSupportsHonesty:
    """``supports`` must track what ``convolve`` actually does:
    a rejected case raises a clear ValueError, an accepted case runs."""

    def test_rejected_case_raises(self):
        # Winograd requires stride 1; the 1D lowering inherits that limit.
        rng = np.random.default_rng(1)
        x = rng.standard_normal((1, 2, 16))
        w = rng.standard_normal((2, 2, 3))
        assert not supports(ConvAlgorithm.WINOGRAD,
                            op_shape(ConvOp.CONV1D, x.shape, w.shape,
                                     stride=2))
        with pytest.raises(ValueError, match="does not support"):
            convolve(x, w, op=ConvOp.CONV1D,
                     algorithm=ConvAlgorithm.WINOGRAD, stride=2)

    def test_conv3d_table_is_exact(self):
        x_shape, w_shape = (1, 2, 4, 4, 4), (2, 2, 2, 2, 2)
        for algorithm in list_algorithms():
            claimed = supports(algorithm, op_shape(ConvOp.CONV3D, x_shape,
                                                   w_shape))
            assert claimed == (algorithm in set(CONV3D_ALGORITHMS)), \
                algorithm

    def test_fallback_chain_only_lists_supported(self):
        chain = fallback_chain(op_shape(ConvOp.CONV3D, (1, 2, 4, 4, 4),
                                        (2, 2, 2, 2, 2)))
        assert chain, "conv3d must have at least one route"
        for algorithm in chain:
            assert supports(algorithm, op_shape(
                ConvOp.CONV3D, (1, 2, 4, 4, 4), (2, 2, 2, 2, 2)))


class TestAdjointIdentity:
    """``<conv(x, w), y> == <x, conv_T(y, w~)>`` — the defining property
    of the transposed op, checked with no reference implementation."""

    CASES = [
        dict(padding=0, stride=1, dilation=1, groups=1),
        dict(padding=1, stride=2, dilation=1, groups=1),
        dict(padding=(1, 0, 2, 1), stride=(2, 3), dilation=2, groups=1),
        dict(padding=1, stride=2, dilation=1, groups=2),
    ]

    @pytest.mark.parametrize("params", CASES,
                             ids=lambda p: "-".join(f"{k}{v}"
                                                    for k, v in p.items()))
    @pytest.mark.parametrize("algorithm",
                             [ConvAlgorithm.POLYHANKEL, ConvAlgorithm.GEMM],
                             ids=lambda a: a.value)
    def test_inner_product_identity(self, algorithm, params):
        from repro.utils.shapes import ConvShape

        rng = np.random.default_rng(23)
        x = rng.standard_normal((2, 4, 7, 6))
        w_fwd = rng.standard_normal((6, 4 // params["groups"], 3, 3))
        y = convolve(x, w_fwd, algorithm, **params)
        y_coeff = rng.standard_normal(y.shape)
        # The forward weight (f, c/g, kh, kw) already IS the transposed
        # layout (c_in, c_out/g, kh, kw) of the adjoint problem: the
        # adjoint's input channels are the forward filters.
        w_t = w_fwd
        # output_padding recovering x's extent exactly: the remainder the
        # forward stride discarded per axis.
        shape = ConvShape.from_tensors(x.shape, w_fwd.shape, **params)
        out_pad = tuple(
            (p - e) % s for p, e, s in zip(
                shape.padded_extents, shape.eff_kernel, shape.stride_nd))
        xt = convolve(y_coeff, w_t, op=ConvOp.CONV_TRANSPOSE2D,
                      algorithm=algorithm, output_padding=out_pad,
                      **params)
        assert xt.shape == x.shape
        lhs = float(np.vdot(y, y_coeff))
        rhs = float(np.vdot(x, xt))
        assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-9)

    def test_shape_roundtrip_with_output_padding(self):
        """Any forward conv output maps back to the exact input extent
        when output_padding absorbs the strided remainder."""
        from repro.baselines.ndops import conv_transpose2d_output_shape

        for ih, k, s, p in itertools.product([7, 8, 9], [2, 3], [1, 2, 3],
                                             [0, 1]):
            eff_k = k
            if ih + 2 * p < eff_k:
                continue
            oh = (ih + 2 * p - eff_k) // s + 1
            op = (ih + 2 * p - eff_k) % s
            got = conv_transpose2d_output_shape(
                (1, 2, oh, oh), (2, 2, k, k), padding=p, stride=s,
                output_padding=op)
            assert got[2] == ih, (ih, k, s, p)


def test_grid_budget():
    """Keep the module inside the tier-1 budget: growing a grid means
    consciously raising this ceiling."""
    total = len(GRID_1D) + len(GRID_3D) + len(GRID_T2D)
    assert total <= GRID_BUDGET, (
        f"differential ndim grid has {total} cases; the budget is "
        f"{GRID_BUDGET} — trim the grid or raise the budget deliberately")
