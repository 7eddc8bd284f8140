"""Differential harness: full conv2d parameter grid vs an independent
reference.

This is the acceptance gate for the extended parameter space: every
combination of per-axis stride, per-axis dilation, groups and padding mode
is checked against :func:`tests.conftest.naive_conv2d_reference` — for the
PolyHankel engine on both FFT backends and both channel strategies, and for
every registered baseline algorithm (which either handles the shape
natively or is lowered by the registry).

The grid is sized to finish well inside the tier-1 budget: the guard test
at the bottom fails if someone grows it past ``GRID_BUDGET`` cases, which
empirically keeps this module under ~60 s on one core.
"""

import itertools

import numpy as np
import pytest

from repro.baselines.registry import convolve, list_algorithms, supports
from repro.core.multichannel import conv2d_polyhankel
from repro.utils.shapes import ConvShape
from tests.conftest import assert_conv_close, naive_conv2d_reference

# Small enough to be fast, awkward enough to be interesting: odd/even and
# unequal spatial extents, channels divisible by every groups value below.
N, C, F, IH, IW, K = 2, 4, 4, 9, 8, 3

STRIDES = [(1, 1), (2, 2), (1, 2)]
DILATIONS = [(1, 1), (2, 2), (1, 3)]
GROUPS = [1, 2, 4]  # 4 == C: depthwise
PADDINGS = [0, 1, (1, 2, 0, 1), "same"]

PARAM_GRID = [
    pytest.param(s, d, g, p,
                 id=f"s{s[0]}{s[1]}-d{d[0]}{d[1]}-g{g}-p{p}")
    for s, d, g, p in itertools.product(STRIDES, DILATIONS, GROUPS,
                                        PADDINGS)
]

#: Hard ceiling on the grid; see the guard test at the bottom.
GRID_BUDGET = 160


def _problem(stride, dilation, groups, padding, seed=7):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((N, C, IH, IW))
    w = rng.standard_normal((F, C // groups, K, K))
    ref = naive_conv2d_reference(x, w, padding, stride, dilation, groups)
    return x, w, ref


class TestPolyHankelGrid:
    """PolyHankel vs reference over the full parameter product."""

    @pytest.mark.parametrize("stride,dilation,groups,padding", PARAM_GRID)
    @pytest.mark.parametrize("strategy", ["sum", "merge"])
    def test_matches_reference(self, stride, dilation, groups, padding,
                               strategy):
        x, w, ref = _problem(stride, dilation, groups, padding)
        got = conv2d_polyhankel(x, w, padding=padding, stride=stride,
                                dilation=dilation, groups=groups,
                                strategy=strategy)
        assert_conv_close(got, ref)

    @pytest.mark.parametrize("backend", ["numpy", "builtin"])
    def test_both_backends(self, backend):
        """A diagonal slice of the grid on each FFT backend (the backend
        affects only the transform arithmetic, not the degree map, so a
        slice suffices once the numpy backend has covered the full grid).
        """
        for stride, dilation, groups, padding in zip(
                STRIDES, DILATIONS, GROUPS, PADDINGS):
            x, w, ref = _problem(stride, dilation, groups, padding)
            got = conv2d_polyhankel(x, w, padding=padding, stride=stride,
                                    dilation=dilation, groups=groups,
                                    backend=backend)
            assert_conv_close(got, ref)


class TestInterleavedLayoutGrid:
    """The sum pipeline's bins-major (once "interleaved") contraction on a
    diagonal slice of the grid, grouped and ungrouped, against the
    reference and against the merge strategy's independent pipeline."""

    CASES = [((1, 1), (1, 1), 1, 1),
             ((2, 2), (2, 2), 2, 0),
             ((1, 2), (1, 3), 1, "same"),
             ((2, 1), (1, 1), 2, (1, 2, 0, 1))]

    @pytest.mark.parametrize(
        "stride,dilation,groups,padding",
        [pytest.param(*case, id=f"case{i}")
         for i, case in enumerate(CASES)])
    def test_matches_reference_and_planar(self, stride, dilation, groups,
                                          padding):
        x, w, ref = _problem(stride, dilation, groups, padding)
        fused = conv2d_polyhankel(x, w, padding=padding, stride=stride,
                                  dilation=dilation, groups=groups)
        assert_conv_close(fused, ref)
        merged = conv2d_polyhankel(x, w, padding=padding, stride=stride,
                                   dilation=dilation, groups=groups,
                                   strategy="merge")
        np.testing.assert_allclose(fused, merged, atol=1e-10)

    def test_odd_channel_slice(self):
        """Odd channel and filter counts across the strided/dilated
        path."""
        rng = np.random.default_rng(23)
        x = rng.standard_normal((N, 5, IH, IW))
        w = rng.standard_normal((3, 5, K, K))
        ref = naive_conv2d_reference(x, w, 1, (2, 1), (1, 2), 1)
        got = conv2d_polyhankel(x, w, padding=1, stride=(2, 1),
                                dilation=(1, 2))
        assert_conv_close(got, ref)


class TestEveryAlgorithmExtended:
    """Each registered algorithm on representative extended shapes.

    Native algorithms exercise their generalized kernels; the rest
    exercise the registry's lowering (group split, explicit padding,
    kernel dilation, stride-then-subsample).
    """

    CASES = [
        ((2, 2), (1, 1), 1, 1),          # plain strided
        ((1, 1), (2, 2), 1, 2),          # dilated
        ((1, 1), (1, 1), 2, 1),          # grouped
        ((1, 2), (2, 1), 2, (1, 0, 2, 1)),  # everything asymmetric
        ((1, 1), (2, 2), 4, "same"),     # depthwise + dilation + same
    ]

    @pytest.mark.parametrize("algorithm", list_algorithms())
    @pytest.mark.parametrize(
        "stride,dilation,groups,padding",
        [pytest.param(*case, id=f"case{i}")
         for i, case in enumerate(CASES)])
    def test_matches_reference(self, algorithm, stride, dilation, groups,
                               padding):
        shape = ConvShape((IH, IW), (K, K), n=N, c=C, f=F, padding=padding,
                          stride=stride, dilation=dilation, groups=groups)
        if not supports(algorithm, shape):
            pytest.skip(f"{algorithm.value} rejects {shape}")
        x, w, ref = _problem(stride, dilation, groups, padding)
        got = convolve(x, w, algorithm=algorithm, padding=padding,
                       stride=stride, dilation=dilation, groups=groups)
        assert_conv_close(got, ref)

    def test_unsupported_is_explicit(self):
        """A shape an algorithm cannot run must be rejected with a
        parameter-bearing error, never computed wrong silently."""
        shape = ConvShape((IH, IW), (K, K), n=N, c=C, f=F, stride=(2, 2))
        from repro.baselines.registry import ConvAlgorithm
        assert not supports(ConvAlgorithm.WINOGRAD, shape)
        x, w, _ = _problem((2, 2), (1, 1), 1, 0)
        with pytest.raises(ValueError, match="stride"):
            convolve(x, w, algorithm=ConvAlgorithm.WINOGRAD, stride=(2, 2))


def test_grid_budget():
    """Keep the differential sweep inside the tier-1 time budget.

    2 strategies x the parameter product must stay under GRID_BUDGET
    per-strategy cases (~60 s total on one slow core).  If you need a
    bigger grid, move the extra cases behind ``-m slow``.
    """
    assert len(PARAM_GRID) <= GRID_BUDGET, (
        f"differential grid has {len(PARAM_GRID)} cases; keep it at or "
        f"under {GRID_BUDGET} or mark the overflow as slow")
