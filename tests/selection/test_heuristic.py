"""Tests for the algorithm-selection heuristics."""

import pytest

from repro.baselines.registry import ConvAlgorithm as A
from repro.selection.heuristic import (
    CANDIDATES,
    select_algorithm,
    select_algorithm_rules,
)
from repro.utils.shapes import ConvShape

GEMM_FAMILY = {A.GEMM, A.IMPLICIT_GEMM, A.IMPLICIT_PRECOMP_GEMM}
FFT_FAMILY = {A.FFT, A.FFT_TILING}


class TestModelDriven:
    def test_ranking_sorted(self):
        shape = ConvShape((64, 64), (3, 3), n=16, c=3, f=8, padding=1)
        result = select_algorithm(shape, "3090ti")
        times = [t for _, t in result.ranking]
        assert times == sorted(times)
        assert result.predicted_ms == times[0]

    def test_small_inputs_pick_gemm_family(self):
        shape = ConvShape((12, 12), (3, 3), n=32, c=3, f=8, padding=1)
        assert select_algorithm(shape, "3090ti").algorithm in GEMM_FAMILY

    def test_large_inputs_small_kernels_pick_polyhankel(self):
        shape = ConvShape((224, 224), (5, 5), n=128, c=3, f=16, padding=2)
        assert select_algorithm(shape, "3090ti").algorithm is A.POLYHANKEL

    def test_very_large_kernels_pick_fft_family(self):
        shape = ConvShape((112, 112), (20, 20), n=128, c=3, f=16)
        assert select_algorithm(shape, "3090ti").algorithm in FFT_FAMILY

    def test_incapable_algorithms_excluded(self):
        shape = ConvShape((33, 33), (3, 3), n=16, c=3, f=8, stride=2)
        result = select_algorithm(shape, "v100")
        ranked = {algo for algo, _ in result.ranking}
        assert A.WINOGRAD not in ranked

    def test_custom_candidates(self):
        shape = ConvShape((16, 16), (3, 3))
        result = select_algorithm(shape, "v100", candidates=(A.FFT,))
        assert result.algorithm is A.FFT

    def test_no_capable_algorithm(self):
        shape = ConvShape((33, 33), (3, 3), stride=2)
        with pytest.raises(ValueError, match="no capable algorithm"):
            select_algorithm(shape, "v100", candidates=(A.WINOGRAD,))

    def test_candidates_include_both_polyhankel_variants(self):
        # The variants share one cost model (their times tie exactly);
        # both must appear in the ranking, resolved by TIE_BREAK, so
        # consumers of the full ranking see the overlap-save path too.
        assert A.POLYHANKEL in CANDIDATES
        assert A.POLYHANKEL_OS in CANDIDATES


class TestRuleBased:
    def test_small_input(self):
        shape = ConvShape((16, 16), (3, 3))
        assert select_algorithm_rules(shape) in GEMM_FAMILY

    def test_large_kernel(self):
        shape = ConvShape((112, 112), (17, 17))
        assert select_algorithm_rules(shape) in FFT_FAMILY

    def test_sweet_spot_is_polyhankel(self):
        shape = ConvShape((112, 112), (5, 5), padding=2)
        assert select_algorithm_rules(shape) is A.POLYHANKEL

    def test_rules_agree_with_model_in_core_regions(self):
        """The distilled rules match the model-driven oracle on the paper's
        three characteristic regions."""
        regions = [
            ConvShape((12, 12), (3, 3), n=64, c=3, f=16, padding=1),
            ConvShape((224, 224), (5, 5), n=128, c=3, f=16, padding=2),
            ConvShape((112, 112), (20, 20), n=128, c=3, f=16),
        ]
        for shape in regions:
            rule = select_algorithm_rules(shape)
            model = select_algorithm(shape, "3090ti").algorithm
            same_family = (
                (rule in GEMM_FAMILY and model in GEMM_FAMILY)
                or (rule in FFT_FAMILY and model in FFT_FAMILY)
                or rule is model
            )
            assert same_family, (shape, rule, model)


class TestWorkspaceLimit:
    """cuDNN-style memoryLimitInBytes filtering."""

    SHAPE = ConvShape((64, 64), (5, 5), n=32, c=3, f=16, padding=2)

    def test_unlimited_keeps_all(self):
        full = select_algorithm(self.SHAPE, "3090ti")
        limited = select_algorithm(self.SHAPE, "3090ti",
                                   workspace_limit_bytes=None)
        assert {a for a, _ in full.ranking} == {a for a, _ in
                                                limited.ranking}

    def test_zero_limit_excludes_workspace_users(self):
        result = select_algorithm(self.SHAPE, "3090ti",
                                  workspace_limit_bytes=0)
        ranked = {a for a, _ in result.ranking}
        assert A.GEMM not in ranked            # im2col workspace
        assert A.FFT not in ranked             # complex planes
        assert A.IMPLICIT_GEMM in ranked       # workspace-free

    def test_limit_changes_winner_when_binding(self):
        unlimited = select_algorithm(self.SHAPE, "3090ti")
        constrained = select_algorithm(self.SHAPE, "3090ti",
                                       workspace_limit_bytes=0)
        assert constrained.algorithm in {a for a, _ in constrained.ranking}
        assert constrained.predicted_ms >= unlimited.predicted_ms

    def test_impossible_limit_raises(self):
        with pytest.raises(ValueError, match="workspace limit"):
            select_algorithm(self.SHAPE, "3090ti",
                             candidates=(A.GEMM,),
                             workspace_limit_bytes=1)


class TestDeterministicTieBreak:
    """The PolyHankel pair shares one cost model: ties must resolve
    explicitly, never by which dict-iteration order dropped a variant."""

    SHAPE = ConvShape((64, 64), (5, 5), n=8, c=3, f=8, padding=2)

    def test_both_variants_ranked(self):
        ranked = [a for a, _ in
                  select_algorithm(self.SHAPE, "3090ti").ranking]
        assert A.POLYHANKEL in ranked
        assert A.POLYHANKEL_OS in ranked

    def test_tied_costs_follow_tie_break_order(self):
        result = select_algorithm(self.SHAPE, "3090ti")
        times = dict(result.ranking)
        assert times[A.POLYHANKEL] == times[A.POLYHANKEL_OS]
        ranked = [a for a, _ in result.ranking]
        assert ranked.index(A.POLYHANKEL) < ranked.index(A.POLYHANKEL_OS)

    def test_ranking_is_total_and_repeatable(self):
        first = select_algorithm(self.SHAPE, "3090ti").ranking
        for _ in range(3):
            assert select_algorithm(self.SHAPE, "3090ti").ranking == first

    def test_tie_break_covers_every_algorithm(self):
        from repro.selection.heuristic import TIE_BREAK

        assert set(TIE_BREAK) == set(A)
        # The guard's static descent keeps its relative order up front.
        from repro.baselines.registry import FALLBACK_ORDER

        assert TIE_BREAK[:len(FALLBACK_ORDER)] == tuple(FALLBACK_ORDER)


class TestRankedFallbackOrder:
    def test_unknown_order_string_rejected(self):
        from repro.baselines.registry import fallback_chain

        shape = ConvShape((16, 16), (3, 3))
        with pytest.raises(ValueError, match="unknown chain order"):
            fallback_chain(shape, order="fastest")
