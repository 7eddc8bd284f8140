"""Tests for the empirical convolution tuner."""

import pytest

from repro.baselines.registry import ConvAlgorithm
from repro.selection.tuner import DEFAULT_CANDIDATES, ConvTuner
from repro.utils.shapes import ConvShape

SMALL = ConvShape((10, 10), (3, 3), n=1, c=1, f=1, padding=1)


@pytest.fixture
def tuner():
    return ConvTuner(repeats=1, warmup=False)


class TestTuning:
    def test_measures_all_capable_candidates(self, tuner):
        result = tuner.tune(SMALL)
        assert set(result.timings_s) <= set(DEFAULT_CANDIDATES)
        assert len(result.timings_s) >= 8
        assert all(t > 0 for t in result.timings_s.values())

    def test_best_is_minimum(self, tuner):
        result = tuner.tune(SMALL)
        assert result.timings_s[result.best] == min(
            result.timings_s.values()
        )
        assert result.best_seconds == result.timings_s[result.best]

    def test_ranking_sorted(self, tuner):
        ranking = tuner.tune(SMALL).ranking()
        times = [t for _, t in ranking]
        assert times == sorted(times)

    def test_naive_not_tried_by_default(self, tuner):
        assert ConvAlgorithm.NAIVE not in tuner.tune(SMALL).timings_s

    def test_capability_respected(self, tuner):
        strided = SMALL.with_(stride=2, extents=(11, 11))
        result = tuner.tune(strided)
        assert ConvAlgorithm.WINOGRAD not in result.timings_s

    def test_supplied_problem_used(self, tuner, rng):
        x = rng.standard_normal(SMALL.input_shape())
        w = rng.standard_normal(SMALL.weight_shape())
        result = tuner.tune(SMALL, x, w)
        assert result.shape == SMALL


class TestCache:
    def test_cache_hit(self, tuner):
        first = tuner.tune(SMALL)
        assert tuner.tune(SMALL) is first
        assert tuner.cache_size == 1

    def test_distinct_shapes_cached_separately(self, tuner):
        tuner.tune(SMALL)
        tuner.tune(SMALL.with_(n=2))
        assert tuner.cache_size == 2

    def test_clear(self, tuner):
        tuner.tune(SMALL)
        tuner.clear()
        assert tuner.cache_size == 0

    def test_best_algorithm_shortcut(self, tuner):
        assert tuner.best_algorithm(SMALL) is tuner.tune(SMALL).best


class TestMeasurement:
    def test_warmup_pass_runs(self):
        # warmup=True exercises the pre-measurement call path; restrict
        # to one cheap candidate so the double execution stays fast.
        tuner = ConvTuner(candidates=(ConvAlgorithm.GEMM,), repeats=1,
                          warmup=True)
        result = tuner.tune(SMALL)
        assert result.timings_s[ConvAlgorithm.GEMM] > 0

    def test_repeats_keep_the_minimum(self):
        tuner = ConvTuner(candidates=(ConvAlgorithm.GEMM,), repeats=3,
                          warmup=False)
        result = tuner.tune(SMALL)
        assert result.best_seconds > 0

    def test_default_candidates_exclude_naive(self):
        assert ConvAlgorithm.NAIVE not in DEFAULT_CANDIDATES
        assert ConvAlgorithm.POLYHANKEL in DEFAULT_CANDIDATES


class TestValidation:
    def test_invalid_repeats(self):
        with pytest.raises(ValueError):
            ConvTuner(repeats=0)

    def test_no_capable_candidate(self):
        tuner = ConvTuner(candidates=(ConvAlgorithm.WINOGRAD,), repeats=1)
        with pytest.raises(ValueError, match="no capable algorithm"):
            tuner.tune(SMALL.with_(stride=2, extents=(11, 11)))

    def test_restricted_candidates(self):
        tuner = ConvTuner(candidates=(ConvAlgorithm.GEMM,), repeats=1,
                          warmup=False)
        result = tuner.tune(SMALL)
        assert set(result.timings_s) == {ConvAlgorithm.GEMM}
