"""``repro tune`` measures into the selection bandit's table.

:meth:`~repro.selection.bandit.SelectionBandit.tune` times every capable
algorithm but naive on the full problem and records each call under the
key a served float64 conv2d of the same geometry gets, so a server
warm-started from the tuned table serves the measured choice without
exploring.
"""

import numpy as np
import pytest

from repro.baselines import registry
from repro.baselines.naive import convnd_naive
from repro.baselines.registry import ConvAlgorithm, list_algorithms, supports
from repro.cli import main
from repro.observe.registry import counters
from repro.selection.bandit import (
    TABLE_ENV,
    BanditConfig,
    SelectionBandit,
    disable_bandit,
    enable_bandit,
    key_digest,
)
from repro.serve.api import ConvServer
from repro.utils.shapes import ConvShape

SMALL = ConvShape((10, 10), (3, 3), n=1, c=2, f=2, padding=1)
STRIDED = SMALL.with_(stride=2, extents=(11, 11))


@pytest.fixture(autouse=True)
def clean_selection_state():
    counters.clear("selection.")
    yield
    disable_bandit()
    counters.clear("selection.")


def key_stats(bandit: SelectionBandit, digest: str) -> dict:
    """The key's :meth:`SelectionBandit.stats` entry."""
    return next(k for k in bandit.stats()["keys"] if k["key"] == digest)


def tuned_arms(bandit: SelectionBandit, digest: str) -> dict[str, dict]:
    """The key's arms, in arm order."""
    return {arm["algorithm"]: arm for arm in key_stats(bandit, digest)["arms"]}


def spy_convolve(monkeypatch) -> list:
    """Record the arguments of every ``registry.convolve`` call."""
    calls = []
    convolve = registry.convolve

    def spy(x, weight, **kwargs):
        calls.append((x.shape, weight.shape, kwargs))
        return convolve(x, weight, **kwargs)

    monkeypatch.setattr(registry, "convolve", spy)
    return calls


class TestTuning:
    def test_measures_all_capable_candidates(self):
        bandit = SelectionBandit()
        digest = bandit.tune(SMALL, repeats=2)
        arms = tuned_arms(bandit, digest)
        assert list(arms) == [a.value for a in list_algorithms()
                              if a is not ConvAlgorithm.NAIVE
                              and supports(a, SMALL)]
        assert len(arms) >= 8
        assert all(arm["obs"] == 2 and arm["mean_ms"] > 0
                   for arm in arms.values())

    def test_best_is_minimum(self):
        bandit = SelectionBandit()
        digest = bandit.tune(SMALL, repeats=2)
        arms = tuned_arms(bandit, digest)
        best = min(arms.values(), key=lambda a: a["posterior_ms"])
        assert bandit.best(digest) == best["algorithm"]

    def test_ranking_sorted(self, capsys):
        assert main(["tune", "--size", "10", "--batch", "1",
                     "--channels", "2", "--filters", "2",
                     "--repeats", "1"]) == 0
        lines = capsys.readouterr().out.splitlines()
        means = [float(line.split()[1]) for line in lines
                 if line.startswith("  ")]
        assert len(means) >= 8
        assert means == sorted(means)

    def test_naive_not_tried_by_default(self):
        bandit = SelectionBandit()
        digest = bandit.tune(SMALL, repeats=1)
        assert "naive" not in tuned_arms(bandit, digest)

    def test_capability_respected(self):
        bandit = SelectionBandit()
        arms = tuned_arms(bandit, bandit.tune(STRIDED, repeats=1))
        assert "winograd" not in arms
        assert {"polyhankel", "gemm"} <= set(arms)

    def test_grouped_dilated_shape_tunes_the_real_problem(self,
                                                          monkeypatch):
        shape = ConvShape((12, 12), (3, 3), n=2, c=4, f=4, padding=2,
                          dilation=2, groups=2)
        calls = spy_convolve(monkeypatch)
        bandit = SelectionBandit()
        digest = bandit.tune(shape, repeats=1)
        assert calls
        for x_shape, w_shape, kwargs in calls:
            assert (x_shape, w_shape) == ((2, 4, 12, 12), (4, 2, 3, 3))
            assert kwargs["groups"] == 2
            assert kwargs["dilation"] == shape.dilation
        # The served key of the same geometry, however dilation is spelled.
        assert digest == key_digest(
            op="conv2d", input_chw=(4, 12, 12), weight_shape=(4, 2, 3, 3),
            dtype="float64", padding=2, stride=1, dilation=(2, 2),
            groups=2, strategy="sum", backend=None)
        assert "|d=2|g=2|" in digest


class TestCache:
    """The bandit's table is the tuner's cache."""

    def test_cache_hit(self):
        bandit = SelectionBandit()
        first = bandit.tune(SMALL, repeats=1)
        assert bandit.tune(SMALL, repeats=1) == first
        assert len(bandit.stats()["keys"]) == 1
        assert all(arm["obs"] == 2
                   for arm in tuned_arms(bandit, first).values())

    def test_distinct_shapes_cached_separately(self):
        bandit = SelectionBandit()
        assert bandit.tune(SMALL, repeats=1) \
            != bandit.tune(STRIDED, repeats=1)
        assert len(bandit.stats()["keys"]) == 2

    def test_tuning_a_served_key_converges_it(self):
        # A served key also seeded naive; tuning drops it from the arm
        # order, so it no longer holds the key back from converging.
        digest = SelectionBandit().tune(SMALL, repeats=1)
        served = SelectionBandit()
        served.decide(digest, SMALL, "polyhankel")
        assert served.tune(SMALL, repeats=3) == digest
        assert served.converged(digest)
        assert "naive" not in tuned_arms(served, digest)

    def test_best_algorithm_shortcut(self):
        bandit = SelectionBandit()
        digest = bandit.tune(SMALL, repeats=1)
        assert bandit.best(digest) == key_stats(bandit, digest)["best"]


class TestMeasurement:
    def test_warmup_pass_runs(self, monkeypatch):
        calls = spy_convolve(monkeypatch)
        bandit = SelectionBandit()
        digest = bandit.tune(SMALL, repeats=2)
        arms = tuned_arms(bandit, digest)
        assert len(calls) == 3 * len(arms)
        assert all(arm["obs"] == 2 for arm in arms.values())

    def test_repeats_are_each_recorded(self):
        bandit = SelectionBandit()
        digest = bandit.tune(SMALL, repeats=3)
        arms = tuned_arms(bandit, digest)
        assert counters.total("selection.arm_obs") == 3 * len(arms)
        assert all(arm["obs"] == 3 for arm in arms.values())


class TestValidation:
    def test_invalid_repeats(self):
        with pytest.raises(ValueError, match="repeats"):
            SelectionBandit().tune(SMALL, repeats=0)

    def test_only_conv2d_shapes(self):
        # The bandit routes conv2d only, so no served key could use it.
        conv1d = ConvShape((32,), (3,), n=1, c=2, f=2, padding=1)
        with pytest.raises(ValueError, match="conv2d"):
            SelectionBandit().tune(conv1d, repeats=1)


class TestWarmStart:
    def test_tuned_table_warm_starts_a_server(self, tmp_path, monkeypatch):
        table = str(tmp_path / "selection_table.json")
        monkeypatch.setenv(TABLE_ENV, table)
        assert main(["tune", "--size", "12", "--batch", "2",
                     "--channels", "3", "--filters", "4",
                     "--repeats", "3"]) == 0
        rng = np.random.default_rng(5)
        x = rng.standard_normal((2, 3, 12, 12))
        w = rng.standard_normal((4, 3, 3, 3))
        digest = key_digest(op="conv2d", input_chw=(3, 12, 12),
                            weight_shape=(4, 3, 3, 3), dtype="float64",
                            padding=1, stride=1, dilation=1, groups=1,
                            strategy="sum", backend=None)
        tuned = SelectionBandit()
        assert tuned.warm_start(table)
        best = tuned.best(digest)
        assert best is not None

        counters.clear("selection.")
        enable_bandit(BanditConfig(table_path=table))
        with ConvServer(max_batch=4, workers=1) as server:
            first = server.conv2d(x, w, padding=1)
            served = [row.tag_dict["algorithm"]
                      for row in counters.snapshot("selection.arm_obs")]
            for _ in range(19):
                server.conv2d(x, w, padding=1)
        assert served == [best]
        assert counters.total("selection.explore") == 0
        np.testing.assert_allclose(first, convnd_naive(x, w, padding=1),
                                   rtol=1e-9, atol=1e-9)
