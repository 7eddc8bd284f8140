"""Unit tests for the online algorithm-selection bandit.

Covers the prior/posterior arithmetic, the deterministic exploration
budget, convergence, arm poisoning, and the cluster replica-row merge —
the pieces the CI ``selection-drill`` exercises end to end.
"""

import numpy as np
import pytest

from repro.observe.registry import counters
from repro.selection import bandit as bandit_module
from repro.selection.bandit import (
    UNMODELED_PENALTY,
    ArmState,
    BanditConfig,
    KeyState,
    SelectionBandit,
    key_digest,
)
from repro.serve.coalescer import coalesce_key
from repro.utils.shapes import ConvShape

SHAPE = ConvShape((16, 16), (3, 3), n=2, c=3, f=4, padding=1)


def digest_for(shape: ConvShape = SHAPE) -> str:
    return key_digest(op="conv2d", input_chw=(shape.c, shape.ih, shape.iw),
                      weight_shape=(shape.f, shape.c, shape.kh, shape.kw),
                      dtype="float64", padding=shape.padding,
                      stride=shape.stride, dilation=shape.dilation,
                      groups=shape.groups, strategy="sum", backend="numpy")


#: conv2d ``key_digest`` strings as persisted tables spell them, one per
#: parameter spelling (8x16x16 input, 8 3x3 filters unless overridden).
GOLDEN_CONV2D_DIGESTS = [
    (dict(), "conv2d|chw=8x16x16|w=8x8x3x3|dt=float64|p=0|s=1|d=1|g=1"
             "|st=sum|be=numpy|op=0"),
    (dict(padding=1), "conv2d|chw=8x16x16|w=8x8x3x3|dt=float64|p=1|s=1"
                      "|d=1|g=1|st=sum|be=numpy|op=0"),
    (dict(padding=(1, 1)), "conv2d|chw=8x16x16|w=8x8x3x3|dt=float64|p=1"
                           "|s=1|d=1|g=1|st=sum|be=numpy|op=0"),
    (dict(padding=(1, 2)), "conv2d|chw=8x16x16|w=8x8x3x3|dt=float64"
                           "|p=(1, 1, 2, 2)|s=1|d=1|g=1|st=sum|be=numpy"
                           "|op=0"),
    (dict(padding=[2, 0]), "conv2d|chw=8x16x16|w=8x8x3x3|dt=float64"
                           "|p=(2, 2, 0, 0)|s=1|d=1|g=1|st=sum|be=numpy"
                           "|op=0"),
    (dict(padding=(1, 1, 1, 1)), "conv2d|chw=8x16x16|w=8x8x3x3|dt=float64"
                                 "|p=1|s=1|d=1|g=1|st=sum|be=numpy|op=0"),
    (dict(padding=(0, 1, 2, 3)), "conv2d|chw=8x16x16|w=8x8x3x3|dt=float64"
                                 "|p=(0, 1, 2, 3)|s=1|d=1|g=1|st=sum"
                                 "|be=numpy|op=0"),
    (dict(padding=(1, 1, 2, 2)), "conv2d|chw=8x16x16|w=8x8x3x3|dt=float64"
                                 "|p=(1, 1, 2, 2)|s=1|d=1|g=1|st=sum"
                                 "|be=numpy|op=0"),
    (dict(padding="same", strategy="merge"),
     "conv2d|chw=8x16x16|w=8x8x3x3|dt=float64|p=same|s=1|d=1|g=1"
     "|st=merge|be=numpy|op=0"),
    (dict(padding=1, stride=(2, 2)),
     "conv2d|chw=8x16x16|w=8x8x3x3|dt=float64|p=1|s=2|d=1|g=1|st=sum"
     "|be=numpy|op=0"),
    (dict(padding=1, stride=(2, 1)),
     "conv2d|chw=8x16x16|w=8x8x3x3|dt=float64|p=1|s=(2, 1)|d=1|g=1"
     "|st=sum|be=numpy|op=0"),
    (dict(padding=1, stride=2, dilation=(2, 2)),
     "conv2d|chw=8x16x16|w=8x8x3x3|dt=float64|p=1|s=2|d=2|g=1|st=sum"
     "|be=numpy|op=0"),
    (dict(padding=1, dilation=(1, 3)),
     "conv2d|chw=8x16x16|w=8x8x3x3|dt=float64|p=1|s=1|d=(1, 3)|g=1"
     "|st=sum|be=numpy|op=0"),
    (dict(padding=1, groups=4),
     "conv2d|chw=8x16x16|w=8x2x3x3|dt=float64|p=1|s=1|d=1|g=4|st=sum"
     "|be=numpy|op=0"),
    (dict(padding=(1, 0, 2, 1), stride=(2, 3), dilation=2, groups=2),
     "conv2d|chw=8x16x16|w=8x4x3x3|dt=float64|p=(1, 0, 2, 1)|s=(2, 3)"
     "|d=2|g=2|st=sum|be=numpy|op=0"),
    (dict(padding=1, backend="builtin"),
     "conv2d|chw=8x16x16|w=8x8x3x3|dt=float64|p=1|s=1|d=1|g=1|st=sum"
     "|be=builtin|op=0"),
    (dict(padding=1, backend=None),
     "conv2d|chw=8x16x16|w=8x8x3x3|dt=float64|p=1|s=1|d=1|g=1|st=sum"
     "|be=None|op=0"),
    (dict(input_chw=(3, 9, 7), weight_shape=(6, 3, 3, 2), dtype="float32",
          padding=(0, 2), stride=(1, 2), dilation=(2, 1),
          backend="builtin"),
     "conv2d|chw=3x9x7|w=6x3x3x2|dt=float32|p=(0, 0, 2, 2)|s=(1, 2)"
     "|d=(2, 1)|g=1|st=sum|be=builtin|op=0"),
]


@pytest.fixture(autouse=True)
def clean_selection_counters():
    counters.clear("selection.")
    yield
    counters.clear("selection.")


class TestPosteriorMath:
    def test_unobserved_arm_returns_scaled_prior(self):
        arm = ArmState("gemm", prior_ms=2.0)
        assert arm.posterior_ms(scale=3.0, prior_weight=2.0,
                                fallback_prior=99.0) == pytest.approx(6.0)

    def test_blend_formula(self):
        arm = ArmState("gemm", prior_ms=2.0, obs=4, ms_total=12.0)
        # (w * prior * scale + ms_total) / (w + obs)
        expected = (2.0 * 2.0 * 1.5 + 12.0) / (2.0 + 4)
        assert arm.posterior_ms(1.5, 2.0, 99.0) == pytest.approx(expected)

    def test_unmodeled_arm_uses_fallback_prior(self):
        arm = ArmState("naive", prior_ms=None)
        assert arm.posterior_ms(1.0, 2.0, fallback_prior=40.0) \
            == pytest.approx(40.0)

    def test_measurement_dominates_prior_as_obs_grow(self):
        arm = ArmState("gemm", prior_ms=10.0, obs=1000, ms_total=1000.0)
        assert arm.posterior_ms(1.0, 2.0, 99.0) == pytest.approx(1.0,
                                                                 rel=0.05)

    def test_scale_is_measured_over_modeled(self):
        state = KeyState("k")
        state.arms["a"] = ArmState("a", prior_ms=1.0, obs=2, ms_total=6.0)
        state.arms["b"] = ArmState("b", prior_ms=2.0, obs=1, ms_total=4.0)
        # measured 10 over modeled 1*2 + 2*1 = 4 -> 2.5
        assert state.scale() == pytest.approx(2.5)

    def test_scale_defaults_to_one_without_observations(self):
        state = KeyState("k")
        state.arms["a"] = ArmState("a", prior_ms=1.0)
        assert state.scale() == 1.0

    def test_fallback_prior_penalizes_worst_modeled(self):
        state = KeyState("k")
        state.arms["a"] = ArmState("a", prior_ms=3.0)
        state.arms["b"] = ArmState("b", prior_ms=7.0)
        assert state.fallback_prior() \
            == pytest.approx(7.0 * UNMODELED_PENALTY)


class TestKeyDigest:
    def test_padding_spellings_canonicalize(self):
        a = key_digest(op="conv2d", input_chw=(3, 8, 8),
                       weight_shape=(4, 3, 3, 3), dtype="float64",
                       padding=1, stride=1, dilation=1, groups=1,
                       strategy="sum", backend="numpy")
        b = key_digest(op="conv2d", input_chw=(3, 8, 8),
                       weight_shape=(4, 3, 3, 3), dtype="float64",
                       padding=(1, 1), stride=(1, 1), dilation=1,
                       groups=1, strategy="sum", backend="numpy")
        assert a == b

    def test_distinct_geometry_distinct_digest(self):
        a = digest_for(SHAPE)
        b = digest_for(SHAPE.with_(extents=(32, 32)))
        assert a != b

    def test_batch_size_excluded(self):
        assert digest_for(SHAPE) == digest_for(SHAPE.with_(n=64))

    @pytest.mark.parametrize("params, digest", GOLDEN_CONV2D_DIGESTS)
    def test_conv2d_digests_are_byte_stable(self, params, digest):
        """Digests are persisted table keys: every conv2d spelling must keep
        rendering exactly as the tables on disk spell it."""
        groups = params.get("groups", 1)
        args = dict(op="conv2d", input_chw=(8, 16, 16),
                    weight_shape=(8, 8 // groups, 3, 3), dtype="float64",
                    padding=0, stride=1, dilation=1, groups=1,
                    strategy="sum", backend="numpy")
        args.update(params)
        assert key_digest(**args) == digest

    @pytest.mark.parametrize("x_shape, w_shape, spellings", [
        ((2, 3, 16), (4, 3, 3),
         [dict(padding=(1, 2)), dict(padding=[1, 2])]),
        ((2, 3, 16), (4, 3, 3),
         [dict(padding=3, stride=2), dict(padding=(3,), stride=(2,)),
          dict(padding=(3, 3), stride=[2])]),
        ((1, 2, 6, 7, 8), (4, 2, 3, 3, 3),
         [dict(padding=(1, 2, 3)), dict(padding=(1, 1, 2, 2, 3, 3))]),
        ((1, 2, 6, 7, 8), (4, 2, 3, 3, 3),
         [dict(padding=1, dilation=2),
          dict(padding=(1, 1, 1), dilation=(2, 2, 2)),
          dict(padding=(1,) * 6, dilation=[2, 2, 2])]),
    ])
    def test_equal_coalesce_keys_give_equal_digests(self, x_shape, w_shape,
                                                    spellings):
        x, w = np.zeros(x_shape), np.zeros(w_shape)
        op = {3: "conv1d", 5: "conv3d"}[len(x_shape)]
        keys, digests = [], []
        for params in spellings:
            keys.append(coalesce_key(x, w, op=op, **params))
            args = dict(padding=0, stride=1, dilation=1) | params
            digests.append(key_digest(
                op=op, input_chw=x_shape[1:], weight_shape=w_shape,
                dtype=str(x.dtype), groups=1, strategy="sum", backend=None,
                **args))
        assert len(set(keys)) == 1
        assert len(set(digests)) == 1
        key = keys[0]
        assert (f"|p={key.padding}|s={key.stride}|d={key.dilation}|"
                in digests[0])


class TestExplorationBudget:
    def test_explored_tracks_counting_rule(self):
        bandit = SelectionBandit(BanditConfig(explore_fraction=0.25,
                                              min_obs=10 ** 9))
        digest = digest_for()
        for n in range(1, 41):
            decision = bandit.decide(digest, SHAPE, "polyhankel")
            bandit.record(digest, decision.algorithm, 1.0)
            state = bandit._keys[digest]
            # min_obs is unreachable, so arms never leave the pending
            # set and the budget is the only brake.
            assert state.explored == int(0.25 * n)

    def test_zero_fraction_never_explores(self):
        bandit = SelectionBandit(BanditConfig(explore_fraction=0.0))
        digest = digest_for()
        for _ in range(50):
            assert bandit.decide(digest, SHAPE, "polyhankel").shadow is None

    def test_shadow_is_least_observed_pending_arm(self):
        bandit = SelectionBandit(BanditConfig(explore_fraction=1.0,
                                              min_obs=3))
        digest = digest_for()
        seen = []
        for _ in range(30):
            decision = bandit.decide(digest, SHAPE, "polyhankel")
            bandit.record(digest, decision.algorithm, 1.0)
            if decision.shadow is not None:
                seen.append(decision.shadow)
                bandit.record(digest, decision.shadow, 1.0, shadow=True)
        # Every non-primary arm reaches min_obs, then exploration stops.
        state = bandit._keys[digest]
        for name in state.order:
            if name != bandit.best(digest):
                assert state.arms[name].obs >= 3
        assert seen, "exploration never fired"


class TestConvergence:
    def test_converges_to_measured_fastest(self):
        # min_obs high enough that the unmodeled arm's penalty prior
        # (worst modeled x UNMODELED_PENALTY as pseudo-observations) is
        # outvoted by its own measurements — the arm must *earn* the win.
        bandit = SelectionBandit(BanditConfig(explore_fraction=1.0,
                                              min_obs=60))
        digest = digest_for()
        # Feed measurements that contradict the priors: naive is the
        # measured-fastest arm.
        speeds = {"polyhankel": 5.0, "polyhankel_os": 5.0,
                  "gemm": 3.0, "naive": 0.5}
        for _ in range(400):
            decision = bandit.decide(digest, SHAPE, "polyhankel")
            bandit.record(digest, decision.algorithm,
                          speeds[decision.algorithm])
            if decision.shadow is not None:
                bandit.record(digest, decision.shadow,
                              speeds[decision.shadow], shadow=True)
        assert bandit.converged(digest)
        assert bandit.best(digest) == "naive"

    def test_shadow_mode_serves_requested(self):
        bandit = SelectionBandit(BanditConfig(apply=False,
                                              explore_fraction=1.0))
        digest = digest_for()
        for _ in range(10):
            decision = bandit.decide(digest, SHAPE, "gemm")
            assert decision.algorithm == "gemm"
            bandit.record(digest, decision.algorithm, 1.0)

    def test_decision_tie_breaks_on_arm_order(self):
        bandit = SelectionBandit(BanditConfig())
        digest = digest_for()
        state = bandit._seed_key(digest, SHAPE, "polyhankel")
        # Force identical posteriors: equal priors, no observations.
        for arm in state.arms.values():
            arm.prior_ms = 1.0
        decision = bandit.decide(digest, SHAPE, "polyhankel")
        assert decision.algorithm == state.order[0]


class TestPoisoning:
    def test_poisoned_after_max_parity_failures(self, monkeypatch):
        monkeypatch.setattr(bandit_module, "MAX_PARITY_FAILURES", 2)
        bandit = SelectionBandit(BanditConfig())
        digest = digest_for()
        bandit.decide(digest, SHAPE, "polyhankel")
        bandit.record_shadow_failure(digest, "gemm", "parity_fail")
        assert not bandit._keys[digest].arms["gemm"].poisoned
        bandit.record_shadow_failure(digest, "gemm", "parity_fail")
        assert bandit._keys[digest].arms["gemm"].poisoned
        assert counters.total("selection.arm_poisoned") == 1

    def test_poisoned_arm_never_served_nor_shadowed(self):
        bandit = SelectionBandit(BanditConfig(explore_fraction=1.0,
                                              min_obs=10 ** 9))
        digest = digest_for()
        bandit.decide(digest, SHAPE, "polyhankel")
        state = bandit._keys[digest]
        for name in state.order:
            if name != "gemm":
                bandit.record_shadow_failure(digest, name, "parity_fail")
        for _ in range(20):
            decision = bandit.decide(digest, SHAPE, "polyhankel")
            assert decision.algorithm == "gemm"
            assert decision.shadow is None
            bandit.record(digest, decision.algorithm, 1.0)

    def test_all_arms_poisoned_serves_requested(self):
        bandit = SelectionBandit(BanditConfig())
        digest = digest_for()
        bandit.decide(digest, SHAPE, "polyhankel")
        state = bandit._keys[digest]
        for name in state.order:
            bandit.record_shadow_failure(digest, name, "parity_fail")
        decision = bandit.decide(digest, SHAPE, "gemm")
        assert decision.algorithm == "gemm"
        assert decision.source == "requested"


class TestReplicaMerge:
    def test_ingest_folds_proc_tagged_rows_once(self):
        bandit = SelectionBandit(BanditConfig())
        digest = digest_for()
        rows = [("selection.arm_obs",
                 (("algorithm", "gemm"), ("key", digest)), 5.0),
                ("selection.arm_ms",
                 (("algorithm", "gemm"), ("key", digest)), 10.0)]
        counters.merge_rows("replica0", rows)
        assert bandit.ingest_replica_rows() == 5
        arm = bandit._keys[digest].arms["gemm"]
        assert arm.obs == 5
        assert arm.ms_total == pytest.approx(10.0)
        # Re-ingesting the same snapshot adds nothing.
        assert bandit.ingest_replica_rows() == 0
        assert arm.obs == 5

    def test_ingest_tracks_growth_per_replica(self):
        bandit = SelectionBandit(BanditConfig())
        digest = digest_for()

        def rows(obs, ms):
            return [("selection.arm_obs",
                     (("algorithm", "gemm"), ("key", digest)), obs),
                    ("selection.arm_ms",
                     (("algorithm", "gemm"), ("key", digest)), ms)]

        counters.merge_rows("replica0", rows(2.0, 4.0))
        counters.merge_rows("replica1", rows(3.0, 3.0))
        assert bandit.ingest_replica_rows() == 5
        counters.merge_rows("replica0", rows(6.0, 12.0))
        assert bandit.ingest_replica_rows() == 4
        arm = bandit._keys[digest].arms["gemm"]
        assert arm.obs == 9
        assert arm.ms_total == pytest.approx(15.0)

    def test_local_rows_without_proc_tag_ignored(self):
        bandit = SelectionBandit(BanditConfig())
        digest = digest_for()
        # A local record() writes untagged rows; ingest must not
        # double-count the process's own observations.
        bandit.decide(digest, SHAPE, "polyhankel")
        bandit.record(digest, "gemm", 1.0)
        obs_before = bandit._keys[digest].arms["gemm"].obs
        assert bandit.ingest_replica_rows() == 0
        assert bandit._keys[digest].arms["gemm"].obs == obs_before
