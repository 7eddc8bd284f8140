"""Live-traffic safety of the online selection bandit.

The load-bearing property: **a shadow execution can never alter a served
result** — not when it is slow, not when it raises, not even when its
output is deliberately corrupted.  The hypothesis test poisons every
shadow and asserts bit-equality against a bandit-off run of the same
request; the server tests run the same contract through a real
:class:`~repro.serve.api.ConvServer`.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.observe.registry import counters, serve_stats
from repro.selection.bandit import (
    BanditConfig,
    active_bandit,
    disable_bandit,
    enable_bandit,
    set_shadow_chaos,
)
from repro.serve.pool import execute_conv


@pytest.fixture(autouse=True)
def bandit_hygiene():
    counters.clear("selection.")
    disable_bandit()
    set_shadow_chaos(None)
    yield
    counters.clear("selection.")
    disable_bandit()
    set_shadow_chaos(None)


def conv_inputs(seed: int, n: int, c: int, f: int, size: int, kernel: int):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, c, size, size))
    w = rng.standard_normal((f, c, kernel, kernel))
    return x, w


class TestPoisonedShadowProperty:
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2 ** 16),
           n=st.integers(1, 3),
           size=st.sampled_from([6, 8, 11]),
           kernel=st.sampled_from([1, 3]),
           offset=st.floats(-1e6, 1e6, allow_nan=False))
    def test_poisoned_shadow_never_alters_served_result(
            self, seed, n, size, kernel, offset):
        x, w = conv_inputs(seed, n, 2, 3, size, kernel)
        disable_bandit()
        reference = execute_conv(x, w, padding=1)
        # Shadow-only mode with exploration forced on every request and
        # every shadow output corrupted before its parity check.
        enable_bandit(BanditConfig(apply=False, explore_fraction=1.0,
                                   min_obs=10 ** 9))
        set_shadow_chaos(lambda out: out + offset)
        try:
            served = execute_conv(x, w, padding=1)
        finally:
            set_shadow_chaos(None)
            disable_bandit()
        assert np.array_equal(reference, served)

    def test_raising_shadow_never_alters_served_result(self):
        x, w = conv_inputs(0, 2, 3, 4, 10, 3)
        disable_bandit()
        reference = execute_conv(x, w, padding=1)
        enable_bandit(BanditConfig(apply=False, explore_fraction=1.0,
                                   min_obs=10 ** 9))

        def explode(out):
            raise RuntimeError("chaos: shadow output hook")

        set_shadow_chaos(explode)
        try:
            # An exception anywhere in the shadow path must be absorbed
            # into a counter, never surfaced to the caller.
            served = execute_conv(x, w, padding=1)
        finally:
            set_shadow_chaos(None)
        assert np.array_equal(reference, served)
        assert counters.total("selection.shadow_error") >= 1

    def test_parity_failures_poison_and_stop_the_arm(self):
        x, w = conv_inputs(1, 1, 2, 2, 8, 3)
        enable_bandit(BanditConfig(apply=False, explore_fraction=1.0,
                                   min_obs=10 ** 9))
        set_shadow_chaos(lambda out: out + 1e3)
        try:
            for _ in range(12):
                execute_conv(x, w, padding=1)
        finally:
            set_shadow_chaos(None)
        # One failure per non-primary arm, then the arms are poisoned
        # and exploration of them stops for good.
        fails = counters.total("selection.shadow_parity_fail")
        poisoned = counters.total("selection.arm_poisoned")
        assert fails == poisoned
        assert 0 < poisoned <= 3


class TestServedCorrectness:
    def test_shadow_mode_server_output_bit_exact(self):
        from repro.serve.api import ConvServer

        x, w = conv_inputs(2, 2, 3, 4, 12, 3)
        with ConvServer(max_batch=4, workers=1) as server:
            reference = server.conv2d(x, w, padding=1)
        enable_bandit(BanditConfig(apply=False, explore_fraction=1.0,
                                   min_obs=10 ** 9))
        with ConvServer(max_batch=4, workers=1) as server:
            served = server.conv2d(x, w, padding=1)
        assert np.array_equal(reference, served)

    def test_apply_mode_result_matches_reference(self):
        from repro.baselines.registry import convolve

        x, w = conv_inputs(3, 2, 3, 4, 10, 3)
        expected = convolve(x, w, algorithm="naive", padding=1)
        enable_bandit(BanditConfig(apply=True, explore_fraction=0.5,
                                   min_obs=2))
        for _ in range(10):
            out = execute_conv(x, w, padding=1)
            assert np.allclose(out, expected)
        bandit = active_bandit()
        stats = bandit.stats()
        assert stats["decisions"] == 10
        assert stats["keys"], "no key learned from live traffic"

    def test_serve_stats_surface_selection_block(self):
        x, w = conv_inputs(4, 1, 2, 2, 8, 3)
        assert "selection" not in serve_stats() \
            or serve_stats()["selection"]["decisions"] >= 0
        enable_bandit(BanditConfig(apply=True, explore_fraction=0.0))
        execute_conv(x, w, padding=1)
        stats = serve_stats()
        assert "selection" in stats
        assert stats["selection"]["decisions"] >= 1

    def test_table_persisted_on_server_close(self, tmp_path):
        from repro.selection.bandit import load_table
        from repro.serve.api import ConvServer

        path = str(tmp_path / "table.json")
        x, w = conv_inputs(5, 2, 2, 3, 10, 3)
        enable_bandit(BanditConfig(apply=True, explore_fraction=0.0,
                                   table_path=path))
        with ConvServer(max_batch=4, workers=1) as server:
            server.conv2d(x, w, padding=1)
        payload = load_table(path)
        assert payload is not None
        assert payload["keys"], "served key missing from persisted table"
