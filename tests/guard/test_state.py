"""Tests for repro.guard.state: the enablement switch and config knobs."""

import pytest

from repro.guard.state import (
    GuardConfig, current_config, disable_guard, enable_guard, guard_enabled,
    guarded,
)


@pytest.fixture(autouse=True)
def _guard_off():
    """Every test starts and ends with the guard disabled."""
    disable_guard()
    yield
    disable_guard()


class TestGuardConfig:
    def test_defaults(self):
        cfg = GuardConfig()
        assert cfg.ulp_constant == 64.0
        assert cfg.breaker_threshold == 3
        assert cfg.breaker_ttl_s == 30.0
        assert cfg.chain == ("polyhankel", "gemm", "naive")

    def test_with_returns_new_instance(self):
        cfg = GuardConfig()
        tweaked = cfg.with_(breaker_threshold=1)
        assert tweaked.breaker_threshold == 1
        assert cfg.breaker_threshold == 3
        assert tweaked is not cfg

    def test_frozen(self):
        with pytest.raises(AttributeError):
            GuardConfig().ulp_constant = 1.0


class TestEnableDisable:
    def test_default_off(self):
        assert not guard_enabled()

    def test_enable_then_disable(self):
        enable_guard()
        assert guard_enabled()
        disable_guard()
        assert not guard_enabled()

    def test_enable_installs_config(self):
        cfg = GuardConfig(breaker_threshold=7)
        assert enable_guard(cfg) is cfg
        assert current_config() is cfg

    def test_disable_retains_config(self):
        cfg = GuardConfig(breaker_threshold=7)
        enable_guard(cfg)
        disable_guard()
        assert current_config() is cfg


class TestGuardedContext:
    def test_enables_inside_restores_after(self):
        with guarded():
            assert guard_enabled()
        assert not guard_enabled()

    def test_custom_config_scoped(self):
        outer = current_config()
        with guarded(GuardConfig(ulp_constant=2.0)) as cfg:
            assert cfg.ulp_constant == 2.0
            assert current_config() is cfg
        assert current_config() is outer

    def test_nested_restores_each_level(self):
        with guarded(GuardConfig(breaker_threshold=1)):
            with guarded(GuardConfig(breaker_threshold=2)):
                assert current_config().breaker_threshold == 2
            assert current_config().breaker_threshold == 1
        assert not guard_enabled()

    def test_restores_on_exception(self):
        with pytest.raises(RuntimeError):
            with guarded():
                raise RuntimeError("boom")
        assert not guard_enabled()
