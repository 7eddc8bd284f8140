"""Persistence tests for the selection table.

The table is schema-versioned, content-checksummed JSON: round-trips
must be lossless, a foreign schema version must be rejected loudly, and
a corrupt file must be discarded (counted) rather than trusted.
"""

import json

import pytest

from repro.observe.registry import counters
from repro.selection.bandit import (
    TABLE_SCHEMA_VERSION,
    BanditConfig,
    SelectionBandit,
    SelectionTableError,
    key_digest,
    load_table,
    save_table,
)
from repro.utils.shapes import ConvShape

SHAPE = ConvShape((16, 16), (3, 3), n=1, c=3, f=4, padding=1)


def digest_for(shape: ConvShape = SHAPE) -> str:
    return key_digest(op="conv2d", input_chw=(shape.c, shape.ih, shape.iw),
                      weight_shape=(shape.f, shape.c, shape.kh, shape.kw),
                      dtype="float64", padding=shape.padding,
                      stride=shape.stride, dilation=shape.dilation,
                      groups=shape.groups, strategy="sum", backend="numpy")


@pytest.fixture(autouse=True)
def clean_selection_counters():
    counters.clear("selection.")
    yield
    counters.clear("selection.")


def trained_bandit() -> tuple[SelectionBandit, str]:
    bandit = SelectionBandit(BanditConfig(explore_fraction=1.0, min_obs=2))
    digest = digest_for(SHAPE)
    for _ in range(20):
        decision = bandit.decide(digest, SHAPE, "polyhankel")
        bandit.record(digest, decision.algorithm, 1.0)
        if decision.shadow is not None:
            bandit.record(digest, decision.shadow, 2.0, shadow=True)
    bandit.record_shadow_failure(digest, "naive", "parity_fail")
    return bandit, digest


class TestRoundTrip:
    def test_payload_survives_save_load(self, tmp_path):
        bandit, digest = trained_bandit()
        path = str(tmp_path / "table.json")
        assert bandit.save(path) == path
        warmed = SelectionBandit(bandit.config)
        assert warmed.warm_start(path)
        assert counters.total("selection.table_loaded") == 1
        original = bandit._keys[digest]
        restored = warmed._keys[digest]
        assert restored.order == original.order
        assert restored.decisions == original.decisions
        assert restored.explored == original.explored
        for name, arm in original.arms.items():
            other = restored.arms[name]
            assert other.obs == arm.obs
            assert other.ms_total == pytest.approx(arm.ms_total)
            assert other.prior_ms == (
                pytest.approx(arm.prior_ms) if arm.prior_ms is not None
                else None)
            assert other.poisoned == arm.poisoned

    def test_warm_started_bandit_decides_identically(self, tmp_path):
        bandit, digest = trained_bandit()
        path = str(tmp_path / "table.json")
        bandit.save(path)
        warmed = SelectionBandit(bandit.config)
        warmed.warm_start(path)
        assert warmed.best(digest) == bandit.best(digest)
        assert warmed.converged(digest) == bandit.converged(digest)

    def test_missing_file_is_quiet(self, tmp_path):
        assert load_table(str(tmp_path / "absent.json")) is None
        assert counters.total("selection.table_corrupt") == 0

    def test_save_without_path_is_noop(self):
        bandit, _ = trained_bandit()
        assert bandit.save() is None
        assert bandit.warm_start() is False


class TestSchemaVersion:
    def write_with_schema(self, tmp_path, schema):
        bandit, _ = trained_bandit()
        path = str(tmp_path / "table.json")
        bandit.save(path)
        with open(path) as fh:
            document = json.load(fh)
        document["schema"] = schema
        with open(path, "w") as fh:
            json.dump(document, fh)
        return path

    def test_foreign_schema_rejected_loudly(self, tmp_path):
        path = self.write_with_schema(tmp_path, TABLE_SCHEMA_VERSION + 1)
        with pytest.raises(SelectionTableError):
            load_table(path)

    def test_strict_warm_start_raises(self, tmp_path):
        path = self.write_with_schema(tmp_path, TABLE_SCHEMA_VERSION + 1)
        bandit = SelectionBandit()
        with pytest.raises(SelectionTableError):
            bandit.warm_start(path, strict=True)

    def test_lenient_warm_start_counts_and_declines(self, tmp_path):
        path = self.write_with_schema(tmp_path, TABLE_SCHEMA_VERSION + 1)
        bandit = SelectionBandit()
        assert bandit.warm_start(path, strict=False) is False
        assert counters.total("selection.table_schema_reject") == 1
        assert not bandit._keys


class TestCorruption:
    def test_checksum_mismatch_discarded_with_counter(self, tmp_path):
        bandit, digest = trained_bandit()
        path = str(tmp_path / "table.json")
        bandit.save(path)
        with open(path) as fh:
            document = json.load(fh)
        document["payload"]["keys"][digest]["decisions"] += 1
        with open(path, "w") as fh:
            json.dump(document, fh)
        assert load_table(path) is None
        assert counters.total("selection.table_corrupt") == 1

    def test_garbage_json_discarded_with_counter(self, tmp_path):
        path = tmp_path / "table.json"
        path.write_text("{not json")
        assert load_table(str(path)) is None
        assert counters.total("selection.table_corrupt") == 1

    def test_wrong_document_shape_discarded(self, tmp_path):
        path = tmp_path / "table.json"
        path.write_text(json.dumps({"keys": {}}))
        assert load_table(str(path)) is None
        assert counters.total("selection.table_corrupt") == 1

    def test_corrupt_table_never_reaches_the_bandit(self, tmp_path):
        path = tmp_path / "table.json"
        path.write_text("\x00torn")
        bandit = SelectionBandit()
        assert bandit.warm_start(str(path)) is False
        assert not bandit._keys

    def test_save_round_trips_after_corruption_overwrite(self, tmp_path):
        bandit, _ = trained_bandit()
        path = str(tmp_path / "table.json")
        with open(path, "w") as fh:
            fh.write("garbage")
        save_table(bandit.payload(), path)
        assert load_table(path) is not None
