"""Measured-vs-model profile: stage joins, drift math, serialization."""

import json

import pytest

from repro.observe.profile import (
    STAGE_MAP,
    case_for_shape,
    format_profile,
    profile_case,
    resolve_preset,
    write_profile,
)


def _small_case():
    return case_for_shape(size=16, kernel=3, batch=2, channels=3,
                          filters=4, padding=1)


@pytest.fixture(scope="module")
def polyhankel_report():
    return profile_case(_small_case(), repeats=3, warmup=1)


@pytest.fixture(scope="module")
def gemm_report():
    return profile_case(_small_case(), algorithm="gemm", repeats=3,
                        warmup=1)


class TestPolyhankelProfile:
    def test_stage_names_match_cost_model(self, polyhankel_report):
        stages = [row["stage"] for row in polyhankel_report["stages"]]
        assert stages == [name for name, _, _ in STAGE_MAP["polyhankel"]]

    def test_every_stage_measured(self, polyhankel_report):
        for row in polyhankel_report["stages"]:
            assert row["measured_ms"] > 0.0, row["stage"]
            assert row["predicted_ms"] > 0.0, row["stage"]

    def test_shares_normalize_over_steady_state(self, polyhankel_report):
        live = [r for r in polyhankel_report["stages"]
                if not r["amortized"]]
        assert sum(r["measured_share"] for r in live) == pytest.approx(1.0)
        assert sum(r["predicted_share"] for r in live) == pytest.approx(1.0)

    def test_amortized_stage_excluded_from_drift(self, polyhankel_report):
        amortized = [r for r in polyhankel_report["stages"]
                     if r["amortized"]]
        assert [r["stage"] for r in amortized] == ["kernel_ffts"]
        assert amortized[0]["drift"] is None
        assert amortized[0]["flagged"] is False

    def test_drift_consistent_with_threshold(self, polyhankel_report):
        t = polyhankel_report["drift_threshold"]
        for row in polyhankel_report["stages"]:
            if row["drift"] is None:
                continue
            assert row["flagged"] == (not 1.0 / t <= row["drift"] <= t)

    def test_tight_threshold_flags_stages(self):
        report = profile_case(_small_case(), repeats=2, warmup=1,
                              drift_threshold=1.0 + 1e-9)
        assert any(row["flagged"] for row in report["stages"])

    def test_fft_invocations_reported(self, polyhankel_report):
        calls = polyhankel_report["fft_calls"]
        # repeats steady-state rffts plus the one-shot weight transform.
        repeats = polyhankel_report["repeats"]
        assert calls["rfft"]["calls"] == repeats + 1
        assert calls["irfft"]["calls"] == repeats

    def test_format_contains_table_and_verdict(self, polyhankel_report):
        text = format_profile(polyhankel_report)
        assert "input_block_ffts" in text
        assert "drift" in text
        assert "fft invocations" in text


class TestGemmProfile:
    def test_stage_names(self, gemm_report):
        assert [r["stage"] for r in gemm_report["stages"]] == \
            ["im2col", "gemm"]

    def test_no_fft_calls_on_gemm_path(self, gemm_report):
        assert gemm_report["fft_calls"] == {}

    def test_shares_normalize(self, gemm_report):
        assert sum(r["measured_share"]
                   for r in gemm_report["stages"]) == pytest.approx(1.0)


class TestPresetsAndSerialization:
    def test_resolve_known_preset(self):
        case = resolve_preset("conv16_sum_numpy")
        assert case.name == "conv16_sum_numpy"
        assert case.op == "conv2d"
        assert case.x_shape == (4, 3, 16, 16)

    def test_resolve_unknown_preset(self):
        with pytest.raises(ValueError, match="unknown preset"):
            resolve_preset("no_such_case")

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(ValueError, match="profile supports"):
            profile_case(case_for_shape(size=12), algorithm="winograd",
                         repeats=1, warmup=1)

    def test_write_profile_drops_spans(self, tmp_path, polyhankel_report):
        path = write_profile(polyhankel_report, str(tmp_path / "p.json"))
        data = json.loads(open(path).read())
        assert "spans" not in data
        assert data["algorithm"] == "polyhankel"
        assert [r["stage"] for r in data["stages"]] == \
            [r["stage"] for r in polyhankel_report["stages"]]
