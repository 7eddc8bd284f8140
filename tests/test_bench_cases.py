"""One bench case type and one runner for every op (tier-1).

``repro bench`` measures conv1d, conv3d and conv_transpose2d suite cases
through the same :func:`repro.bench.run_case` as conv2d, drills them
under injected faults, and ``repro profile`` measures a forward-op case
of any rank.  Tiny repeats: these assert the contracts, not the timings.
"""

import pytest

from repro import bench
from repro.observe.profile import STAGE_MAP, profile_case, resolve_preset

ND_CASES = ("audio_1d", "video_3d_tiny", "decoder_tconv")


@pytest.fixture(scope="module", params=ND_CASES)
def row(request):
    return bench.run_case(resolve_preset(request.param), repeats=1)


def test_counters_equal_the_prediction(row):
    predicted = row["predicted_counters"]
    assert {k: row["counters"][k] for k in predicted} == predicted


def test_columns_of_each_op(row):
    forward = row["op"] != "conv_transpose2d"
    assert (row["uncached_ms"] is not None) == forward
    assert (row["workers_ms"] is not None) == forward
    assert (row["cache_speedup"] is not None) == forward
    assert row["layer_cached_ms"] > 0  # every op's own layer class


def test_guarded_call_does_not_fall_back(row):
    assert row["counters"]["guard_fallbacks"] == 0


def test_row_carries_op_and_one_shape_layout(row):
    case = resolve_preset(row["name"])
    assert row["op"] == case.op
    assert row["shape"]["x"] == list(case.x_shape)
    assert row["shape"]["w"] == list(case.w_shape)


def test_inject_drill_recovers_every_op():
    report = bench.run_inject_drill(kinds=("nan_input",), smoke=True)
    assert report["failures"] == 0
    recovered = {resolve_preset(r["case"]).op
                 for r in report["rows"] if r["recovered"]}
    assert recovered == {"conv1d", "conv2d", "conv3d", "conv_transpose2d"}


def test_profile_measures_every_stage_of_a_conv1d_case():
    report = profile_case(resolve_preset("audio_1d"), repeats=2, warmup=1)
    assert report["op"] == "conv1d"
    assert [r["stage"] for r in report["stages"]] == \
        [name for name, _, _ in STAGE_MAP["polyhankel"]]
    for stage in report["stages"]:
        assert stage["measured_ms"] > 0.0, stage["stage"]


def test_profile_rejects_the_transposed_op():
    with pytest.raises(ValueError, match="forward ops"):
        profile_case(resolve_preset("decoder_tconv"), repeats=1, warmup=1)
