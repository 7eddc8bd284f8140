"""One bench case type and one runner for every op (tier-1).

``repro bench`` measures conv1d, conv3d and conv_transpose2d suite cases
through the same :func:`repro.bench.run_case` as conv2d, drills them
under injected faults, and ``repro profile`` measures a forward-op case
of any rank.  Every row's measured FFT counters must equal the cost
model's prediction, on the suite's cases and on a few geometries it
lacks.  Tiny repeats: these assert the contracts, not the timings.
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


#: Geometries the suite does not hold, through the same runner: a short
#: conv1d at batch 1 and batch 4, a strided, dilated, grouped conv1d with
#: one-sided padding, and a rank-3 problem with odd extents and even
#: kernel taps.
EXTRA_CASES = (
    bench.BenchCase("conv1d_n1", "conv1d", (1, 6, 64), (8, 6, 5),
                    padding=2),
    bench.BenchCase("conv1d_n4", "conv1d", (4, 6, 64), (8, 6, 5),
                    padding=2),
    bench.BenchCase("conv1d_s2_d2_g2", "conv1d", (2, 4, 47), (4, 2, 3),
                    padding=(2, 0), stride=2, dilation=2, groups=2),
    bench.BenchCase("conv3d_even_taps", "conv3d", (2, 3, 6, 8, 7),
                    (4, 3, 2, 3, 2), padding=1),
)


@pytest.mark.parametrize("case", EXTRA_CASES, ids=lambda c: c.name)
def test_counters_equal_the_prediction_off_the_suite(case):
    """A warm call re-transforms only the activations: one rfft and one
    irfft over the predicted rows (``run_case`` raises on a mismatch)."""
    row = bench.run_case(case, repeats=1)
    predicted = row["predicted_counters"]
    assert {k: row["counters"][k] for k in predicted} == predicted


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
