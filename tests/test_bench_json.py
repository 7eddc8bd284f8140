"""Smoke test for the JSON benchmark harness (slow; excluded from tier-1).

Run explicitly with ``pytest -m slow`` or via ``python -m repro bench
--smoke``.  Validates the report schema and that it round-trips through
JSON, without asserting timing (the CI box is too noisy for that).
"""

import json

import numpy as np
import pytest

from repro import bench

pytestmark = pytest.mark.slow


def test_smoke_suite_schema(tmp_path, monkeypatch):
    verified = []

    def first_call_ms(name, call, want):
        verified.append(name)
        return first_call_ms.real(name, call, want)

    first_call_ms.real = bench._first_call_ms
    monkeypatch.setattr(bench, "_first_call_ms", first_call_ms)
    report = bench.run_suite(smoke=True, repeats=1, workers=2)
    assert report["schema"] == bench.SCHEMA_VERSION
    for row in report["results"]:
        assert row["counters"]["fft_calls"] >= 2
        assert row["counters"]["guard_fallbacks"] == 0
        assert row["roofline_pct"] is None or row["roofline_pct"] > 0
    assert {row["op"] for row in report["results"]} == {
        "conv1d", "conv2d", "conv3d", "conv_transpose2d"}
    for row in report["results"]:
        assert row["first_call_ms"] > 0
        assert row["cached_ms"] > 0
        # run_case raises if measured != predicted; the report must still
        # carry the prediction.
        predicted = row["predicted_counters"]
        assert {k: row["counters"][k] for k in predicted} == predicted
        assert "seed_ms" not in row and "speedup" not in row
        if row["op"] == "conv_transpose2d":
            assert row["uncached_ms"] is None
            continue
        assert row["uncached_ms"] > 0
        assert row["cache_speedup"] == pytest.approx(
            row["uncached_ms"] / row["cached_ms"], rel=1e-2)
    extended = [row for row in report["results"] if row["op"] == "conv2d"
                and (row["shape"]["stride"], row["shape"]["dilation"],
                     row["shape"]["groups"]) != (1, 1, 1)]
    assert len(extended) >= 2, \
        "smoke suite must cover the strided and depthwise presets"
    # every case must be exercised with both cold and warm measurements,
    # its cold output verified against the naive reference
    names = {row["name"] for row in report["results"]}
    assert len(names) == len(report["results"])
    assert sorted(verified) == sorted(names)

    out = tmp_path / "bench.json"
    bench.write_report(report, out)
    assert json.loads(out.read_text())["results"] == report["results"]


def test_divergence_from_naive_raises(monkeypatch):
    import repro.baselines.naive as naive

    monkeypatch.setattr(naive, "convnd_naive",
                        lambda x, w, **kw: np.zeros(1))
    case = next(c for c in bench.SUITE if c.name == "conv16_sum_numpy")
    with pytest.raises(AssertionError, match="diverged from naive"):
        bench.run_case(case, repeats=1, workers=None)


def test_smoke_cli_entry(tmp_path, capsys):
    out = tmp_path / "bench.json"
    code = bench.main(["--smoke", "--repeats", "1", "--out", str(out)])
    assert code == 0
    assert out.exists()
    assert "speedup" in capsys.readouterr().out


def test_inject_drill_recovers_everywhere(capsys):
    """The recovery drill: one fault kind across the smoke suite must
    recover the naive reference on every case and exit clean."""
    report = bench.run_inject_drill(kinds=("backend_error",), smoke=True)
    assert report["failures"] == 0
    assert report["rows"], "drill must cover the smoke cases"
    for row in report["rows"]:
        assert row["recovered"]
        assert row["injected"] >= 1
        assert row["fallbacks"] >= 1
    text = bench.format_inject_report(report)
    assert "drill passed" in text


def test_inject_drill_cli_entry(capsys):
    code = bench.main(["--quick", "--inject", "nan_input", "--no-json"])
    assert code == 0
    assert "recovered" in capsys.readouterr().out
