"""Every serving and selection gate of the bench, fed doctored entries.

No real serving runs here: each row hands the regression gate (or the
``serve-bench`` floor checks, with the sweep runners stubbed out) an
entry that breaks exactly one contract, and asserts the gate reports
that metric.  A healthy twin of each row must pass.
"""

import pytest

from repro.cli import main
from repro.observe.regression import compare_reports


def _cluster(workers=2, served_rps=1800.0, scaleout=1.8, gated=True):
    return {"name": f"cluster_batch8_w{workers}", "preset": "cluster_batch8",
            "workers": workers, "transport": "shm", "requests": 48,
            "offered_rps": 2300.0, "served_rps": served_rps,
            "p50_ms": 7.0, "p99_ms": 9.0,
            "scaleout_vs_1": scaleout if workers > 1 else None,
            "min_scaleout": 1.5 if workers == 2 else None, "gated": gated,
            "exact": True}


def _overload(mult=2.0, goodput_rps=16000.0, goodput_pct=0.95, late=0):
    return {"name": f"overload_batch8_x{mult:g}", "preset": "overload_batch8",
            "multiplier": mult, "requests": 96,
            "offered_rps": 16500.0 * mult, "capacity_rps": 16500.0,
            "goodput_rps": goodput_rps, "goodput_pct": goodput_pct,
            "completed": 96, "shed": 0, "rejected": 0, "shed_rate": 0.0,
            "p50_ms": 2.0, "p99_ms": 3.0, "late_completions": late,
            "min_goodput_pct": 0.85 if mult == 2.0 else None, "exact": True}


def _selection(regret=0.5, hit=True):
    return {"name": "selection/large_poly", "regret_pct": regret,
            "max_regret_pct": 5.0, "oracle_hit": hit}


# (section, current entry, baseline entry, metric the gate must report)
GATE_TABLE = [
    ("cluster", _cluster(scaleout=1.2), _cluster(), "scaleout_vs_1"),
    ("cluster", _cluster(served_rps=300.0), _cluster(), "served_rps"),
    ("overload", _overload(goodput_pct=0.5), _overload(), "goodput_pct"),
    ("overload", _overload(goodput_rps=2000.0), _overload(), "goodput_rps"),
    ("overload", _overload(late=3), _overload(), "late_completions"),
    ("selection", _selection(regret=7.5), None, "regret_pct"),
    ("selection", _selection(hit=False), None, "oracle_hit"),
]


@pytest.mark.parametrize("section,cur,base,metric", GATE_TABLE,
                         ids=[f"{row[0]}-{row[3]}" for row in GATE_TABLE])
def test_doctored_entry_fails_its_gate(section, cur, base, metric):
    current = {"results": [], section: [cur]}
    baseline = {"results": [], section: [base] if base else []}
    flagged = [r.metric for r in compare_reports(current, baseline)]
    assert metric in flagged
    healthy = {"results": [], section: [base or _selection()]}
    assert compare_reports(healthy, baseline) == []


def test_scaleout_floor_ignored_when_not_gated():
    base = {"cluster": [_cluster(gated=False)]}
    cur = {"cluster": [_cluster(scaleout=1.0, gated=False)]}
    assert compare_reports(cur, base) == []


class TestServeBenchFloors:
    """``serve-bench --check-scaleout`` / ``--check-goodput`` verdicts."""

    @pytest.fixture
    def sweep(self, monkeypatch):
        """Stub both sweep runners to return the entries set on it."""
        from repro.serve import loadgen

        entries = {}
        monkeypatch.setattr(loadgen, "run_cluster_case",
                            lambda *a, **k: entries["cluster"])
        monkeypatch.setattr(loadgen, "run_overload_case",
                            lambda *a, **k: entries["overload"])
        return entries

    SCALEOUT = ["serve-bench", "--workers", "1", "2",
                "--check-scaleout", "1.5"]
    GOODPUT = ["serve-bench", "--overload", "--multipliers", "1", "2",
               "--check-goodput", "0.85"]

    @pytest.mark.parametrize("w2,code", [
        (_cluster(scaleout=1.8), 0),
        (_cluster(scaleout=1.2), 1),
        # Unconditional: the CLI floor binds even where gated is False.
        (_cluster(scaleout=1.2, gated=False), 1),
    ])
    def test_check_scaleout(self, sweep, capsys, w2, code):
        sweep["cluster"] = [_cluster(workers=1), w2]
        assert main(self.SCALEOUT) == code
        assert "cluster_batch8_w2" in capsys.readouterr().out

    def test_check_scaleout_without_qualifying_point(self, sweep):
        sweep["cluster"] = [_cluster(workers=1),
                            _cluster(workers=4, scaleout=3.0)]
        assert main(self.SCALEOUT) == 2

    @pytest.mark.parametrize("x1,x2,code", [
        (_overload(1.0), _overload(2.0), 0),
        (_overload(1.0), _overload(2.0, goodput_pct=0.6), 1),
        # Any late completion fails, at the gate point or not.
        (_overload(1.0, late=1), _overload(2.0), 1),
    ])
    def test_check_goodput(self, sweep, capsys, x1, x2, code):
        sweep["overload"] = [x1, x2]
        assert main(self.GOODPUT) == code
        assert "overload_batch8_x" in capsys.readouterr().out

    def test_check_goodput_without_qualifying_point(self, sweep):
        sweep["overload"] = [_overload(0.5), _overload(1.0)]
        assert main(self.GOODPUT) == 2
