"""The CI convergence drill, run in-process.

This is the same entry point the ``selection-drill`` CI job gates on;
running it here keeps the drill debuggable locally under plain pytest.
"""

import numpy as np
import pytest

from repro.selection.drill import (
    DRILL_SHAPES,
    _model_ms,
    _oracle_tie_set,
    format_selection_drill,
    run_selection_drill,
)


@pytest.mark.slow
def test_drill_passes_end_to_end(tmp_path):
    report = run_selection_drill(seed=0, requests=200,
                                 table_path=str(tmp_path / "table.json"))
    assert report["converge_ok"], format_selection_drill(report)
    assert report["warm_ok"], format_selection_drill(report)
    assert report["shadow_ok"], format_selection_drill(report)
    assert report["ok"]


def test_drill_keys_have_distinct_oracles():
    # The drill only proves convergence if the keys' winners differ;
    # keep the shape set honest against cost-model retunes.
    oracles = set()
    for _name, shape in DRILL_SHAPES:
        model = _model_ms(shape)
        oracle, ties = _oracle_tie_set(model)
        assert oracle in ties
        oracles.add("polyhankel" if oracle.startswith("polyhankel")
                    else oracle)
    assert len(oracles) >= 2, (
        f"drill shapes all converge to the same family: {oracles}")


def test_replay_is_seed_deterministic():
    a = run_selection_drill(seed=3, requests=120)
    b = run_selection_drill(seed=3, requests=120)
    for ka, kb in zip(a["keys"], b["keys"]):
        assert ka["chosen"] == kb["chosen"]
        assert ka["explored"] == kb["explored"]
        assert ka["regret_pct"] == pytest.approx(kb["regret_pct"])


def test_model_ms_prices_every_chain_arm():
    for _name, shape in DRILL_SHAPES:
        model = _model_ms(shape)
        assert "naive" in model  # unmodeled arm got the penalty price
        assert all(np.isfinite(v) and v > 0 for v in model.values())
