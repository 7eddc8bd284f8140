"""The CI selection drill: seeded replay, warm-start, shadow safety.

``repro selection-drill`` (and the ``selection-drill`` CI job) must prove
three contracts of :mod:`repro.selection.bandit` end to end, exiting
nonzero when any fails:

1. **Convergence** — a seeded deterministic traffic replay over keys with
   known roofline winners converges, within the request budget, to an arm
   whose modeled cost equals the oracle's (the PolyHankel pair ties by
   construction, so "the oracle arm" means its modeled-cost tie set).
   Observations are drawn from the roofline model with seeded noise, so
   the replay is bit-reproducible and CI-machine independent.
2. **Warm start** — persisting the learned table and loading it into a
   fresh bandit (the "restarted server") yields *zero* exploration on the
   known keys: every arm is already past ``min_obs``, so no shadow ever
   launches and the first decision already serves the converged arm.
3. **Shadow safety** — with a deliberately poisoned shadow hook installed
   and exploration forced to 100%, a real :class:`~repro.serve.api.
   ConvServer` serves outputs bit-identical to a bandit-off run.  The
   parity-failure counter must move (proof the poisoned shadows actually
   executed) while the served bytes must not.
"""

from __future__ import annotations

import os
import tempfile

import numpy as np

from repro.selection.bandit import (
    BanditConfig,
    SelectionBandit,
    disable_bandit,
    enable_bandit,
    key_digest,
    set_shadow_chaos,
)
from repro.utils.shapes import ConvShape

#: Replay keys: geometries whose roofline winners differ (the crossover
#: the paper's Figs. 3-4 describe), so convergence is tested toward more
#: than one arm.  Batch 1 keeps the synthetic replay's units simple.
DRILL_SHAPES: tuple[tuple[str, ConvShape], ...] = (
    # Deep stack with a mid-size kernel: the frequency-domain method's
    # home turf — the model ranks PolyHankel first.
    ("large_poly", ConvShape((128, 128), (7, 7), n=1, c=32, f=32, padding=3)),
    # Small input, small kernel: left of the paper's crossover — GEMM.
    ("small_gemm", ConvShape((8, 8), (3, 3), n=1, c=4, f=8, padding=1)),
    # Wide kernel on a modest image: right of the crossover again.
    ("wide_kernel", ConvShape((64, 64), (13, 13), n=1, c=8, f=16, padding=6)),
)

#: Seeded relative noise on synthetic observations — wide enough to make
#: the bandit's averaging do real work, narrow enough that the modeled
#: winner stays the measured winner.
NOISE = 0.05


def _digest(shape: ConvShape) -> str:
    return key_digest(op="conv2d", input_chw=(shape.c, shape.ih, shape.iw),
                      weight_shape=(shape.f, shape.c // shape.groups,
                                    shape.kh, shape.kw),
                      dtype="float64", padding=shape.padding,
                      stride=shape.stride, dilation=shape.dilation,
                      groups=shape.groups, strategy="sum",
                      backend="numpy")


def _model_ms(shape: ConvShape) -> dict[str, float]:
    """Modeled per-arm ms for the key's chain (unmodeled arms penalized)."""
    from repro.baselines.registry import fallback_chain
    from repro.perfmodel.timing import prior_ms
    from repro.selection.bandit import UNMODELED_PENALTY

    chain = fallback_chain(shape, primary="polyhankel")
    modeled = {a.value: prior_ms(a, shape) for a in chain}
    worst = max((v for v in modeled.values() if v is not None),
                default=1.0)
    return {name: (v if v is not None else worst * UNMODELED_PENALTY)
            for name, v in modeled.items()}


def _oracle_tie_set(model: dict[str, float],
                    tie_tol: float = 0.01) -> tuple[str, set[str]]:
    """The roofline argmin and every arm within *tie_tol* of it."""
    from repro.selection.heuristic import TIE_BREAK

    rank = {a.value: i for i, a in enumerate(TIE_BREAK)}
    oracle = min(model, key=lambda n: (model[n], rank.get(n, len(rank))))
    ties = {n for n, v in model.items()
            if v <= model[oracle] * (1.0 + tie_tol)}
    return oracle, ties


def replay_key(bandit: SelectionBandit, digest: str, shape: ConvShape,
               model: dict[str, float], rng: np.random.Generator,
               requests: int) -> dict:
    """Feed *requests* synthetic observations through one key.

    Timings are the modeled ms with seeded multiplicative noise; shadows
    are credited like parity-clean live shadows.  Returns the per-key
    replay record including the regret against the modeled oracle.
    """
    oracle, ties = _oracle_tie_set(model)
    served_cost = 0.0
    explored = 0
    for _ in range(requests):
        decision = bandit.decide(digest, shape, "polyhankel")
        served_cost += model[decision.algorithm]
        noise = 1.0 + rng.uniform(-NOISE, NOISE)
        bandit.record(digest, decision.algorithm,
                      model[decision.algorithm] * noise)
        if decision.shadow is not None:
            explored += 1
            noise = 1.0 + rng.uniform(-NOISE, NOISE)
            bandit.record(digest, decision.shadow,
                          model[decision.shadow] * noise, shadow=True)
    oracle_cost = model[oracle] * requests
    chosen = bandit.best(digest)
    return {
        "oracle": oracle,
        "oracle_ties": sorted(ties),
        "chosen": chosen,
        "oracle_hit": chosen in ties,
        "converged": bandit.converged(digest),
        "explored": explored,
        "regret_pct": 100.0 * (served_cost - oracle_cost) / oracle_cost,
    }


def replay_drill_keys(seed: int, requests: int
                      ) -> tuple[SelectionBandit, list[dict]]:
    """Phase 1 (and ``repro bench``'s ``selection`` section): a seeded
    replay of every drill key; one :func:`replay_key` record per key."""
    bandit = SelectionBandit(BanditConfig(apply=True, explore_fraction=0.25,
                                          min_obs=5))
    rng = np.random.default_rng(seed)
    return bandit, [
        dict(replay_key(bandit, _digest(shape), shape, _model_ms(shape),
                        rng, requests), name=name)
        for name, shape in DRILL_SHAPES]


def run_selection_drill(seed: int = 0, requests: int = 300,
                        table_path: str | None = None) -> dict:
    """Run all three drill phases; ``report["ok"]`` is the CI verdict."""
    report: dict = {"seed": seed, "requests": requests}

    # Phase 1: seeded replay must converge to the roofline winner per key.
    bandit, keys = replay_drill_keys(seed, requests)
    report["keys"] = keys
    report["converge_ok"] = all(k["oracle_hit"] and k["converged"]
                                for k in keys)

    # Phase 2: persist -> fresh bandit ("restarted server") -> replay must
    # serve the converged arm with zero exploration on the known keys.
    cleanup = table_path is None
    if table_path is None:
        fd, table_path = tempfile.mkstemp(suffix=".json",
                                          prefix="selection_table_")
        os.close(fd)
    try:
        bandit.save(table_path)
        warmed = SelectionBandit(bandit.config)
        loaded = warmed.warm_start(table_path)
        warm_explored = 0
        warm_hits = True
        for (_name, shape), entry in zip(DRILL_SHAPES, keys):
            digest = _digest(shape)
            # Decide-only replay: the restarted server's routing, before
            # any new measurement lands.
            for _ in range(max(20, requests // 10)):
                decision = warmed.decide(digest, shape, "polyhankel")
                if decision.shadow is not None:
                    warm_explored += 1
                if decision.algorithm not in entry["oracle_ties"]:
                    warm_hits = False
    finally:
        if cleanup:
            os.unlink(table_path)
    report["warm_start"] = {
        "loaded": loaded,
        "explored": warm_explored,
        "oracle_hit": warm_hits,
    }
    report["warm_ok"] = loaded and warm_explored == 0 and warm_hits

    # Phase 3: a poisoned shadow must never alter what a real server
    # serves — bit-exact against a bandit-off run of identical traffic.
    report["shadow"] = _shadow_safety_phase(seed)
    report["shadow_ok"] = report["shadow"]["ok"]

    report["ok"] = bool(report["converge_ok"] and report["warm_ok"]
                        and report["shadow_ok"])
    return report


def _shadow_safety_phase(seed: int, submissions: int = 6) -> dict:
    """Served outputs with the bandit on (and poisoned) vs. off."""
    from repro.observe.registry import counters
    from repro.serve.api import ConvServer

    rng = np.random.default_rng(seed)
    x = rng.standard_normal((2, 3, 12, 12))
    w = rng.standard_normal((4, 3, 3, 3))

    def serve_all() -> list[np.ndarray]:
        with ConvServer(max_batch=4, workers=1) as server:
            return [server.conv2d(x, w, padding=1)
                    for _ in range(submissions)]

    disable_bandit()
    reference = serve_all()
    parity_before = counters.total("selection.shadow_parity_fail")
    # Shadow-only mode, exploration forced on every request, min_obs set
    # unreachably high so exploration never stops, and every shadow output
    # corrupted before its parity check.
    enable_bandit(BanditConfig(apply=False, explore_fraction=1.0,
                               min_obs=10 ** 9))
    set_shadow_chaos(lambda out: out + 1.0e3)
    try:
        poisoned = serve_all()
    finally:
        set_shadow_chaos(None)
        disable_bandit()
    parity_failures = int(counters.total("selection.shadow_parity_fail")
                          - parity_before)
    bit_exact = all(np.array_equal(a, b)
                    for a, b in zip(reference, poisoned))
    return {
        "submissions": submissions,
        "bit_exact": bit_exact,
        "parity_failures": parity_failures,
        "ok": bit_exact and parity_failures > 0,
    }


def format_selection_drill(report: dict) -> str:
    """Human-readable drill verdict for the CLI."""
    lines = [f"selection drill (seed {report['seed']}, "
             f"{report['requests']} requests/key)"]
    lines.append(f"{'key':<12} {'oracle':<22} {'chosen':<22} "
                 f"{'regret%':>8} {'explored':>8}  verdict")
    for entry in report["keys"]:
        verdict = "ok" if entry["oracle_hit"] and entry["converged"] \
            else "FAIL"
        lines.append(f"{entry['name']:<12} {entry['oracle']:<22} "
                     f"{str(entry['chosen']):<22} "
                     f"{entry['regret_pct']:>8.2f} "
                     f"{entry['explored']:>8}  {verdict}")
    warm = report["warm_start"]
    lines.append(f"warm start: loaded={warm['loaded']} "
                 f"explored={warm['explored']} "
                 f"oracle_hit={warm['oracle_hit']} "
                 f"-> {'ok' if report['warm_ok'] else 'FAIL'}")
    shadow = report["shadow"]
    lines.append(f"shadow safety: bit_exact={shadow['bit_exact']} "
                 f"parity_failures={shadow['parity_failures']} "
                 f"-> {'ok' if report['shadow_ok'] else 'FAIL'}")
    lines.append(f"drill {'OK' if report['ok'] else 'FAILED'}")
    return "\n".join(lines)
