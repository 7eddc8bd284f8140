"""Noise-aware performance-regression gate (``repro bench --check``).

Compares a freshly measured :mod:`repro.bench` report against a committed
baseline JSON.  Every report section declares its gated metrics once
(:data:`repro.bench.SECTIONS`), each of one kind: ``wall`` (relative,
``1 + tolerance``, skipped below ``min_ms``), ``counter`` (relative,
``1 + counter_tolerance``; an ``exact`` counter may not grow at all),
``rate`` (may not fall below ``baseline * (1 - tolerance)``), ``floor``
(an absolute lower bound the entry carries, optionally only while a
``gate`` field is true), ``ceiling`` (an absolute upper bound) or
``flag`` (must be true).  Entries are matched by name and ignored when
present on one side only, except in sections that need no baseline, whose
floors, ceilings and flags bind on day one.  DESIGN.md ("Regression
gate") tabulates every gated metric and its bound.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

DEFAULT_TOLERANCE = 0.5
DEFAULT_COUNTER_TOLERANCE = 0.1
DEFAULT_MIN_MS = 0.05

#: The :class:`Regression` kind each metric kind reports as.
_REPORTED = {"wall": "wall", "counter": "counter", "rate": "throughput",
             "floor": "throughput", "ceiling": "ceiling", "flag": "flag"}


@dataclass(frozen=True)
class Metric:
    """One gated metric of a report section (kinds: see the module doc).

    *key* names the entry field; ``"counters.fft_rows"`` reads the nested
    counters dict.  *bound* is the entry field holding a floor/ceiling, or
    the bound itself.
    """

    key: str
    kind: str
    bound: str | float | None = None
    gate: str | None = None
    exact: bool = False

    @property
    def name(self) -> str:
        return self.key.rsplit(".", 1)[-1]

    def bound_in(self, entry: dict):
        if isinstance(self.bound, str):
            return entry.get(self.bound)
        return self.bound


def entry_value(entry: dict, key: str):
    """The (possibly nested, dot-separated) field *key* of *entry*."""
    for part in key.split("."):
        entry = (entry or {}).get(part)
    return entry


@dataclass(frozen=True)
class Regression:
    """One metric of one case exceeding its allowed ratio or bound."""

    case: str
    metric: str
    kind: str  # 'wall' | 'counter' | 'throughput' | 'ceiling' | 'flag'
    baseline: float
    current: float
    limit: float

    @property
    def ratio(self) -> float:
        return self.current / self.baseline if self.baseline else float("inf")

    def describe(self) -> str:
        if self.kind == "flag":
            return f"{self.case}: {self.metric} is false"
        if self.kind == "ceiling":
            return (f"{self.case}: {self.metric} {self.current:g} exceeded "
                    f"its ceiling {self.limit:g}")
        if self.kind == "throughput":
            # Throughput regresses downward: the limit is a floor.
            return (f"{self.case}: {self.metric} {self.current:g} fell "
                    f"below its floor {self.limit:g} "
                    f"(baseline {self.baseline:g})")
        unit = " ms" if self.kind == "wall" else ""
        if not self.baseline:
            return (f"{self.case}: {self.metric} {self.baseline:g}{unit} -> "
                    f"{self.current:g}{unit} (must not grow)")
        return (f"{self.case}: {self.metric} {self.baseline:g}{unit} -> "
                f"{self.current:g}{unit} ({self.ratio:.2f}x, "
                f"limit {self.limit:.2f}x)")


def _check(metric: Metric, cur: dict, base: dict, tolerance: float,
           counter_tolerance: float, min_ms: float) -> Regression | None:
    """The regression of one metric of one entry, or None if it holds."""
    if metric.kind == "flag":
        if cur.get(metric.key, True):
            return None
        return Regression(cur["name"], metric.name, "flag", 1.0, 0.0, 1.0)
    c, b = entry_value(cur, metric.key), entry_value(base, metric.key)
    if c is None:
        return None
    if metric.kind == "wall":
        limit = 1.0 + tolerance
        failed = bool(b) and b >= min_ms and c / b > limit
    elif metric.kind == "counter" and metric.exact:
        limit, failed = 1.0, b is not None and c > b
    elif metric.kind == "counter":
        limit = 1.0 + counter_tolerance
        failed = bool(b) and c / b > limit
    elif metric.kind == "rate":
        limit = (b or 0.0) * max(1.0 - tolerance, 0.0)
        failed = bool(b) and c < limit
    elif metric.kind == "floor":
        limit = metric.bound_in(cur) or metric.bound_in(base)
        failed = bool(limit) and c < limit \
            and (metric.gate is None or bool(cur.get(metric.gate)))
        b = b or 0.0
    else:  # ceiling
        limit, b = metric.bound_in(cur), 0.0
        failed = limit is not None and c > limit
    if not failed:
        return None
    return Regression(cur["name"], metric.name, _REPORTED[metric.kind], b, c,
                      limit)


def compare_reports(current: dict, baseline: dict,
                    tolerance: float = DEFAULT_TOLERANCE,
                    counter_tolerance: float = DEFAULT_COUNTER_TOLERANCE,
                    min_ms: float = DEFAULT_MIN_MS) -> list[Regression]:
    """All regressions of *current* against *baseline* (empty == pass)."""
    from repro.bench import SECTIONS

    regressions = []
    for section in SECTIONS.values():
        base_by_name = {e["name"]: e for e in baseline.get(section.name, [])}
        for cur in current.get(section.name, []):
            base = base_by_name.get(cur["name"])
            if base is None and section.needs_baseline:
                continue
            for metric in section.metrics:
                found = _check(metric, cur, base or {}, tolerance,
                               counter_tolerance, min_ms)
                if found is not None:
                    regressions.append(found)
    return regressions


def load_baseline(path: str) -> dict:
    """Read a committed baseline report."""
    with open(path) as fh:
        return json.load(fh)


def format_check(regressions: list[Regression], baseline_path: str,
                 tolerance: float, counter_tolerance: float) -> str:
    """Human-readable verdict for the CLI."""
    if not regressions:
        return (f"bench check OK against {baseline_path} "
                f"(tolerance {tolerance:g}, "
                f"counters {counter_tolerance:g})")
    lines = [f"bench check FAILED against {baseline_path}: "
             f"{len(regressions)} regression(s)"]
    lines += [f"  {r.describe()}" for r in regressions]
    return "\n".join(lines)
