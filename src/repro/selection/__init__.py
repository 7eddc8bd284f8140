"""Convolution algorithm selection: static heuristics and measurement.

Three selectors, in order of information available:

- :func:`select_algorithm_rules` — closed-form O(1) rules from the paper;
- :func:`select_algorithm` — roofline-model argmin with a deterministic
  tie-break (the oracle the cost model supports);
- :class:`~repro.selection.bandit.SelectionBandit` — per-key measured
  selection, warm-started from the model and converged on measurement:
  online over live serving traffic, or offline by ``repro tune``
  (:meth:`~repro.selection.bandit.SelectionBandit.tune`), which fills
  the persisted table a server warm-starts from.
"""

from repro.selection.bandit import (
    BanditConfig,
    SelectionBandit,
    SelectionTableError,
    active_bandit,
    disable_bandit,
    enable_bandit,
    format_selection_stats,
    load_table,
    save_table,
)
from repro.selection.heuristic import (
    CANDIDATES,
    TIE_BREAK,
    SelectionResult,
    select_algorithm,
    select_algorithm_rules,
)

__all__ = [
    "CANDIDATES",
    "TIE_BREAK",
    "SelectionResult",
    "select_algorithm",
    "select_algorithm_rules",
    "BanditConfig",
    "SelectionBandit",
    "SelectionTableError",
    "active_bandit",
    "enable_bandit",
    "disable_bandit",
    "format_selection_stats",
    "load_table",
    "save_table",
]
