"""GPU performance-model substrate.

Replaces the paper's measured GPU wall-clock and NVIDIA performance
counters (see the substitution table in DESIGN.md):

- :mod:`repro.perfmodel.device` — the paper's three GPUs;
- :mod:`repro.perfmodel.counters` — per-algorithm FLOP / memory-transaction
  models (Tables 2-3, Fig. 7);
- :mod:`repro.perfmodel.timing` — roofline timing (Figs. 3-6);
- :mod:`repro.perfmodel.calibration` — per-stage-kind efficiencies.
"""

from repro.core.planning import polyhankel_block_size
from repro.perfmodel.counters import (
    CounterReport,
    Stage,
    count,
    modeled_algorithms,
)
from repro.perfmodel.device import (
    A10G,
    DEVICES,
    PAPER_DEVICES,
    RTX_3090TI,
    V100,
    GpuDevice,
    get_device,
)
from repro.perfmodel.timing import (
    StageTime,
    TimingReport,
    compare,
    simulate,
    simulate_ms,
)

__all__ = [
    "GpuDevice", "get_device", "DEVICES", "PAPER_DEVICES",
    "RTX_3090TI", "A10G", "V100",
    "Stage", "CounterReport", "count", "modeled_algorithms",
    "polyhankel_block_size",
    "StageTime", "TimingReport", "simulate", "simulate_ms", "compare",
]
