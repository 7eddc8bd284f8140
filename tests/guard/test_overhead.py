"""Disabled-guard overhead must stay under 3% on the cached hot path.

The guard adds a handful of hook sites to the steady-state engine call:
``if faults._STACK:`` truth tests around the fault injectors and
``guard_enabled()`` calls gating checksum verification and sentinel
classification.  As with the span-overhead test in
``tests/observe/test_overhead.py``, diffing two timing runs of a
sub-millisecond call measures machine noise, so this pins the *per-site*
disabled cost and checks that all sites together stay under the budget.
"""

import time

from repro.core import multichannel as mc
from repro.guard import faults
from repro.guard.state import guard_enabled
from repro.utils.random import random_problem
from repro.utils.shapes import ConvShape

#: Upper bound on guard hook sites crossed by one cached engine call
#: (input poison, output blowup, spectrum corruption + checksum gate,
#: backend fault checks in forward/inverse FFT, layer-level gates).
SITES_PER_CALL = 8
MAX_OVERHEAD = 0.03


def _best_of(fn, repeats: int, number: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(number):
            fn()
        best = min(best, (time.perf_counter() - start) / number)
    return best


def test_disabled_guard_overhead_under_three_percent():
    assert not guard_enabled()
    assert not faults._STACK

    def one_site():
        # The two disabled-state checks every hook site reduces to.
        if faults._STACK:  # pragma: no cover - disabled in this test
            raise AssertionError
        guard_enabled()

    site_s = _best_of(one_site, repeats=5, number=10_000)

    shape = ConvShape((32, 32), (3, 3), n=4, c=8, f=16, padding=1)
    x, w = random_problem(shape)
    plan = mc.get_plan(shape, strategy="sum", backend="numpy")
    w_hat = plan.transform_weight(w)
    plan.execute(x, w_hat)  # warm
    call_s = _best_of(lambda: plan.execute(x, w_hat), repeats=5, number=20)

    overhead = SITES_PER_CALL * site_s / call_s
    assert overhead < MAX_OVERHEAD, (
        f"disabled guard site costs {site_s * 1e9:.0f} ns; "
        f"{SITES_PER_CALL} sites = {100 * overhead:.2f}% of a "
        f"{call_s * 1e3:.3f} ms steady-state call"
    )
