"""Disabled tracing must be effectively free on the cached steady state.

The engine's steady-state call crosses roughly a dozen ``span()`` sites
(plan lookup, pad, forward FFT, pointwise, inverse FFT, gather, plus the
backend wrappers).  Rather than diffing two timing runs of the same call —
which measures machine noise more than instrument cost on a sub-millisecond
call — this pins the *per-site* disabled cost directly and checks that a
dozen sites amount to under 2% of the measured steady-state call.
"""

import time

import pytest

from repro.core import multichannel as mc
from repro.observe import span, tracing_enabled
from repro.utils.random import random_problem
from repro.utils.shapes import ConvShape

#: Upper bound on span() call sites crossed by one cached engine call.
SITES_PER_CALL = 12
MAX_OVERHEAD = 0.02


def _best_of(fn, repeats: int, number: int) -> float:
    """Best per-iteration seconds over *repeats* batches of *number*."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(number):
            fn()
        best = min(best, (time.perf_counter() - start) / number)
    return best


def test_disabled_span_overhead_under_two_percent():
    assert not tracing_enabled()

    def one_site():
        with span("hot", n=512, rows=8):
            pass

    site_s = _best_of(one_site, repeats=5, number=10_000)

    # A representative (not toy) steady-state call: the bench suite's
    # smallest realistic shape.  Toy 16x16 single-image calls finish in
    # ~50 us where a dozen ~300 ns sites would read as several percent;
    # the instrument cost is fixed per call, not proportional.
    shape = ConvShape((32, 32), (3, 3), n=4, c=8, f=16, padding=1)
    x, w = random_problem(shape)
    plan = mc.get_plan(shape, strategy="sum", backend="numpy")
    w_hat = plan.transform_weight(w)
    plan.execute(x, w_hat)  # warm
    call_s = _best_of(lambda: plan.execute(x, w_hat), repeats=5, number=20)

    overhead = SITES_PER_CALL * site_s / call_s
    assert overhead < MAX_OVERHEAD, (
        f"disabled span() costs {site_s * 1e9:.0f} ns/site; "
        f"{SITES_PER_CALL} sites = {100 * overhead:.2f}% of a "
        f"{call_s * 1e3:.3f} ms steady-state call"
    )


def test_disabled_span_allocates_no_record():
    first = span("a", n=1)
    second = span("b", rows=2)
    assert first is second, "disabled span() must return the shared no-op"


@pytest.mark.parametrize("attrs", [{}, {"n": 512}, {"n": 512, "rows": 8}])
def test_disabled_span_is_context_manager(attrs):
    with span("x", **attrs) as s:
        s.add_attrs(bytes=1)
