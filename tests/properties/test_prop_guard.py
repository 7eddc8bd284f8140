"""Property-based tests: sentinels and the fallback chain under
adversarial numerics.

The strategies deliberately visit the float64 extremes ordinary unit-normal
tests never reach — subnormals, magnitudes around 1e+/-30, values within a
few bits of overflow — because that is exactly where a magnitude-bound
sentinel can misfire (flagging healthy results) or go blind (passing
blowups).
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.baselines.naive import convnd_naive
from repro.guard import faults
from repro.guard.chain import guarded_conv2d, reset_guard
from repro.guard.sentinel import HEALTHY, SUSPECT, classify
from repro.guard.state import guarded
from repro.utils.shapes import ConvShape
from tests.conftest import assert_conv_close

#: Scales spanning subnormal, tiny, unit, huge and near-overflow regimes.
#: max|out| <= max|x| * ||w||_1, so pairing 1e30 with 1e30 stays ~1e61,
#: far from the 1.8e308 overflow ceiling; the near-overflow entry is only
#: paired with unit-scale partners below.
ADVERSARIAL_SCALES = (
    5e-324,   # smallest subnormal
    1e-300,
    1e-30,
    1.0,
    1e30,
)
NEAR_OVERFLOW = 1e150


@st.composite
def adversarial_problems(draw):
    """A small conv problem with adversarially scaled input and weight."""
    ih = draw(st.integers(4, 10))
    iw = draw(st.integers(4, 10))
    kh = draw(st.integers(1, 3))
    kw = draw(st.integers(1, 3))
    padding = draw(st.integers(0, 1))
    shape = ConvShape((ih, iw), (kh, kw), n=1, c=draw(st.integers(1, 2)),
                      f=draw(st.integers(1, 2)), padding=padding)
    x_scale = draw(st.sampled_from(ADVERSARIAL_SCALES + (NEAR_OVERFLOW,)))
    # Keep the product of scales below overflow: the near-overflow scale
    # only ever pairs with a unit-scale partner.
    w_scale = 1.0 if x_scale == NEAR_OVERFLOW else \
        draw(st.sampled_from(ADVERSARIAL_SCALES))
    seed = draw(st.integers(0, 2 ** 31 - 1))
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(shape.input_shape()) * x_scale
    w = rng.standard_normal(shape.weight_shape()) * w_scale
    return shape, x, w


@given(adversarial_problems())
def test_sentinel_accepts_exact_results_at_any_scale(problem):
    """The naive result obeys the exact-arithmetic bound by construction,
    so the sentinel must classify it healthy at every dynamic range —
    subnormal outputs included."""
    shape, x, w = problem
    out = convnd_naive(x, w, padding=shape.padding)
    verdict = classify(out, x, w, shape.poly_product_len)
    assert verdict.status == HEALTHY, verdict.reason


@given(adversarial_problems())
def test_sentinel_flags_blowups_whose_scale_it_can_see(problem):
    """A 1e12-scaled output must read suspect whenever the blowup exceeds
    the predicted-error allowance (for vanishing outputs the allowance's
    max(B, 1) floor legitimately absorbs it)."""
    shape, x, w = problem
    out = convnd_naive(x, w, padding=shape.padding)
    blown = out * 1e12
    verdict = classify(blown, x, w, shape.poly_product_len)
    healthy_verdict = classify(out, x, w, shape.poly_product_len)
    peak = float(np.max(np.abs(blown))) if blown.size else 0.0
    threshold = healthy_verdict.bound + healthy_verdict.predicted_error
    if peak > 2 * threshold:
        assert verdict.status == SUSPECT
    else:
        assert verdict.status == HEALTHY


@pytest.mark.parametrize("kind", ["nan_input", "backend_error",
                                  "accuracy_blowup"])
@settings(max_examples=10)
@given(problem=adversarial_problems(), seed=st.integers(0, 2 ** 16))
def test_chain_recovers_reference_under_fault(problem, seed, kind):
    """Whatever the dynamic range, an injected fault must never reach the
    caller: the guarded forward matches the naive reference."""
    shape, x, w = problem
    ref = convnd_naive(x, w, padding=shape.padding)
    reset_guard()
    with guarded(), faults.inject(kind, seed=seed), \
            np.errstate(invalid="ignore", over="ignore"):
        out = guarded_conv2d(x, w, padding=shape.padding)
    reset_guard()
    assert_conv_close(out, ref)
