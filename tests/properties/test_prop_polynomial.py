"""Property-based tests: Polynomial obeys commutative-ring axioms."""

import numpy as np
from hypothesis import example, given, strategies as st

from repro.core.polynomial import Polynomial

coeff_lists = st.lists(
    st.floats(-10, 10, allow_nan=False, allow_infinity=False),
    min_size=1, max_size=16,
)


@given(coeff_lists, coeff_lists)
def test_addition_commutes(a, b):
    pa, pb = Polynomial(a), Polynomial(b)
    assert pa + pb == pb + pa


@given(coeff_lists, coeff_lists)
def test_multiplication_commutes(a, b):
    pa, pb = Polynomial(a), Polynomial(b)
    assert pa * pb == pb * pa


@given(coeff_lists, coeff_lists, coeff_lists)
# 0.5 * 5e-324 underflows to 0, so the two products trim to different
# lengths although they agree as polynomials.
@example(a=[0.0, 2.0], b=[0.5], c=[5e-324])
def test_multiplication_associates(a, b, c):
    pa, pb, pc = Polynomial(a), Polynomial(b), Polynomial(c)
    lhs = (pa * pb) * pc
    rhs = pa * (pb * pc)
    np.testing.assert_allclose((lhs - rhs).coeffs, 0.0,
                               atol=1e-6 * (1 + np.abs(lhs.coeffs).max()))


@given(coeff_lists, coeff_lists, coeff_lists)
def test_distributivity(a, b, c):
    pa, pb, pc = Polynomial(a), Polynomial(b), Polynomial(c)
    lhs = pa * (pb + pc)
    rhs = pa * pb + pa * pc
    np.testing.assert_allclose(lhs.coeffs[: len(rhs.coeffs)],
                               rhs.coeffs[: len(lhs.coeffs)],
                               atol=1e-6 * (1 + np.abs(lhs.coeffs).max()))


@given(coeff_lists)
def test_multiplicative_identity(a):
    p = Polynomial(a)
    assert p * Polynomial([1.0]) == p


@given(coeff_lists)
def test_zero_annihilates(a):
    p = Polynomial(a)
    assert p * Polynomial.zero() == Polynomial.zero()


@given(coeff_lists, coeff_lists)
def test_fft_mul_equals_naive_mul(a, b):
    pa, pb = Polynomial(a), Polynomial(b)
    naive = pa.naive_mul(pb)
    fast = pa.fft_mul(pb)
    np.testing.assert_allclose(fast.coeffs, naive.coeffs,
                               atol=1e-6 * (1 + np.abs(naive.coeffs).max()))


@given(coeff_lists, coeff_lists,
       st.floats(-2, 2, allow_nan=False, allow_infinity=False))
def test_evaluation_is_ring_homomorphism(a, b, t):
    pa, pb = Polynomial(a), Polynomial(b)
    np.testing.assert_allclose((pa * pb)(t), pa(t) * pb(t),
                               rtol=1e-6, atol=1e-5)
    np.testing.assert_allclose((pa + pb)(t), pa(t) + pb(t),
                               rtol=1e-6, atol=1e-6)


@given(coeff_lists, coeff_lists)
def test_degree_of_product(a, b):
    pa, pb = Polynomial(a), Polynomial(b)
    if pa == Polynomial.zero() or pb == Polynomial.zero():
        return
    assert (pa.naive_mul(pb)).degree <= pa.degree + pb.degree
