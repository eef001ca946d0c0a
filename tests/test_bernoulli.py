"""Bernoulli numbers, polynomials, and the RationalPoly container."""

from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from powerdenom.bernoulli import BernoulliCache, RationalPoly
from powerdenom.digits import p_valuation, primes_up_to

CACHE = BernoulliCache()

F = Fraction

KNOWN_NUMBERS = {
    0: F(1),
    1: F(-1, 2),
    2: F(1, 6),
    4: F(-1, 30),
    6: F(1, 42),
    8: F(-1, 30),
    10: F(5, 66),
    12: F(-691, 2730),
    14: F(7, 6),
}


@pytest.mark.parametrize("n,value", sorted(KNOWN_NUMBERS.items()))
def test_known_numbers(n, value):
    assert CACHE.number(n) == value


def test_odd_numbers_vanish():
    for n in range(3, 100, 2):
        assert CACHE.number(n) == 0


def test_defining_recurrence_reasserted():
    # the same identity the computation uses, checked independently
    nums = CACHE.numbers(120)
    for n in range(2, 121):
        assert sum(comb(n, k) * nums[k] for k in range(n)) == 0


def test_numbers_prefix_consistency():
    assert CACHE.numbers(10)[:6] == CACHE.numbers(5)
    assert len(CACHE.numbers(0)) == 1


def test_number_rejects_negative_index():
    with pytest.raises(ValueError):
        CACHE.number(-1)


def test_small_polynomials():
    assert CACHE.polynomial(0) == RationalPoly((1,))
    assert CACHE.polynomial(1) == RationalPoly((F(-1, 2), 1))
    assert CACHE.polynomial(2) == RationalPoly((F(1, 6), -1, 1))
    assert CACHE.polynomial(3) == RationalPoly((0, F(1, 2), F(-3, 2), 1))


def test_polynomial_shape():
    for n in range(61):
        f = CACHE.polynomial(n)
        assert f.degree == n
        assert f.coeffs[-1] == 1
        assert f.coefficient(0) == CACHE.number(n)


def test_value_at_fixed_points():
    for n in range(40):
        assert CACHE.value_at(n, 0) == CACHE.number(n)
        if n != 1:
            assert CACHE.value_at(n, 1) == CACHE.number(n)
    assert CACHE.value_at(1, 1) == F(1, 2)
    assert CACHE.value_at(2, F(1, 2)) == F(-1, 12)


@given(
    st.integers(min_value=0, max_value=35),
    st.fractions(min_value=-6, max_value=6, max_denominator=12),
)
def test_value_at_matches_polynomial(n, y):
    assert CACHE.value_at(n, y) == CACHE.polynomial(n)(y)


def test_von_staudt_clausen_to_400():
    nums = CACHE.numbers(400)
    for n in range(1, 401):
        if n == 1:
            assert nums[n].denominator == 2
        elif n % 2:
            assert nums[n] == 0
        else:
            product = 1
            for p in primes_up_to(n + 1):
                if n % (p - 1) == 0:
                    product *= p
            assert nums[n].denominator == product


def _fraction_valuation(p: int, q: Fraction) -> int:
    return p_valuation(p, q.numerator) - p_valuation(p, q.denominator)


def test_divided_bernoulli_valuation():
    # v_p(B_n / n) is exactly -(v_p(n) + 1) at primes with p-1 | n, and
    # never negative elsewhere
    nums = CACHE.numbers(200)
    for n in range(2, 201, 2):
        divided = nums[n] / n
        for p in primes_up_to(50):
            v = _fraction_valuation(p, divided)
            if n % (p - 1) == 0:
                assert v == -(p_valuation(p, n) + 1), (n, p)
            else:
                assert v >= 0, (n, p)


@pytest.mark.parametrize("y", [F(1), F(1, 2), F(-2)])
def test_appell_translation(y):
    # B_n(x + y) expanded in powers of x has coefficients C(n,k) B_(n-k)(y)
    shift = RationalPoly((y, 1))
    for n in range(31):
        left = CACHE.polynomial(n).substituted(shift)
        right = RationalPoly(
            comb(n, j) * CACHE.value_at(n - j, y) for j in range(n + 1)
        )
        assert left == right, n


def test_reflection():
    mirror = RationalPoly((1, -1))
    for n in range(51):
        reflected = CACHE.polynomial(n).substituted(mirror)
        expected = CACHE.polynomial(n) * (-1 if n % 2 else 1)
        assert reflected == expected, n


def test_forward_difference():
    step = RationalPoly((1, 1))
    for n in range(1, 51):
        f = CACHE.polynomial(n)
        diff = f.substituted(step) - f
        assert diff == RationalPoly([0] * (n - 1) + [n]), n


# RationalPoly behavior


def test_poly_trimming_and_degree():
    assert RationalPoly((0, 0)).is_zero
    assert RationalPoly(()).degree == -1
    assert RationalPoly((1, 2, 0)).coeffs == (1, 2)
    assert RationalPoly((0, 0, F(1, 3))).degree == 2


def test_poly_denominator():
    assert RationalPoly(()).denominator == 1
    assert RationalPoly((1,)).denominator == 1
    assert RationalPoly((F(1, 6), -1, 1)).denominator == 6
    assert RationalPoly((0, F(1, 6), F(-1, 2), F(1, 3))).denominator == 6


def test_poly_evaluation():
    f = RationalPoly((F(1, 2), 0, 1))  # x^2 + 1/2
    assert f(2) == F(9, 2)
    assert f(F(1, 2)) == F(3, 4)
    assert RationalPoly(())(5) == 0


small_fractions = st.fractions(min_value=-5, max_value=5, max_denominator=6)
small_polys = st.lists(small_fractions, max_size=6).map(RationalPoly)


@settings(max_examples=60)
@given(small_polys, small_polys, small_fractions)
def test_poly_ring_operations_evaluate_pointwise(f, g, x):
    assert (f + g)(x) == f(x) + g(x)
    assert (f - g)(x) == f(x) - g(x)
    assert (f * g)(x) == f(x) * g(x)
    assert (-f)(x) == -f(x)
    assert (3 * f)(x) == 3 * f(x)


@settings(max_examples=40)
@given(small_polys, small_polys, small_fractions)
def test_poly_composition_evaluates_pointwise(f, g, x):
    assert f.substituted(g)(x) == f(g(x))


def test_poly_equality_and_hash():
    a = RationalPoly((1, 2))
    b = RationalPoly((F(2, 2), F(4, 2), 0))
    assert a == b
    assert hash(a) == hash(b)
    assert a != RationalPoly((1,))


def test_scaled_numbers_clear_denominators():
    scale, scaled = CACHE.scaled_numbers(12)
    nums = CACHE.numbers(12)
    assert all(scale * b == s for b, s in zip(nums, scaled))
    assert scale == 30030  # lcm of 1, 2, 6, 30, 42, 66, 2730
