"""The three denominator sequences, their variants, and the quotients."""

import random
from itertools import chain
from math import lcm

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from powerdenom.bernoulli import BernoulliCache
from powerdenom.denom import (
    DenomTriple,
    clear_formula_caches,
    denominator_triple,
    first_index_digit_sum_reaches,
    full_denom,
    full_denom_direct,
    full_denom_quotient,
    full_denom_split_product,
    full_denom_via_successor,
    nonconstant_denom,
    nonconstant_denom_all_primes,
    nonconstant_denom_direct,
    nonconstant_quotient,
    number_denom,
    number_denom_direct,
)
from powerdenom.digits import SquarefreeProduct, digit_sum, primes_up_to
from powerdenom.errors import SearchCapExceeded

CACHE = BernoulliCache()

NONCONSTANT_1_21 = [1, 1, 2, 1, 6, 2, 6, 3, 10, 2, 6, 2, 210, 30, 6, 3, 30, 10, 210, 42, 330]
FULL_1_18 = [2, 6, 2, 30, 6, 42, 6, 30, 10, 66, 6, 2730, 210, 30, 6, 510, 30, 3990]
NUMBER_1_20 = [2, 6, 1, 30, 1, 42, 1, 30, 1, 66, 1, 2730, 1, 6, 1, 510, 1, 798, 1, 330]
NONCONSTANT_QUOT = [1, 2, 3, 2, 5, 3, 7, 2, 3, 5, 11, 1, 13, 7, 15, 2, 17, 3, 19, 5, 7]
FULL_QUOT = [3, 5, 7, 3, 11, 13, 5, 17, 19, 7, 23, 5, 3, 29, 31, 11, 35, 37]


def test_nonconstant_list():
    assert [nonconstant_denom(n).value for n in range(1, 22)] == NONCONSTANT_1_21


def test_full_list():
    assert [full_denom(n).value for n in range(1, 19)] == FULL_1_18


def test_number_list():
    assert [number_denom(n).value for n in range(1, 21)] == NUMBER_1_20


def test_quotient_lists():
    assert [nonconstant_quotient(n) for n in range(1, 42, 2)] == NONCONSTANT_QUOT
    assert [full_denom_quotient(n) for n in range(2, 38, 2)] == FULL_QUOT


def test_number_denom_spot_values():
    assert number_denom(14).value == 6
    for n in range(3, 60, 2):
        assert number_denom(n).value == 1


def test_oracle_equivalence_to_300():
    for n in range(1, 301):
        assert nonconstant_denom(n).value == nonconstant_denom_direct(CACHE, n), n
        assert number_denom(n).value == number_denom_direct(CACHE, n), n
        assert full_denom(n).value == full_denom_direct(CACHE, n), n


def test_full_denom_variants_agree():
    for n in range(1, 1001):
        value = full_denom(n).value
        assert full_denom_via_successor(n).value == value, n
        assert full_denom_split_product(n).value == value, n
        assert value == lcm(nonconstant_denom(n).value, number_denom(n).value), n


def _sqrt_boundary_indices():
    # indices where a prime sits at or next to sqrt(n), or where n // p jumps
    for p in primes_up_to(300):
        yield from (p * p - 1, p * p, p * p + 1, p * (p + 1) - 1, p * (p + 1))


def test_bounded_and_unbounded_scans_agree():
    rng = random.Random(2017)
    large = [rng.randrange(10**5, 10**6) for _ in range(20)]
    for n in chain(range(1, 5001), large, _sqrt_boundary_indices()):
        assert nonconstant_denom(n).primes == nonconstant_denom_all_primes(n).primes, n


def test_number_denom_matches_sieve_filter():
    for n in range(2, 20001, 2):
        reference = tuple(p for p in primes_up_to(n + 1) if n % (p - 1) == 0)
        assert number_denom(n).primes == reference, n


def test_products_are_valid_squarefree():
    for n in range(1, 120):
        for sp in (nonconstant_denom(n), number_denom(n), full_denom(n)):
            sp.validate()


def test_nonconstant_odd_iff_power_of_two_small():
    odd_indices = {n for n in range(1, 257) if nonconstant_denom(n).value % 2}
    assert odd_indices == {1, 2, 4, 8, 16, 32, 64, 128, 256}


def test_formula_prime_membership_matches_digit_condition():
    # the digit-sum rule decides membership for every prime up to n
    for n in (13, 22, 64, 97):
        included = set(nonconstant_denom_all_primes(n).primes)
        for p in primes_up_to(n):
            assert (p in included) == (digit_sum(p, n) >= p), (n, p)


def test_quotients_reject_wrong_parity():
    with pytest.raises(ValueError):
        nonconstant_quotient(2)
    with pytest.raises(ValueError):
        nonconstant_quotient(0)
    with pytest.raises(ValueError):
        full_denom_quotient(3)
    with pytest.raises(ValueError):
        full_denom_quotient(0)


def test_sequences_reject_nonpositive_index():
    for fn in (nonconstant_denom, nonconstant_denom_all_primes, number_denom,
               full_denom, full_denom_via_successor, full_denom_split_product,
               denominator_triple):
        with pytest.raises(ValueError):
            fn(0)
    with pytest.raises(ValueError):
        nonconstant_denom_direct(CACHE, -3)


def test_denominator_triple_structure():
    for n in range(1, 201):
        triple = denominator_triple(n)
        assert triple.full.value == lcm(triple.nonconstant.value, triple.number.value)
        assert triple.full.value % 2 == 0


def test_denominator_triple_rejects_inconsistent_parts():
    from powerdenom.errors import TheoremViolationError

    two = SquarefreeProduct.of([2])
    six = SquarefreeProduct.of([2, 3])
    with pytest.raises(TheoremViolationError):
        DenomTriple(1, six, two, two)  # full != lcm(parts)
    odd = SquarefreeProduct.of([3])
    with pytest.raises(TheoremViolationError):
        DenomTriple(1, odd, odd, odd)  # full must be even


def test_first_index_examples():
    assert first_index_digit_sum_reaches(3, 2) == 3
    assert first_index_digit_sum_reaches(5, 2) == 6
    for q in (3, 5, 7, 11, 47):
        assert first_index_digit_sum_reaches(2, q) == 1


def test_first_index_really_is_first():
    for p, q in ((3, 2), (5, 2), (7, 2), (5, 3), (11, 7)):
        k = first_index_digit_sum_reaches(p, q)
        assert digit_sum(p, q**k) >= p
        for j in range(1, k):
            assert digit_sum(p, q**j) < p


def test_first_index_input_validation():
    with pytest.raises(ValueError):
        first_index_digit_sum_reaches(4, 3)
    with pytest.raises(ValueError):
        first_index_digit_sum_reaches(3, 9)
    with pytest.raises(ValueError):
        first_index_digit_sum_reaches(5, 5)


def test_first_index_cap_is_reported_distinctly():
    with pytest.raises(SearchCapExceeded):
        first_index_digit_sum_reaches(5, 2, cap=5)  # true first index is 6


def test_clear_formula_caches_preserves_values():
    before = [nonconstant_denom(n).value for n in range(1, 40)]
    clear_formula_caches()
    assert [nonconstant_denom(n).value for n in range(1, 40)] == before


@settings(max_examples=80)
@given(st.integers(min_value=1, max_value=999).map(lambda k: 2 * k + 1))
def test_quotient_divides_exactly_at_odd_indices(n):
    q = nonconstant_quotient(n)
    assert nonconstant_denom(n).value == q * nonconstant_denom(n + 1).value


@settings(max_examples=80)
@given(st.integers(min_value=1, max_value=1000).map(lambda k: 2 * k))
def test_full_quotient_divides_exactly_at_even_indices(n):
    q = full_denom_quotient(n)
    assert full_denom(n).value == q * full_denom(n + 1).value
    assert q % 2 == 1
