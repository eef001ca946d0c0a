"""Digit sums, valuations, radicals, sieve vs. trial division."""

import math
import pickle
import random
from bisect import bisect_right
from itertools import chain

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from powerdenom import digits
from powerdenom.digits import (
    SquarefreeProduct,
    digit_sum,
    factorize,
    is_prime,
    p_valuation,
    prime_flags,
    primes_up_to,
    radical,
    sieve_primes,
)

PRIMES_50 = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47]


def test_digit_sum_rejects_bad_input():
    with pytest.raises(ValueError):
        digit_sum(1, 5)
    with pytest.raises(ValueError):
        digit_sum(2, -1)


@given(st.integers(min_value=0, max_value=10**12), st.integers(min_value=2, max_value=40))
def test_digit_sum_satisfies_legendre(n, base):
    # sum_{i>=1} floor(n / b^i) = (n - s_b(n)) / (b - 1), the floors taken
    # without any digit loop; b^i > n once i reaches the bit length of n
    floors = sum(n // base**i for i in range(1, n.bit_length() + 1))
    assert floors * (base - 1) == n - digit_sum(base, n)


def test_digit_sum_examples():
    assert digit_sum(3, 8) == 4
    for p in (2, 3, 5, 13):
        for k in range(5):
            assert digit_sum(p, p**k) == 1
    for k in range(1, 12):
        assert digit_sum(2, 2**k - 1) == k


def test_digit_sum_step_relations_full_range():
    # three facts at once: the n -> n+1 step, the mod p-1 congruence, and
    # the plain +1 step whenever p does not divide n+1
    for p in PRIMES_50:
        s = digit_sum(p, 0)
        assert s == 0
        for n in range(10_000):
            s_next = digit_sum(p, n + 1)
            assert s_next == s + 1 - (p - 1) * p_valuation(p, n + 1)
            assert s_next % (p - 1) == (n + 1) % (p - 1)
            if (n + 1) % p:
                assert s_next == s + 1
            s = s_next


def test_p_valuation_examples():
    assert p_valuation(2, 8) == 3
    assert p_valuation(3, 8) == 0
    assert p_valuation(5, 250) == 3
    assert p_valuation(7, -49) == 2


def test_p_valuation_rejects_zero():
    with pytest.raises(ValueError):
        p_valuation(2, 0)
    with pytest.raises(ValueError):
        p_valuation(1, 6)


@given(
    st.sampled_from(PRIMES_50),
    st.integers(min_value=0, max_value=12),
    st.integers(min_value=1, max_value=10**6),
)
def test_p_valuation_splits_off_the_power(p, e, u):
    if u % p == 0:
        u += 1  # consecutive integers are never both multiples of p
    assert p_valuation(p, p**e * u) == e


def test_radical_examples():
    assert radical(1).value == 1
    assert radical(1).primes == ()
    assert radical(12).primes == (2, 3)
    assert radical(12).value == 6
    for p in (2, 3, 11):
        assert radical(p**4).primes == (p,)


def test_radical_rejects_nonpositive():
    with pytest.raises(ValueError):
        radical(0)


def test_factorize_to_5000(fresh_sieve):
    # the trial divisors reach sqrt(k) and no further: at the top of the
    # command line's range the flag table stays within 10**4 bytes
    assert factorize(10**8 + 1) == [(17, 1), (5882353, 1)]
    assert digits._sieve_limit <= 10**4
    # 9973^2, the square of the largest prime below 10**4; 99999989, the
    # largest prime below 10**8; a power of two whose cofactor ends at 1
    for k in chain(range(1, 5001), (9973**2, 99_999_989, 2**26, 10**8 + 1)):
        pairs = factorize(k)
        primes = tuple(p for p, _ in pairs)
        assert list(primes) == sorted(set(primes)), k
        assert all(is_prime(p) for p in primes), k
        assert math.prod(p**e for p, e in pairs) == k
        assert radical(k).primes == primes
    with pytest.raises(ValueError):
        factorize(0)


def test_factorize_stops_where_the_flag_table_flags_the_cofactor_prime(fresh_sieve):
    # from a table to sqrt(k) alone, and from one past every k, where each
    # cofactor left prime ends the trials
    ks = list(chain(range(1, 3001), (2 * 49999, 3**4 * 1201, 7 * 11 * 1291, 2**16, 313**2)))
    small = [factorize(k) for k in ks]
    assert digits._sieve_limit < 10**3
    prime_flags(10**5)
    for k, pairs in zip(ks, small):
        assert factorize(k) == pairs, k
        assert math.prod(p**e for p, e in pairs) == k
        assert all(is_prime(p) for p, _ in pairs), k
        assert [p for p, _ in pairs] == sorted({p for p, _ in pairs}), k


@given(st.integers(min_value=1, max_value=10**6))
def test_radical_divides_and_is_squarefree(k):
    r = radical(k)
    assert k % r.value == 0
    assert all(is_prime(p) for p in r.primes)
    for p in r.primes:
        assert r.value % (p * p) != 0


def test_primes_up_to_examples():
    assert primes_up_to(1) == []
    assert primes_up_to(0) == []
    assert primes_up_to(10) == [2, 3, 5, 7]
    assert primes_up_to(30) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]


def test_sieve_agrees_with_trial_division_to_1e5():
    sieved = primes_up_to(100_000)
    assert sieved == [n for n in range(100_001) if is_prime(n)]


def test_sieve_prefix_stability():
    big = primes_up_to(5000)
    assert primes_up_to(100) == [p for p in big if p <= 100]
    assert primes_up_to(4999) == [p for p in big if p <= 4999]


FLAG_TOP = 200_000
FLAG_BOUNDS = [1, 2, 3, 4, 5, 20, 97, 255, 256, 257, 600, 1000, 4097, 30_030, 65_537,
               123_457, FLAG_TOP]


@pytest.fixture(scope="module")
def trial_flags():
    return bytes(is_prime(j) for j in range(FLAG_TOP + 1))


@pytest.mark.parametrize("order", ["ascending", "descending", "shuffled", *range(1, 7)])
def test_flag_table_and_prime_list_match_trial_division(fresh_sieve, trial_flags, order):
    # from a fresh sieve; an int order is a seed for 12 bounds drawn with
    # repeats.  Each extension of the prime list resumes where the last one
    # stopped: one that resumed a step late would drop 3 after the bound 2
    bounds = sorted(FLAG_BOUNDS, reverse=order == "descending")
    if order == "shuffled":
        random.Random(2017).shuffle(bounds)
    if isinstance(order, int):
        rng = random.Random(order)
        bounds = [rng.choice(FLAG_BOUNDS) for _ in range(12)]
    trial_primes = [j for j in range(FLAG_TOP + 1) if trial_flags[j]]
    for b in bounds:
        assert primes_up_to(b) == trial_primes[: bisect_right(trial_primes, b)], b
        listed = sieve_primes(b)
        assert listed == trial_primes[: len(listed)], b
        assert len(listed) >= bisect_right(trial_primes, b), b
        flags = prime_flags(b)
        assert len(flags) > b
        top = min(len(flags), FLAG_TOP + 1)
        assert flags[:top] == trial_flags[:top], b
    assert prime_flags(FLAG_TOP)[: FLAG_TOP + 1] == trial_flags


def test_a_growing_flag_table_lets_go_of_the_old_one_first(fresh_sieve, monkeypatch):
    # the old table is no longer the module's when the new one is
    # allocated, so the two are not held at once; a view handed out
    # earlier still reads its own flags
    old = prime_flags(1000)
    before = bytes(old)
    held_at_allocation = []

    def spy(*args):
        held_at_allocation.append(len(digits._sieve_flags))
        return bytearray(*args)

    monkeypatch.setattr(digits, "bytearray", spy, raising=False)
    new = prime_flags(5000)
    assert held_at_allocation == [0]
    assert new is digits._sieve_flags and len(new) > 5000
    assert bytes(old) == before and new[: len(old)] == before


def test_reset_after_a_large_sieve_lists_afresh(fresh_sieve):
    primes_up_to(100_000)
    fresh_sieve()
    assert primes_up_to(100) == [j for j in range(101) if is_prime(j)]
    assert primes_up_to(1000) == [j for j in range(1001) if is_prime(j)]


def test_sieve_primes_hands_out_the_list_that_later_calls_extend(fresh_sieve):
    listed = sieve_primes(100)
    assert listed is digits._sieve_primes
    assert listed == [j for j in range(101) if is_prime(j)]
    # a bound the list already passes returns it as it is
    assert sieve_primes(50) is listed and len(listed) == 25
    assert sieve_primes(1000) is listed
    assert listed == [j for j in range(1001) if is_prime(j)]


def test_prime_flags_are_read_only():
    flags = prime_flags(100)
    with pytest.raises(TypeError):
        flags[4] = 1
    with pytest.raises(TypeError):
        flags[2:4] = b"\x00\x00"
    assert flags[4] == 0 and flags[97] == 1


def test_squarefree_product_construction():
    # the primes are the only input; the value is their product
    assert SquarefreeProduct((2, 3, 5)).value == 30
    assert SquarefreeProduct(()).value == 1
    with pytest.raises(ValueError):
        SquarefreeProduct((3, 2))  # not increasing
    with pytest.raises(ValueError):
        SquarefreeProduct((2, 2))  # repeated
    with pytest.raises(TypeError):
        SquarefreeProduct((2, 3), 6)  # no value argument
    # of sorts unordered input
    sp = SquarefreeProduct.of([5, 2, 3])
    assert sp.primes == (2, 3, 5)
    assert sp.value == 30
    assert sp == SquarefreeProduct((2, 3, 5))
    assert SquarefreeProduct.of([]).value == 1


def test_squarefree_product_equality_hash_repr_and_pickle():
    a = SquarefreeProduct((2, 3, 7))
    b = SquarefreeProduct.of([7, 3, 2])
    assert a == b and a is not b
    assert hash(a) == hash(b)
    assert len({a, b, SquarefreeProduct(())}) == 2
    assert a != SquarefreeProduct((2, 3)) and a != 42
    assert repr(a) == "SquarefreeProduct(primes=(2, 3, 7), value=42)"
    # a product survives pickling, as whatever crosses to a worker process must
    for product in (a, SquarefreeProduct(())):
        back = pickle.loads(pickle.dumps(product))
        assert back == product
        assert (back.primes, back.value) == (product.primes, product.value)


def test_squarefree_product_merge_is_lcm():
    a = SquarefreeProduct.of([2, 3, 7])
    b = SquarefreeProduct.of([3, 5])
    merged = a.merge(b)
    assert merged.value == math.lcm(a.value, b.value)
    assert merged.primes == (2, 3, 5, 7)
    assert merged.divides(2 * 3 * 5 * 7 * 11)
    assert not merged.divides(2 * 3 * 5)
    # nested prime sets: the larger operand is the union, either way round
    small = SquarefreeProduct.of([3, 7])
    assert a.merge(small) is a and small.merge(a) is a
    one = SquarefreeProduct.of([])
    assert one.merge(b) is b and b.merge(one) is b
    assert a.merge(a) is a
    # the union's value is carried, not recomputed: check it against the
    # primes on seeded operands drawn from the primes below 60
    rng = random.Random(2017)
    pool = primes_up_to(60)
    for _ in range(200):
        x = SquarefreeProduct.of(rng.sample(pool, rng.randrange(8)))
        y = SquarefreeProduct.of(rng.sample(pool, rng.randrange(8)))
        merged = x.merge(y)
        assert merged.primes == tuple(sorted({*x.primes, *y.primes})), (x, y)
        assert merged.value == math.prod(merged.primes), (x, y)


@settings(max_examples=30)
@given(st.integers(min_value=2, max_value=10**4))
def test_is_prime_matches_factor_count(n):
    assert is_prime(n) == (radical(n).primes == (n,))
