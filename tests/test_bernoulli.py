"""Bernoulli numbers, polynomials, and the RationalPoly container."""

import functools
import math
import random
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from powerdenom import bernoulli
from powerdenom.bernoulli import BernoulliCache, RationalPoly
from powerdenom.digits import p_valuation, primes_up_to

CACHE = BernoulliCache()


def _recurrence_numbers(n: int) -> list[Fraction]:
    """B_0..B_n from sum_{k<=m} C(m+1, k) B_k = 0, in Fractions: the
    reference the tangent-number table is compared with."""
    nums = [Fraction(1)]
    for m in range(1, n + 1):
        acc = Fraction(0)
        for k in range(m):
            if k > 1 and k % 2:
                continue
            acc += comb(m + 1, k) * nums[k]
        nums.append(-acc / (m + 1))
    return nums


REFERENCE = _recurrence_numbers(400)


def _numbers(cache, n):
    """[B_0, ..., B_n], read downward so the first read fills the table to n."""
    return [cache.number(k) for k in range(n, -1, -1)][::-1]

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
    # the defining identity, which the tangent-number table never uses
    nums = _numbers(CACHE, 400)
    for n in range(2, 401):
        assert sum(comb(n, k) * nums[k] for k in range(n)) == 0, n


def test_table_matches_recurrence_in_one_call():
    assert _numbers(BernoulliCache(), 400) == REFERENCE


@functools.cache
def _table_to_1500() -> BernoulliCache:
    """One cache filled to n = 1500, shared by the tests that read that far."""
    cache = BernoulliCache()
    cache.row(1500, 0)
    return cache


def test_long_table_rows_satisfy_the_defining_recurrence():
    # far past the reference's n = 400, with Seidel rows either side of
    # 1024 entries and at the table's top
    for n in (1023, 1024, 1025, 1026, 1499, 1500):
        _, scaled = _table_to_1500().scaled_numbers(n - 1)
        assert sum(comb(n, k) * b for k, b in enumerate(scaled)) == 0, n


def test_table_matches_recurrence_in_ascending_steps():
    cache = BernoulliCache()
    for n in range(401):
        assert cache.number(n) == REFERENCE[n], n
    assert _numbers(cache, 400) == REFERENCE


def test_table_matches_recurrence_in_shuffled_order():
    # the boustrophedon row only moves down; any request order gives one table
    order = list(range(401))
    random.Random(2017).shuffle(order)
    cache = BernoulliCache()
    for n in order:
        assert cache.number(n) == REFERENCE[n], n
    assert _numbers(cache, 400) == REFERENCE


def test_number_rejects_negative_index():
    with pytest.raises(ValueError):
        CACHE.number(-1)


def test_small_polynomials():
    assert CACHE.polynomial(0) == RationalPoly((1,))
    assert CACHE.polynomial(1).coeffs == (F(-1, 2), 1)
    assert CACHE.polynomial(2).coeffs == (F(1, 6), -1, 1)
    assert CACHE.polynomial(3).coeffs == (0, F(1, 2), F(-3, 2), 1)


def test_polynomial_shape():
    for n in range(61):
        f = CACHE.polynomial(n)
        assert len(f.nums) == n + 1
        assert f.coeffs[-1] == 1
        assert f.coeffs[0] == CACHE.number(n)


def test_polynomial_coefficients_match_recurrence_in_shuffled_order():
    # every coefficient C(n, j) B_(n-j), read from the row of 0 over its lcm
    order = list(range(201))
    random.Random(2017).shuffle(order)
    cache = BernoulliCache()
    for n in order:
        want = tuple(comb(n, j) * REFERENCE[n - j] for j in range(n + 1))
        assert cache.polynomial(n).coeffs == want, n


def test_coefficient_denominators_are_the_reduced_coefficient_denominators():
    # the pair (DD, DB) against the lcm, over j >= 1 and over every j, of the
    # denominators of Fractions from the recurrence, one coefficient at a
    # time, with n descending, so the first call fills every index and each
    # later one reads a filled pair
    cache = BernoulliCache()
    for n in range(200, -1, -1):
        dens = [(comb(n, j) * REFERENCE[n - j]).denominator for j in range(n + 1)]
        want = (math.lcm(*dens[1:]), math.lcm(*dens))
        assert cache.polynomial_denominators(n) == want, n
    assert cache.polynomial_denominators(0) == (1, 1)
    with pytest.raises(ValueError):
        cache.polynomial_denominators(-1)


def _denominators_at_every_index(dens, n):
    """den(B_(n-j)) / gcd(den(B_(n-j)), C(n, j)) for every j = 0..n, one
    running binomial over all n + 1 indices: the reference for the route
    over the even indices alone."""
    out = []
    binom = 1
    for j in range(n + 1):
        d = dens[n - j]
        out.append(d // math.gcd(d, binom))
        binom = binom * (n - j) // (j + 1)
    return tuple(out)


def test_coefficient_denominators_match_the_every_index_loop_to_1500():
    # both parities at every n.  On the shared cache the first call, at
    # n = 1500, fills every index in one run; a second cache is asked for
    # ascending stops 97 apart, of both parities, so each of its fills
    # resumes at a large index from the half Pascal row it left
    cache = _table_to_1500()
    strided = BernoulliCache()
    for stop in (*range(97, 1500, 97), 1500):
        strided.polynomial_denominators(stop)
    numbers = _numbers(cache, 1500)
    for k in range(3, 1501, 2):
        assert (numbers[k].numerator, numbers[k].denominator) == (0, 1), k
    dens = [b.denominator for b in numbers]
    for n in range(1500, -1, -1):
        want = _denominators_at_every_index(dens, n)
        pair = (math.lcm(*want[1:]), math.lcm(*want))
        assert cache.polynomial_denominators(n) == pair, n
        assert strided.polynomial_denominators(n) == pair, n


def test_a_fill_resumes_from_any_stop():
    # fresh caches filled to each stop k, then asked for k + 1, k + 2 and
    # k + 37, at both parities of k; every index up to the last is checked
    dens = [b.denominator for b in REFERENCE]
    want = []
    for n in range(102):
        every = _denominators_at_every_index(dens, n)
        want.append((math.lcm(*every[1:]), math.lcm(*every)))
    for k in range(65):
        cache = BernoulliCache()
        for n in (k, k + 1, k + 2, k + 37):
            assert cache.polynomial_denominators(n) == want[n], (k, n)
        for n in range(k + 38):
            assert cache.polynomial_denominators(n) == want[n], (k, n)


def test_every_nonconstant_coefficient_reaches_the_pair(monkeypatch):
    # a made-up table whose even-index denominators are distinct primes past
    # every prime factor of C(k, j), k <= 80, so no binomial cancels one and
    # DD(k) is the product of the primes of every even index 2..k-1 read,
    # times 2 from the term of B_1 at odd k >= 3: a fill that skips a
    # coefficient in the middle of the row, where the real table's primes
    # all recur at other indices through n = 1500, misses one here
    top = 80
    primes = iter(p for p in primes_up_to(1000) if p > top)
    dens = [1, 2, *(next(primes) if i % 2 == 0 else 1 for i in range(2, top + 1))]
    for stops in ([top], range(top + 1)):
        cache = BernoulliCache()
        monkeypatch.setattr(cache, "row", lambda n, p, q=1: ([], dens))
        for n in stops:
            cache.polynomial_denominators(n)
        for k in range(top + 1):
            nonconstant = math.prod(dens[2:k:2]) * (2 if k % 2 and k > 1 else 1)
            assert cache.polynomial_denominators(k) == (
                nonconstant,
                math.lcm(nonconstant, dens[k]),
            ), k


def test_polynomial_denominators_are_those_of_the_built_polynomial():
    # a second route through the same table: B_n(x) built, and its
    # constant term dropped, in a seeded order on a fresh cache; then fresh
    # caches asked in ascending and in descending order give the same pairs
    order = list(range(401))
    random.Random(2017).shuffle(order)
    cache = BernoulliCache()
    want = {}
    for n in order:
        poly = cache.polynomial(n)
        want[n] = (RationalPoly((0, *poly.nums[1:]), poly.den).den, poly.den)
        assert cache.polynomial_denominators(n) == want[n], n
    for order in (sorted(want), sorted(want, reverse=True)):
        cache = BernoulliCache()
        for n in order:
            assert cache.polynomial_denominators(n) == want[n], n


def test_filled_denominators_read_no_table(monkeypatch):
    cache = BernoulliCache()
    with pytest.raises(ValueError):
        cache.polynomial_denominators(-1)
    # a fresh cache holds n = 0, where B_0(x) = 1
    monkeypatch.setattr(cache, "row", None)
    assert cache.polynomial_denominators(0) == (1, 1)
    monkeypatch.undo()
    assert cache.polynomial_denominators(8) == (3, 30)
    # every index up to 8 is filled by that call, and none reads the table
    monkeypatch.setattr(cache, "row", None)
    for n, pair in ((1, (1, 2)), (2, (1, 6)), (7, (6, 6)), (8, (3, 30))):
        assert cache.polynomial_denominators(n) == pair, n
    monkeypatch.undo()
    with pytest.raises(ValueError):
        cache.polynomial_denominators(-1)
    assert cache.polynomial_denominators(9) == (10, 10)


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


# ints and Fractions; 1/2 and 2/4, 2 and 6/3 are one point each; the last
# two have a large denominator and a large numerator
ROW_POINTS = (
    0, 1, -2, F(1, 2), F(-1, 3), F(5, 7), F(2, 4), F(6, 3), F(-7, 10**6), F(10**6 + 1, 3)
)


@pytest.mark.parametrize("order", ["ascending", "descending", "shuffled"])
def test_value_rows_match_polynomials_in_any_order(order):
    reference = BernoulliCache()
    want = {}  # y -> [B_0(y), ..., B_60(y)] by Horner over B_n(x)
    for y in ROW_POINTS:
        want[F(y)] = [reference.polynomial(n)(y) for n in range(61)]
    indices = list(range(61))
    if order == "descending":
        indices.reverse()
    elif order == "shuffled":
        random.Random(2017).shuffle(indices)
    cache = BernoulliCache()
    for n in indices:
        for y in ROW_POINTS:
            values = want[F(y)][: n + 1]
            assert cache.value_at(n, y) == values[n], (n, y)
            # the row holds q^k B_k(p/q) in lowest terms
            p, q = F(y).numerator, F(y).denominator
            values = [q**k * v for k, v in enumerate(values)]
            nums, dens = cache.row(n, p, q)
            assert nums[: n + 1] == [v.numerator for v in values], (n, y)
            assert dens[: n + 1] == [v.denominator for v in values], (n, y)
    # one row per distinct point in lowest terms
    assert set(cache._rows) == {
        (0, 1), (1, 1), (-2, 1), (1, 2), (-1, 3), (5, 7), (2, 1), (-7, 10**6), (10**6 + 1, 3)
    }


def _polynomial_row(reference, d, y):
    """The row of y to index d from B_k(x) evaluated at y: q^k B_k(y) for
    k = 0..d in lowest terms, independent of the cache's row fill."""
    q = y.denominator
    values = [q**k * reference.polynomial(k)(y) for k in range(d + 1)]
    return [v.numerator for v in values], [v.denominator for v in values]


def test_shift_rows_equal_polynomial_values():
    # every distinct r/m of the T2 grid at d = 61, then seeded points with
    # denominators up to 10^6 and numerators of either sign, each row filled
    # from empty by one shift
    points = [(F(r, m), 61) for r in range(4) for m in range(1, 31)]
    rng = random.Random(2017)
    for _ in range(200):
        q = rng.randrange(1, 10 ** rng.randrange(1, 7))
        points.append((F(rng.randrange(-1000, 1001), q), rng.randrange(62)))
    reference = BernoulliCache()
    for y, d in dict.fromkeys(points):
        if y == 0:
            continue  # the row of 0 is the table, never shifted
        cache = BernoulliCache()
        shifted = cache.row(d, y.numerator, y.denominator)
        assert shifted == _polynomial_row(reference, d, y), (y, d)


def test_shift_extends_a_partial_row():
    # the shift appends only the missing entries; those already held stay
    y = F(-2, 7)
    cache = BernoulliCache()
    cache.value_at(3, y)
    held = [list(part) for part in cache.row(3, -2, 7)]
    cache.value_at(40, y)
    row = cache.row(40, -2, 7)
    assert [part[:4] for part in row] == held
    assert row == _polynomial_row(BernoulliCache(), 40, y)


def test_rows_past_the_kept_terms_match_the_shift_and_the_polynomials(monkeypatch):
    # with terms kept only to index 4, rows grown one entry at a time to 40
    # shift from every later index, building its terms on each use; the
    # cache keeps none of them
    monkeypatch.setattr(bernoulli, "_TERMS_MAX", 4)
    reference = BernoulliCache()
    cache = BernoulliCache()
    points = (F(1, 3), F(-2, 7), F(5, 2), F(-7, 10**6))
    for n in range(41):
        for y in points:
            assert cache.value_at(n, y) == reference.polynomial(n)(y), (n, y)
    for y in points:
        row = cache.row(40, y.numerator, y.denominator)
        assert row == _polynomial_row(reference, 40, y), y
        # the same row from one shift to 40 on a fresh cache
        assert row == BernoulliCache().row(40, y.numerator, y.denominator), y
    assert set(cache._held_terms) == set(range(5))


@pytest.mark.parametrize("m", [3, 10**6])
def test_fresh_point_at_large_n_in_either_order(m):
    reference = BernoulliCache()
    y = F(1, m)
    want = {n: reference.polynomial(n)(y) for n in (100, 400)}
    rows = []
    for order in ((100, 400), (400, 100)):
        cache = BernoulliCache()
        for n in order:
            assert cache.value_at(n, y) == want[n], (order, n)
        rows.append(cache.row(400, 1, m))
    assert rows[0] == rows[1]


def test_value_rows_reject_negative_index():
    # on a fresh row and on a filled one, where index -1 would read the
    # last entry
    for filled in (False, True):
        cache = BernoulliCache()
        if filled:
            cache.value_at(5, F(1, 3))
        with pytest.raises(ValueError):
            cache.value_at(-1, F(1, 3))
        with pytest.raises(ValueError):
            cache.row(-1, 1, 3)


def test_a_point_needs_a_positive_denominator():
    cache = BernoulliCache()
    for q in (0, -3):
        with pytest.raises(ValueError):
            cache.row(5, 1, q)
    assert set(cache._rows) == {(0, 1)}


def test_a_point_must_be_in_lowest_terms():
    # 0/3 reached the Taylor shift's division by p, and 2/4 kept a second
    # row for 1/2; each is refused before a row is made
    cache = BernoulliCache()
    half = [list(part) for part in cache.row(6, 1, 2)]
    table = [list(part) for part in cache.row(6, 0)]
    for n, p, q in ((3, 0, 3), (6, 2, 4)):
        with pytest.raises(ValueError, match=rf"^point {p}/{q} is not in lowest terms$"):
            cache.row(n, p, q)
    assert set(cache._rows) == {(0, 1), (1, 2)}
    assert [list(part) for part in cache.row(6, 1, 2)] == half
    assert [list(part) for part in cache.row(6, 0)] == table


def test_a_point_is_read_by_numerator_and_denominator():
    # the int 1 and Fraction(2, 2) are one point, (1, 1), with one row; so
    # are Fraction(1, 3) and Fraction(2, 6), (1, 3); value_at reads the row
    # of y.numerator and y.denominator
    cache = BernoulliCache()
    for same in ((1, F(2, 2)), (F(1, 3), F(2, 6))):
        rows = [cache.row(20, F(y).numerator, F(y).denominator) for y in same]
        assert rows[0] is rows[1]
        for n in range(21):
            values = [cache.value_at(n, y) for y in same]
            assert values[0] == values[1] == CACHE.polynomial(n)(same[0]), (same, n)
    assert set(cache._rows) == {(0, 1), (1, 1), (1, 3)}


def test_von_staudt_clausen_to_400():
    nums = _numbers(CACHE, 400)
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
    nums = _numbers(CACHE, 200)
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
    # B_n(x + y) expanded in powers of x has coefficients C(n,k) B_(n-k)(y);
    # both sides have degree n, so their values at n + 1 points fix them
    for n in range(31):
        f = CACHE.polynomial(n)
        right = [comb(n, j) * CACHE.value_at(n - j, y) for j in range(n + 1)]
        for x in range(n + 1):
            assert f(x + y) == _fraction_call(right, x), (n, x)


def test_reflection():
    # B_n(1 - x) = (-1)^n B_n(x), at n + 1 points
    for n in range(51):
        f = CACHE.polynomial(n)
        for x in range(n + 1):
            assert f(1 - x) == (-1) ** n * f(x), (n, x)


def test_forward_difference():
    # B_n(x + 1) - B_n(x) = n x^(n-1), at n + 1 points
    for n in range(1, 51):
        f = CACHE.polynomial(n)
        for x in range(n + 1):
            assert f(x + 1) - f(x) == n * x ** (n - 1), (n, x)


# RationalPoly behavior


def test_poly_trimming_and_degree():
    assert RationalPoly((0, 0)).nums == ()
    assert RationalPoly(()).nums == ()
    assert RationalPoly((1, 2, 0)).coeffs == (1, 2)
    assert RationalPoly((0, 0, 1), 3).nums == (0, 0, 1)


def test_poly_denominator():
    assert RationalPoly(()).denominator == 1
    assert RationalPoly((1,)).denominator == 1
    assert RationalPoly((1, -6, 6), 6).denominator == 6
    assert RationalPoly((0, 2, -6, 4), 12).denominator == 6


def test_poly_evaluation():
    f = RationalPoly((1, 0, 2), 2)  # x^2 + 1/2
    assert f(2) == F(9, 2)
    assert f(F(1, 2)) == F(3, 4)
    assert RationalPoly(())(5) == 0


small_fractions = st.fractions(min_value=-5, max_value=5, max_denominator=6)
small_ints = st.integers(min_value=-60, max_value=60)


@settings(max_examples=80)
@given(
    st.lists(small_ints, max_size=6),
    st.integers(min_value=-36, max_value=36).filter(bool),
    st.integers(min_value=-5, max_value=5).filter(bool),
)
def test_poly_constructor_is_canonical(nums, den, k):
    f = RationalPoly(nums, den)
    want = [Fraction(c, den) for c in nums]
    while want and not want[-1]:
        want.pop()
    assert f.coeffs == tuple(want)
    assert f.den > 0
    assert math.gcd(f.den, *f.nums) == 1
    assert not f.nums or f.nums[-1] != 0
    # the old definition: lcm of the coefficient denominators
    assert f.denominator == math.lcm(*(c.denominator for c in want))
    # the same polynomial at another scaling, of either sign
    g = RationalPoly([k * c for c in nums], k * den)
    assert (g.nums, g.den) == (f.nums, f.den)
    assert g == f
    assert hash(g) == hash(f)


def test_poly_normalizes_sign_and_common_factors():
    f = RationalPoly((2, -4, 6), -4)
    assert (f.nums, f.den) == ((-1, 2, -3), 2)
    assert f.coeffs == (F(-1, 2), 1, F(-3, 2))
    f = RationalPoly((6, 0, 12, 0), 18)
    assert (f.nums, f.den) == ((1, 0, 2), 3)
    zero = RationalPoly((0, 0), -7)
    assert (zero.nums, zero.den) == ((), 1)
    assert zero == RationalPoly()
    with pytest.raises(ZeroDivisionError):
        RationalPoly((1,), 0)
    with pytest.raises(ZeroDivisionError):
        RationalPoly((), 0)


def _fraction_call(a, x):
    acc = F(0)
    for c in reversed(a):
        acc = acc * x + c
    return acc


@settings(max_examples=80)
@given(
    st.lists(small_ints, max_size=6),
    st.integers(min_value=1, max_value=36),
    small_fractions,
)
def test_poly_arithmetic_matches_fraction_reference(nums, den, x):
    # the one arithmetic a polynomial has: evaluation by integer Horner
    f = RationalPoly(nums, den)
    a = [Fraction(c, den) for c in nums]
    assert f(x) == _fraction_call(a, x)
    assert f(3) == _fraction_call(a, 3)


def test_poly_equality_and_hash():
    # x + 1/2 built at three scalings, one with a negative denominator
    a = RationalPoly((1, 2), 2)
    for b in (RationalPoly((3, 6, 0), 6), RationalPoly((-5, -10), -10)):
        assert a == b
        assert hash(a) == hash(b)
    assert a != RationalPoly((1, 2))
    assert a != RationalPoly((1,), 2)


def test_scaled_numbers_clear_denominators():
    # the minimal L at every n <= 400, asked in ascending, descending and
    # shuffled order, each on a fresh cache
    ascending = list(range(401))
    shuffled = ascending[:]
    random.Random(2017).shuffle(shuffled)
    for indices in (ascending, ascending[::-1], shuffled):
        cache = BernoulliCache()
        for n in indices:
            scale, scaled = cache.scaled_numbers(n)
            assert scale == math.lcm(*(b.denominator for b in REFERENCE[: n + 1])), n
            assert scaled == tuple(int(scale * b) for b in REFERENCE[: n + 1]), n
        assert cache.scaled_numbers(12)[0] == 30030  # lcm of 1, 2, 6, 30, 42, 66, 2730
