"""Power sum polynomials, their denominators, and the scaled differences."""

import pickle
import random
from fractions import Fraction
from math import comb, gcd, lcm

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from powerdenom import verify
from powerdenom.bernoulli import BernoulliCache, RationalPoly
from powerdenom.denom import (
    full_denom,
    full_denom_direct,
    nonconstant_denom,
    nonconstant_denom_direct,
    number_denom_direct,
)
from powerdenom.digits import p_valuation, primes_up_to
from powerdenom.errors import TheoremViolationError
from powerdenom.powersum import (
    AMInteger,
    ProgressionSpec,
    am_integer,
    is_integral,
    power_sum_denominator,
    power_sum_naive,
    power_sum_poly,
)

CACHE = BernoulliCache()

F = Fraction

# (m, r, n) -> ascending coefficients of the power sum polynomial
WORKED_POLYNOMIALS = {
    (2, 0, 1): (0, -1, 1),
    (6, 0, 2): (0, 6, -18, 12),
    (2, 0, 3): (0, 0, 2, -4, 2),
    (30, 0, 4): (0, -27000, 0, 270000, -405000, 162000),
    (6, 0, 5): (0, 0, -648, 0, 3240, -3888, 1296),
    (2, 1, 1): (0, 0, 1),
    (6, 1, 2): (0, 1, -12, 12),
    (2, 1, 3): (0, 0, -1, 0, 2),
    (30, 1, 4): (0, -26159, 24360, 217800, -378000, 162000),
    (6, 1, 5): (0, -170, -273, 1200, 540, -2592, 1296),
}


@pytest.mark.parametrize("spec,coeffs", sorted(WORKED_POLYNOMIALS.items()))
def test_worked_polynomials(spec, coeffs):
    m, r, n = spec
    assert power_sum_poly(CACHE, ProgressionSpec(m, r, n)) == RationalPoly(coeffs)


def test_naive_examples():
    assert power_sum_naive(ProgressionSpec(3, 2, 4), 0) == 0
    assert power_sum_naive(ProgressionSpec(1, 0, 2), 4) == 14
    assert power_sum_naive(ProgressionSpec(2, 1, 1), 3) == 9


def test_naive_rejects_negative_count():
    with pytest.raises(ValueError):
        power_sum_naive(ProgressionSpec(1, 0, 1), -1)


def test_progression_spec_validation():
    with pytest.raises(ValueError):
        ProgressionSpec(0, 0, 1)
    with pytest.raises(ValueError):
        ProgressionSpec(1, -1, 1)
    with pytest.raises(ValueError):
        ProgressionSpec(1, 0, -1)


def test_the_zero_exponent_takes_the_general_path():
    # S(x) = x at n = 0 for every progression: the polynomial, its predicted
    # denominator, the integrality verdict and the naive sum, from one cache
    cache = BernoulliCache()
    for m in range(1, 31):
        for r in range(31):
            spec = ProgressionSpec(m, r, 0)
            assert power_sum_poly(cache, spec) == RationalPoly((0, 1)), spec
            assert power_sum_denominator(spec) == 1, spec
            assert is_integral(spec), spec
            assert [power_sum_naive(spec, x) for x in range(6)] == list(range(6)), spec


def test_progression_spec_is_a_value():
    spec = ProgressionSpec(m=6, r=1, n=5)  # as in the README
    assert (spec.m, spec.r, spec.n) == (6, 1, 5)
    assert spec == ProgressionSpec(6, 1, 5) == ProgressionSpec(6, r=1, n=5)
    assert spec != ProgressionSpec(6, 1, 4) and spec != (6, 1, 5)
    assert hash(spec) == hash(ProgressionSpec(6, 1, 5)) == hash((6, 1, 5))
    assert len({spec, ProgressionSpec(6, 1, 5), ProgressionSpec(6, 5, 1)}) == 2
    assert repr(spec) == "ProgressionSpec(m=6, r=1, n=5)"
    assert not hasattr(spec, "__dict__")
    for args, message in (
        ((0, 0, 1), "difference m must be >= 1, got 0"),
        ((1, -1, 1), "start r must be >= 0, got -1"),
        ((1, 0, -1), "exponent n must be >= 0, got -1"),
    ):
        with pytest.raises(ValueError, match=f"^{message}$"):
            ProgressionSpec(*args)
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        back = pickle.loads(pickle.dumps(spec, protocol))
        assert back == spec and repr(back) == repr(spec), protocol


def test_am_integer_is_a_value():
    got = am_integer(BernoulliCache(), 2, 1, 2)
    assert got == AMInteger(2, 1, 2, -1) == AMInteger(m=2, r=1, n=2, value=-1)
    assert got != AMInteger(2, -1, 2, -1) and got != (2, 1, 2, -1)
    assert hash(got) == hash(AMInteger(2, 1, 2, -1)) == hash((2, 1, 2, -1))
    assert repr(got) == "AMInteger(m=2, r=1, n=2, value=-1)"
    assert not hasattr(got, "__dict__")
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        back = pickle.loads(pickle.dumps(got, protocol))
        assert back == got and repr(back) == repr(got), protocol


def test_poly_shape():
    for m, r, n in ((1, 0, 1), (4, 3, 7), (9, 2, 12)):
        f = power_sum_poly(CACHE, ProgressionSpec(m, r, n))
        assert len(f.nums) == n + 2
        assert f.coeffs[0] == 0


def test_poly_matches_naive_small_grid():
    # x = 0..n+1 are n+2 points, enough to fix the degree-(n+1) polynomial
    for m in range(1, 7):
        for r in range(4):
            for n in range(1, 31):
                spec = ProgressionSpec(m, r, n)
                f = power_sum_poly(CACHE, spec)
                for x in range(max(9, n + 2)):
                    assert f(x) == power_sum_naive(spec, x), (m, r, n, x)


def _power_sum_poly_by_value_at(cache, spec):
    """The polynomial from n+1 separate value_at calls and the lcm of their
    reduced denominators: the reference the one-fetch route is pinned to."""
    m, r, n = spec.m, spec.r, spec.n
    y = Fraction(r, m)
    values = [cache.value_at(k, y) for k in range(n, -1, -1)]  # B_(n+1-j)(y)
    scale = lcm(*(v.denominator for v in values))
    mn = m**n
    nums = [0]
    binom = 1
    for j, v in enumerate(values, start=1):
        binom = binom * (n + 2 - j) // j  # C(n+1, j)
        nums.append(mn * binom * v.numerator * (scale // v.denominator))
    return RationalPoly(nums, (n + 1) * scale)


def test_poly_matches_value_at_route_on_t2_grid():
    specs = [
        ProgressionSpec(m, r, n)
        for m in range(1, 31)
        for r in range(4)
        for n in range(1, 61)
    ]
    random.Random(2017).shuffle(specs)
    cache = BernoulliCache()
    for spec in specs:
        assert power_sum_poly(cache, spec) == _power_sum_poly_by_value_at(CACHE, spec), spec
    # one row per r/m in lowest terms: (1, 2) serves m, r = 2, 1 and 4, 2 and 6, 3
    points = {Fraction(r, m) for m in range(1, 31) for r in range(4)}
    assert set(cache._rows) == {(y.numerator, y.denominator) for y in points}


def _assert_canonical(f, spec):
    # power_sum_poly builds its fields through RationalPoly._canonical, which
    # checks nothing: the form must be canonical by construction
    assert type(f.nums) is tuple and len(f.nums) == spec.n + 2, spec
    assert f.den >= 1 and f.nums[-1] != 0, spec
    assert gcd(f.den, *f.nums) == 1, spec


def test_poly_is_canonical_on_t2_grid(monkeypatch):
    # r innermost, so every call reads the row: the row route's
    # gcd against c_j alone must still give the lowest-terms lcm
    cache = BernoulliCache()
    rows = _count_rows(monkeypatch)
    for m in range(1, 31):
        for n in range(61):
            for r in range(4):
                spec = ProgressionSpec(m, r, n)
                _assert_canonical(power_sum_poly(cache, spec), spec)
    assert len(rows) == 30 * 61 * 4


def test_poly_matches_value_at_route_past_the_grid(monkeypatch):
    # seeded points at n = 200..600, each from a fresh cache, so the row of
    # r/m comes from one Taylor shift; the reference reads its own cache
    rng = random.Random(4217)
    points = [
        ProgressionSpec(rng.randint(2, 30), rng.randint(1, 9), rng.randint(200, 600))
        for _ in range(4)
    ]
    reference = BernoulliCache()
    wants = [_power_sum_poly_by_value_at(reference, spec) for spec in points]
    shifts = _recorded_shifts(monkeypatch)
    for spec, want in zip(points, wants):
        got = power_sum_poly(BernoulliCache(), spec)
        assert got == want, spec
        _assert_canonical(got, spec)
    assert [n for n, _, _ in shifts] == [spec.n for spec in points]


def test_carried_polynomials_equal_the_row_route_on_t2_grid():
    # each (m, r) at n = 0..60 in order on one cache, so every n >= 1 is
    # carried from n - 1; the reference varies r innermost, so
    # its slot never holds (m, r, n - 1) and every call reads the row
    carried = BernoulliCache()
    chains = {}
    for m in range(1, 31):
        for r in range(4):
            for n in range(61):
                chains[m, r, n] = power_sum_poly(carried, ProgressionSpec(m, r, n))
    by_row = BernoulliCache()
    for m in range(1, 31):
        for n in range(61):
            for r in range(4):
                spec = ProgressionSpec(m, r, n)
                want = power_sum_poly(by_row, spec)
                got = chains[m, r, n]
                assert got.nums == want.nums and got.den == want.den, spec
                _assert_canonical(got, spec)
                # one step carried from the polynomial the row route put in
                # the slot; the next r reads its row again
                if n < 60:
                    step = power_sum_poly(by_row, ProgressionSpec(m, r, n + 1))
                    assert step == chains[m, r, n + 1], (m, r, n + 1)


def test_a_chain_from_x_reads_the_row_only_at_n_0(monkeypatch):
    # S_0 = x from the row route, then n = 1..200 carried, each step from
    # S_(n-1) and S_n(1) = r^n alone: no Bernoulli number past B_0
    rng = random.Random(4401)
    points = [(rng.randint(2, 30), rng.randint(1, 9)) for _ in range(2)]
    rows = _count_rows(monkeypatch)
    chains = {}
    for m, r in points:
        cache = BernoulliCache()
        chains[m, r] = [power_sum_poly(cache, ProgressionSpec(m, r, n)) for n in range(201)]
    assert rows == [0, 0]
    for (m, r), chain in chains.items():
        assert chain[0] == RationalPoly((0, 1))
        for n in range(25, 201, 25):
            spec = ProgressionSpec(m, r, n)
            assert chain[n] == power_sum_poly(BernoulliCache(), spec), spec


def test_carried_numerators_divide_exactly_where_m_shares_primes_with_j(monkeypatch):
    # the carried step takes den, the lcm of e j / gcd(t m n, e j), before
    # any numerator, and then t m n den // (e j) for each; m sharing primes
    # with j and with e puts those primes on both sides of every division.
    # The chain runs n upward on one cache, so it reads a row only at n = 0;
    # the reference runs n downward, so its slot never holds n - 1 and every
    # call reads the row
    rows = _count_rows(monkeypatch)
    for m in (4, 8, 9, 12, 16, 27):
        for r in (1, m - 1):
            chain = BernoulliCache()
            got = [power_sum_poly(chain, ProgressionSpec(m, r, n)) for n in range(121)]
            assert len(rows) == 1, (m, r)
            by_row = BernoulliCache()
            for n in range(120, -1, -1):
                spec = ProgressionSpec(m, r, n)
                want = power_sum_poly(by_row, spec)
                assert got[n].nums == want.nums and got[n].den == want.den, spec
                _assert_canonical(got[n], spec)
            assert len(rows) == 122, (m, r)
            rows.clear()


def _count_rows(monkeypatch):
    """The index n of every BernoulliCache.row call, in call order."""
    asked = []
    row = BernoulliCache.row

    def counted(self, n, *args):
        asked.append(n)
        return row(self, n, *args)

    monkeypatch.setattr(BernoulliCache, "row", counted)
    return asked


def test_grid_order_reads_one_row_per_pair(monkeypatch):
    # the grid benchmark's order on a fresh cache: only each (m, r)'s first
    # n reads a row
    rows = _count_rows(monkeypatch)
    cache = BernoulliCache()
    for m in range(1, 21):
        for r in range(4):
            for n in range(1, 61):
                power_sum_poly(cache, ProgressionSpec(m, r, n))
    assert rows == [1] * 80


@pytest.mark.parametrize(
    "before,reads",
    [((7, 3, 9), 0), ((7, 3, 8), 1), ((7, 2, 9), 1), ((6, 3, 9), 1), ((7, 3, 10), 1)],
)
def test_the_slot_alone_chooses_the_route(monkeypatch, before, reads):
    # only (m, r, n - 1) in the slot carries; n - 2, another r, another m
    # and the same n read the row, and so does a fresh cache.  Either way
    # the slot then holds (m, r, n) and the very polynomial returned
    cache = BernoulliCache()
    assert cache._last_power_sum is None
    _assert_slot(cache, before, power_sum_poly(cache, ProgressionSpec(*before)))
    fresh = BernoulliCache()
    want = power_sum_poly(fresh, ProgressionSpec(7, 3, 10))
    _assert_slot(fresh, (7, 3, 10), want)
    rows = _count_rows(monkeypatch)
    got = power_sum_poly(cache, ProgressionSpec(7, 3, 10))
    assert got == want
    _assert_slot(cache, (7, 3, 10), got)
    assert len(rows) == reads
    power_sum_poly(BernoulliCache(), ProgressionSpec(7, 3, 10))
    assert len(rows) == reads + 1


def _assert_slot(cache, key, poly):
    assert cache._last_power_sum[0] == key
    assert cache._last_power_sum[1] is poly


def test_am_integer_on_the_slot_equals_the_row_route_on_t2_grid():
    # each (m, r) at n = 1..60 in T3's order on one cache, every polynomial
    # followed by am_integer at both signs, which then reads the x
    # coefficient from the slot; the row route runs on a cache that only
    # am_integer touches, so its slot stays empty
    cache, by_row = BernoulliCache(), BernoulliCache()
    for m in range(1, 31):
        for r in range(4):
            for n in range(1, 61):
                power_sum_poly(cache, ProgressionSpec(m, r, n))
                for s in (r, -r):
                    got = am_integer(cache, m, s, n).value
                    assert got == am_integer(by_row, m, s, n).value, (m, s, n)
                    assert got == _am_integer_by_comb_sum(CACHE, m, s, n), (m, s, n)
    assert by_row._last_power_sum is None


def _points_read(monkeypatch):
    """The point (p, q) of every BernoulliCache.row call, in call order."""
    asked = []
    row = BernoulliCache.row

    def recorded(self, n, p, q=1):
        asked.append((p, q))
        return row(self, n, p, q)

    monkeypatch.setattr(BernoulliCache, "row", recorded)
    return asked


def test_am_integer_on_a_chain_past_the_kept_terms(monkeypatch):
    # a carried chain from S_0 = x to n = 200, as in
    # test_a_chain_from_x_reads_the_row_only_at_n_0: at every 25th n,
    # am_integer at both signs reads the carried x coefficient and the
    # table, and equals the row route on a fresh cache
    rng = random.Random(4501)
    points = [(rng.randint(2, 30), rng.randint(1, 9)) for _ in range(2)]
    for m, r in points:
        cache = BernoulliCache()
        power_sum_poly(cache, ProgressionSpec(m, r, 0))
        read = _points_read(monkeypatch)
        for n in range(1, 201):
            power_sum_poly(cache, ProgressionSpec(m, r, n))
            if n % 25 == 0:
                for s in (r, -r):
                    got = am_integer(cache, m, s, n)
                    assert set(read) <= {(0, 1)}, (m, s, n)
                    assert got == am_integer(BernoulliCache(), m, s, n), (m, s, n)
                    read.clear()
        monkeypatch.undo()


@pytest.mark.parametrize(
    "asked,reads_row",
    [((7, 3, 10), False), ((7, 3, 9), True), ((7, 3, 11), True), ((7, 2, 10), True),
     ((6, 3, 10), True)],
)
def test_the_slot_alone_chooses_the_am_integer_route(monkeypatch, asked, reads_row):
    # after power_sum_poly(7, 3, 10) only (7, +-3, 10) reads the slot, and
    # the table alone; n - 1, n + 1, another |r| and another m read the row
    # of |r|/m, and so does a fresh cache
    m, r, n = asked
    cache = BernoulliCache()
    power_sum_poly(cache, ProgressionSpec(7, 3, 10))
    point = (r // gcd(r, m), m // gcd(r, m))
    for s in (r, -r):
        want = am_integer(BernoulliCache(), m, s, n)
        read = _points_read(monkeypatch)
        assert am_integer(cache, m, s, n) == want
        assert read == ([point, (0, 1)] if reads_row else [(0, 1)]), s
        am_integer(BernoulliCache(), m, s, n)
        assert read[-2:] == [point, (0, 1)]
        monkeypatch.undo()


@pytest.mark.parametrize("carried", [False, True])
def test_am_integer_names_the_sign_that_is_not_integral_on_the_slot(carried):
    # the slot's polynomial replaced by one whose x numerator is one unit
    # off: 9 B_2(1/3) = -1/2, the x coefficient of S_2 built from the row
    # or carried from S_1, becomes 0, so both signs miss an integer by 1/2,
    # and each names its own r
    cache = BernoulliCache()
    for n in range(0 if carried else 2, 3):
        power_sum_poly(cache, ProgressionSpec(3, 1, n))
    spec, poly = cache._last_power_sum
    assert spec == (3, 1, 2) and poly.den > 1
    nums = list(poly.nums)
    nums[1] += 1
    cache._last_power_sum = (spec, RationalPoly._canonical(tuple(nums), poly.den))
    for r in (1, -1):
        with pytest.raises(TheoremViolationError, match=f"m=3, r={r}, n=2$"):
            am_integer(cache, 3, r, 2)


def _recorded_shifts(monkeypatch):
    """The (n, p, q) of every BernoulliCache._shift_fill call, in call order."""
    shifts = []
    fill = BernoulliCache._shift_fill

    def recorded(self, row, n, p, q):
        shifts.append((n, p, q))
        return fill(self, row, n, p, q)

    monkeypatch.setattr(BernoulliCache, "_shift_fill", recorded)
    return shifts


def test_a_fresh_point_is_one_shift(monkeypatch):
    shifts = _recorded_shifts(monkeypatch)
    cache = BernoulliCache()
    assert cache.value_at(400, Fraction(1, 3)) == CACHE.polynomial(400)(Fraction(1, 3))
    assert shifts == [(400, 1, 3)]


def _reduced_points(m_max, r_max):
    """Each distinct nonzero |r|/m in lowest terms with m <= m_max and
    |r| <= r_max, as (p, q)."""
    return {
        (r // gcd(r, m), m // gcd(r, m))
        for m in range(1, m_max + 1)
        for r in range(1, r_max + 1)
    }


@pytest.mark.parametrize("theorem_id", ["AM-integrality", "L1-congruence"])
def test_am_and_l1_sweeps_fill_each_point_once_before_their_n_loop(monkeypatch,
                                                                   theorem_id):
    # one shift per distinct reduced |r|/m, to the top n, made before the
    # first am_integer at that (m, r); none inside am_integer at any n
    shifts = _recorded_shifts(monkeypatch)
    inside = []
    real = verify.am_integer

    def watched(cache, m, r, n):
        held = len(shifts)
        got = real(cache, m, r, n)
        inside.extend(shifts[held:])
        return got

    monkeypatch.setattr(verify, "am_integer", watched)
    report = verify.run_sweep(theorem_id, max_n=12, m_max=8, r_max=5, jobs=1)
    assert report.ok
    assert inside == []
    assert sorted((p, q) for _, p, q in shifts) == sorted(_reduced_points(8, 5))
    # L1's top n is the largest n <= 12 with a p^e for some p <= 13 prime to
    # m: 12 at every m here, 11 at m = 6 alone, whose points 1/6 and 5/6 are
    # met first there
    tops = {(p, q): n for n, p, q in shifts}
    want = {point: 12 for point in tops}
    if theorem_id == "L1-congruence":
        want[1, 6] = want[5, 6] = 11
    assert tops == want


@pytest.mark.parametrize("theorem_id", ["T2-denominator", "T3-integrality"])
def test_t2_and_t3_sweeps_read_rows_only_at_n_1(monkeypatch, theorem_id):
    # n innermost for each (m, r): the first n reads the row of r/m, two
    # entries, and every later polynomial is carried from the one before
    rows = _count_rows(monkeypatch)
    shifts = _recorded_shifts(monkeypatch)
    report = verify.run_sweep(theorem_id, max_n=12, m_max=8, r_max=3, jobs=1)
    assert report.ok
    assert rows == [1] * (8 * 4)
    assert [n for n, _, _ in shifts] == [1] * len(shifts)
    assert sorted((p, q) for _, p, q in shifts) == sorted(_reduced_points(8, 3))


def test_grid_order_builds_each_index_terms_once(monkeypatch):
    # am_integer alone, each (m, r) at n = 1..60 in turn with no row asked
    # for at its top first, so every row grows by one shift per request; the
    # shift from index k reads its terms C(k, i) L B_i from one list, built
    # by the first row that reaches k.  A first request at n = 1 shifts from
    # index 1, so index 0's terms are never read
    built = {}  # k -> ids of the lists _terms handed out for k
    terms = BernoulliCache._terms

    def recorded(self, k):
        held = terms(self, k)
        built.setdefault(k, set()).add(id(held))
        return held

    monkeypatch.setattr(BernoulliCache, "_terms", recorded)
    cache = BernoulliCache()
    for m in range(1, 7):
        for r in range(4):
            for n in range(1, 61):
                am_integer(cache, m, r, n)
    assert set(built) == set(range(1, 61))
    assert all(len(ids) == 1 for ids in built.values())
    assert set(cache._held_terms) == set(range(1, 61))


@settings(max_examples=60)
@given(
    st.integers(min_value=1, max_value=12),
    st.integers(min_value=0, max_value=12),
    st.integers(min_value=1, max_value=40),
    st.integers(min_value=0, max_value=20),
)
def test_poly_matches_naive_sampled(m, r, n, x):
    spec = ProgressionSpec(m, r, n)
    assert power_sum_poly(CACHE, spec)(x) == power_sum_naive(spec, x)


def test_scaling_identity():
    # starting at zero, scaling the difference scales the whole polynomial
    for n in range(1, 21):
        base = power_sum_poly(CACHE, ProgressionSpec(1, 0, n))
        for m in range(1, 11):
            scaled = power_sum_poly(CACHE, ProgressionSpec(m, 0, n))
            assert scaled == RationalPoly([c * m**n for c in base.nums], base.den), (m, n)


def test_denominator_spot_values():
    assert power_sum_denominator(ProgressionSpec(2, 0, 2)) == 3
    for r in range(5):
        assert power_sum_denominator(ProgressionSpec(1, r, 4)) == 30
    assert power_sum_denominator(ProgressionSpec(30, 1, 4)) == 1
    assert power_sum_denominator(ProgressionSpec(6, 1, 2)) == 1


@settings(max_examples=80)
@given(
    st.integers(min_value=1, max_value=30),
    st.integers(min_value=0, max_value=6),
    st.integers(min_value=1, max_value=40),
)
def test_denominator_formula_matches_polynomial(m, r, n):
    spec = ProgressionSpec(m, r, n)
    formula = power_sum_denominator(spec)
    assert formula == power_sum_poly(CACHE, spec).denominator
    # r-independence and the envelope divisibility
    assert formula == power_sum_denominator(ProgressionSpec(m, r + 1, n))
    envelope = (n + 1) * nonconstant_denom(n + 1).value
    assert envelope % formula == 0


def test_integrality_spot_values():
    assert is_integral(ProgressionSpec(6, 1, 5))
    assert not is_integral(ProgressionSpec(2, 0, 2))
    for n, m in enumerate((2, 6, 2, 30, 6), start=1):
        assert is_integral(ProgressionSpec(m, 3, n)), (m, n)
        assert power_sum_denominator(ProgressionSpec(m, 3, n)) == 1


@settings(max_examples=80)
@given(
    st.integers(min_value=1, max_value=60),
    st.integers(min_value=0, max_value=2),
    st.integers(min_value=1, max_value=40),
)
def test_integrality_equivalence_sampled(m, r, n):
    spec = ProgressionSpec(m, r, n)
    flag = is_integral(spec)
    assert flag == (power_sum_poly(CACHE, spec).denominator == 1)
    assert flag == (m % full_denom(n).value == 0)


@settings(max_examples=60)
@given(
    st.integers(min_value=1, max_value=8),
    st.integers(min_value=0, max_value=6),
    st.integers(min_value=0, max_value=6),
    st.integers(min_value=1, max_value=20),
)
def test_difference_is_integral(m, r1, r2, n):
    # one denominator d for both starts, and d divides each difference of
    # numerators: the check the T2 sweep makes across r
    f, g = (power_sum_poly(CACHE, ProgressionSpec(m, r, n)) for r in (r1, r2))
    assert f.den == g.den
    assert all((a - b) % f.den == 0 for a, b in zip(f.nums, g.nums, strict=True))


def test_am_integer_examples():
    for m in (1, 2, 7):
        for n in (1, 2, 9):
            assert am_integer(CACHE, m, 0, n).value == 0
    for n in range(2, 30):
        assert am_integer(CACHE, 1, 1, n).value == 0
    assert am_integer(CACHE, 1, 1, 1).value == 1  # B_1(1) - B_1 = 1
    assert am_integer(CACHE, 2, 1, 2).value == -1


def test_am_integer_matches_rational_definition():
    for m in range(1, 13):
        for r in range(-12, 13):
            for n in range(1, 16):
                expected = m**n * (CACHE.value_at(n, F(r, m)) - CACHE.number(n))
                got = am_integer(CACHE, m, r, n)
                assert got.value == expected, (m, r, n)
                assert got == AMInteger(m, r, n, got.value)


def _am_integer_by_comb_sum(cache, m, r, n):
    """sum_{k<n} C(n,k) B_k m^k r^(n-k) over the scaled numbers, term by term:
    the reference the Horner route is pinned to."""
    scale, scaled = cache.scaled_numbers(n - 1)
    total = sum(comb(n, k) * scaled[k] * m**k * r ** (n - k) for k in range(n))
    value, rem = divmod(total, scale)
    assert rem == 0, (m, r, n)
    return value


def test_am_integer_matches_comb_sum():
    for m in range(1, 13):
        for r in range(-12, 13):
            for n in range(1, 81):
                want = _am_integer_by_comb_sum(CACHE, m, r, n)
                assert am_integer(CACHE, m, r, n).value == want, (m, r, n)


def test_am_integer_validation():
    with pytest.raises(ValueError):
        am_integer(CACHE, 0, 1, 3)
    with pytest.raises(ValueError):
        am_integer(CACHE, 3, 1, 0)


def test_am_integer_both_signs_in_any_call_order():
    cases = [(m, r, n) for m in (1, 2, 7) for r in (0, 1, 5) for n in (1, 2, 3, 10, 31)]
    for first, second in ((1, -1), (-1, 1), (1, 1), (-1, -1)):
        # a fresh cache for each order, and the one all orders share
        for cache in (BernoulliCache(), CACHE):
            for m, r, n in cases:
                for sign in (first, second):
                    got = am_integer(cache, m, sign * r, n)
                    assert got.value == _am_integer_by_comb_sum(CACHE, m, sign * r, n)
                    assert got == AMInteger(m, sign * r, n, got.value)


def test_a_negative_start_fills_no_row_of_its_own():
    # -r reads the row of |r|/m; the table is the row of 0
    cache = BernoulliCache()
    for m, r in ((3, -2), (4, -6), (5, 0)):
        assert am_integer(cache, m, r, 9).value == _am_integer_by_comb_sum(CACHE, m, r, 9)
    assert set(cache._rows) == {(0, 1), (2, 3), (3, 2)}


def test_am_integer_names_the_sign_that_is_not_integral(monkeypatch):
    # the numerator of entry n of the row of 1/3 one unit off: A_2 =
    # 9 B_2(1/3) = -1/2 becomes 0, so both signs miss an integer by 1/2, and
    # each names its own r
    for order in ((1, -1), (-1, 1)):
        cache = BernoulliCache()
        real = cache.row

        def off_by_one(n, p, q=1, real=real):
            nums, dens = real(n, p, q)
            if p == 0:
                return nums, dens
            return [*nums[:n], nums[n] + 1, *nums[n + 1 :]], dens

        monkeypatch.setattr(cache, "row", off_by_one)
        for r in order:
            with pytest.raises(TheoremViolationError, match=f"m=3, r={r}, n=2$"):
                am_integer(cache, 3, r, 2)


def test_am_sweep_reports_failures_in_axis_order(monkeypatch):
    real = verify.am_integer
    bad = {(1, 2, 5), (1, -2, 5), (1, -1, 7), (1, 0, 1), (2, 3, 2), (2, -3, 8)}

    def failing(cache, m, r, n):
        if (m, r, n) in bad:
            raise TheoremViolationError(f"forced at m={m}, r={r}, n={n}")
        return real(cache, m, r, n)

    monkeypatch.setattr(verify, "am_integer", failing)
    report = verify.run_sweep("AM-integrality", max_n=8, m_max=2, r_max=3)
    assert report.checked == 2 * 7 * 8
    assert report.failure_count == len(bad)
    assert [f[0] for f in report.failures] == sorted(bad)
    assert report.failures[0][2] == "forced at m=1, r=-2, n=5"


def test_t2_sweep_reports_failures_in_axis_order(monkeypatch):
    # T2 walks n innermost for each (m, r): its sample is in (m, r, n) order
    real = verify.power_sum_denominator
    bad = {(1, 2, 3), (1, 1, 5), (1, 0, 6), (2, 3, 1), (2, 0, 4), (3, 1, 2)}

    def wrong(spec):
        d = real(spec)
        return 3 * d if (spec.m, spec.r, spec.n) in bad else d

    monkeypatch.setattr(verify, "power_sum_denominator", wrong)
    report = verify.run_sweep("T2-denominator", max_n=6, m_max=3, r_max=3, jobs=1)
    assert report.checked == 3 * 4 * 6
    assert report.failure_count == len(bad)
    assert [f[0] for f in report.failures] == sorted(bad)


def test_t2_reports_a_numerator_changed_at_one_start(monkeypatch):
    real = verify.power_sum_poly

    def bent(cache, spec):
        f = real(cache, spec)
        if spec.r != 1:
            return f
        # constant term 1/d in place of 0: the denominator d stays, and the
        # difference from r = 0 leaves Z[x] unless d = 1
        return RationalPoly((1, *f.nums[1:]), f.den)

    monkeypatch.setattr(verify, "power_sum_poly", bent)
    report = verify.run_sweep("T2-denominator", max_n=6, m_max=3, r_max=2)
    want = [
        (m, 1, n)
        for m in range(1, 4)
        for n in range(1, 7)
        if power_sum_denominator(ProgressionSpec(m, 1, n)) > 1
    ]
    assert 0 < len(want) < 18
    assert [f[0] for f in report.failures] == want
    assert {f[1] for f in report.failures} == {"difference in Z[x]"}


def test_l1_reports_an_am_integer_wrong_only_at_negative_starts(monkeypatch):
    real = am_integer

    def off_below_zero(cache, m, r, n):
        got = real(cache, m, r, n)
        return got if r >= 0 else AMInteger(m, r, n, got.value + 1)

    monkeypatch.setattr(verify, "am_integer", off_below_zero)
    report = verify.run_sweep("L1-congruence", max_n=4, m_max=1, r_max=2)
    # p^e with e >= 1 divides the true value, so never the value plus one
    want = sorted(
        (1, -r, n, p, e)
        for r in (1, 2)
        for n in range(1, 5)
        for p in primes_up_to(13)
        for e in range(1, p_valuation(p, n) + 1)
    )
    assert [f[0] for f in report.failures] == want
    assert report.range_label == "m <= 1, |r| <= 2, n <= 4, p <= 13"


def test_l1_counts_only_the_divisibility_checks_it_makes():
    # p^e with 1 <= e <= v_p(n) for p <= 13 and n <= 4: 2 | 2, 2 | 4, 4 | 4
    # and 3 | 3, at r = 0 once and at r = 1, 2 with both signs
    report = verify.run_sweep("L1-congruence", max_n=4, m_max=1, r_max=2)
    assert (report.ok, report.checked) == (True, 4 * 5)


def test_am_additive_relation():
    # shifting the start by r2 re-expands through binomials; the k = 0 term
    # vanishes because the n = 0 difference is zero
    for m in range(1, 9):
        table = {
            r: [am_integer(CACHE, m, r, k).value for k in range(1, 26)]
            for r in range(13)
        }
        for r1 in range(7):
            for r2 in range(7):
                for n in range(1, 26):
                    total = sum(
                        comb(n, k) * table[r1][k - 1] * r2 ** (n - k)
                        for k in range(1, n + 1)
                    )
                    assert table[r1 + r2][n - 1] == total + table[r2][n - 1], (
                        m, r1, r2, n,
                    )


def test_am_congruence_examples():
    # p^e divides m^n(B_n(r/m) - B_n) for a prime p not dividing m and
    # e <= v_p(n)
    assert am_integer(CACHE, 3, 1, 4).value % 2**2 == 0
    assert am_integer(CACHE, 2, 1, 12).value % 3**1 == 0
    assert am_integer(CACHE, 9, 5, 8).value % 2**3 == 0


def test_no_fraction_is_built_below_the_api(monkeypatch):
    # a rational point is two ints all the way down: on a fresh cache the
    # power sum, am_integer at both signs, the polynomial denominators and
    # the three oracles construct no Fraction, at a fresh point filled by a
    # shift and at one grown entry by entry
    built = []
    new = Fraction.__new__

    def counted(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counted)
    cache = BernoulliCache()
    power_sum_poly(cache, ProgressionSpec(6, 4, 30))
    for n in range(1, 6):
        power_sum_poly(cache, ProgressionSpec(10, 3, n))
        for r in (7, -7):
            am_integer(cache, 10, r, n)
    am_integer(cache, 6, -4, 31)
    cache.polynomial_denominators(40)
    for oracle in (number_denom_direct, nonconstant_denom_direct, full_denom_direct):
        oracle(cache, 50)
    assert built == []
    # the count sees a Fraction that the API returns
    assert cache.value_at(2, F(1, 2)) == F(-1, 12)
    assert built


def test_triple_product_integrality():
    # C(n, k-1)/k * m^(n-k) * (scaled difference at exponent k) is an integer
    for m in range(1, 13):
        for r in range(13):
            diffs = [am_integer(CACHE, m, r, k).value for k in range(1, 31)]
            for n in range(1, 31):
                for k in range(1, n + 1):
                    value = F(comb(n, k - 1), k) * m ** (n - k) * diffs[k - 1]
                    assert value.denominator == 1, (m, r, n, k)

