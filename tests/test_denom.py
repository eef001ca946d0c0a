"""The three denominator sequences, their variants, and the quotients."""

import random
from itertools import chain
from math import gcd, isqrt, lcm, prod

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from powerdenom import denom, digits
from powerdenom.bernoulli import BernoulliCache
from powerdenom.denom import (
    FULL_QUOTIENT_PARITY,
    NONCONSTANT_QUOTIENT_PARITY,
    clear_formula_caches,
    full_denom,
    full_denom_direct,
    full_denom_quotient,
    full_denom_quotient_by_division,
    full_denom_split_product,
    full_denom_via_successor,
    nonconstant_denom,
    nonconstant_denom_all_primes,
    nonconstant_denom_direct,
    nonconstant_quotient,
    nonconstant_quotient_by_division,
    number_denom,
    number_denom_direct,
    parity_indices,
)
from powerdenom.digits import SquarefreeProduct, digit_sum, primes_up_to
from powerdenom.errors import TheoremViolationError

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


def test_oracle_equivalence_to_600_and_sampled_to_2000():
    # a fresh cache, so the table grows through this test's own request order
    cache = BernoulliCache()
    rng = random.Random(2017)
    for n in chain(range(1, 601), rng.sample(range(1501, 2001), 10)):
        assert number_denom(n).value == number_denom_direct(cache, n), n
        assert nonconstant_denom(n).value == nonconstant_denom_direct(cache, n), n
        assert full_denom(n).value == full_denom_direct(cache, n), n


def test_oracle_equivalence_601_to_1500():
    # with the test above, every n <= 1500; a fresh cache, filled upward
    cache = BernoulliCache()
    for n in range(601, 1501):
        assert number_denom(n).value == number_denom_direct(cache, n), n
        assert nonconstant_denom(n).value == nonconstant_denom_direct(cache, n), n
        assert full_denom(n).value == full_denom_direct(cache, n), n


def test_oracles_equal_the_polynomial_route_to_600():
    # the denominators of the whole B_n(x), the oracles' route before they
    # read coefficient denominators, on a cache of its own
    reference = BernoulliCache()
    cache = BernoulliCache()
    order = list(range(1, 601))
    random.Random(2017).shuffle(order)
    for i, n in enumerate(order):
        f = reference.polynomial(n)
        dd, db = f.den // gcd(f.den, *f.nums[1:]), f.den
        # the filled pairs in any order: DB before DD, the same n twice,
        # and at every 50th n also n + 1 and then n again
        assert full_denom_direct(cache, n) == db, n
        assert nonconstant_denom_direct(cache, n) == dd, n
        assert nonconstant_denom_direct(cache, n) == dd, n
        if i % 50 == 0:
            g = reference.polynomial(n + 1)
            assert full_denom_direct(cache, n + 1) == g.den, n + 1
            assert full_denom_direct(cache, n) == db, n


def test_direct_oracles_use_no_digit_sum_sieve_or_primality(monkeypatch):
    want = [
        (number_denom(n).value, nonconstant_denom(n).value, full_denom(n).value)
        for n in range(1, 201)
    ]

    def forbidden(*args):
        raise AssertionError("a closed-form ingredient reached the oracle")

    clear_formula_caches()
    for module in (denom, digits):
        for name in ("digit_sum", "primes_up_to", "prime_flags", "is_prime", "radical"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, forbidden)
    with pytest.raises(AssertionError):
        nonconstant_denom(7)  # the patches reach the closed forms
    cache = BernoulliCache()
    for n, (d, dd, db) in enumerate(want, start=1):
        assert number_denom_direct(cache, n) == d, n
        assert nonconstant_denom_direct(cache, n) == dd, n
        assert full_denom_direct(cache, n) == db, n


def test_quotient_domains_are_where_the_quotients_are_defined():
    for lo in range(1, 6):
        for hi in range(lo, 12):
            for quotient, parity in (
                (nonconstant_quotient, NONCONSTANT_QUOTIENT_PARITY),
                (full_denom_quotient, FULL_QUOTIENT_PARITY),
            ):
                defined = []
                for n in range(lo, hi + 1):
                    try:
                        quotient(n)
                    except ValueError:
                        continue
                    defined.append(n)
                assert list(parity_indices(parity, lo, hi)) == defined, (lo, hi)
            assert parity_indices(None, lo, hi) == range(lo, hi + 1)


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


def _cube_boundary_indices():
    # indices where a prime sits at or next to cbrt(n): from p^3 on, n has
    # four base-p digits, below it three, and Legendre's sum in the
    # per-index scan takes one quotient more or less
    for p in primes_up_to(60):
        yield from (p**3 - 1, p**3, p**3 + 1)


def test_bounded_and_unbounded_scans_agree():
    rng = random.Random(2017)
    large = [rng.randrange(10**5, 10**6) for _ in range(20)]
    for n in chain(range(1, 5001), large, _sqrt_boundary_indices(), _cube_boundary_indices()):
        assert nonconstant_denom(n).primes == nonconstant_denom_all_primes(n).primes, n


def _tilings(top, longest=2048):
    # segments covering 1..top, their lengths cycling through short and long
    # ones in two orders, so that lo takes odd and even values and many
    # segments reach across a square p^2
    for lengths in ((1, 2, 15, 16, longest), (longest, 16, 15, 2, 1)):
        lo, i = 1, 0
        while lo <= top:
            hi = min(lo + lengths[i % len(lengths)] - 1, top)
            yield lo, hi
            lo, i = hi + 1, i + 1
    # a length-16 segment around each square p^2 <= top
    for p in primes_up_to(isqrt(top)):
        yield max(p * p - 8, 1), min(p * p + 7, top)
    yield from ((lo, min(lo + 15, top)) for lo in _gap_starts(top, primes_up_to(isqrt(top))))


def _gap_starts(top, primes, least=1, blocks=3, rng=None):
    # for each p and a few blocks k >= p with s_p(k) < p, where p leaves DD
    # at kp: lo at kp, inside the gap, and at the re-entry kp + p - s_p(k);
    # kp >= p^2 keeps p among the segment's primes below its square root
    rng = rng or random.Random(2017)
    for p in primes:
        ks = range(max(least // p, p), (top - p) // p + 1)
        power = p  # s_p(p^e) = 1, the only gaps of p = 2
        while power < ks.start:
            power *= p
        candidates = [power, *rng.sample(ks, min(len(ks), 40))]
        gaps = [k for k in candidates if k in ks and digit_sum(p, k) < p]
        for k in gaps[:blocks]:
            yield from (k * p, k * p + p - digit_sum(p, k))


def _assert_entries(got, ns, primes):
    # equality and hashing read the primes alone, so the value, carried by
    # the DD sweep and computed by the constructor for D, is compared on its own
    got = list(got)
    assert len(got) == len(ns), ns
    for n, product in zip(ns, got):
        want = primes(n)
        assert (product.primes, product.value) == (want, prod(want)), (ns, n)


def _assert_segments_match_per_index_scans(segments, dd, d):
    # DD's scan yields every n of lo..hi, D's the even n alone, from lo
    # rounded up to even: number_denom answers every odd n itself
    for lo, hi in segments:
        _assert_entries(denom._nonconstant_segment(lo, hi), range(lo, hi + 1), dd)
        even = lo + lo % 2
        _assert_entries(denom._number_segment(even, hi), range(even, hi + 1, 2), d)


def test_segment_scans_equal_the_per_index_scans_to_20000():
    top = 20000
    dd = [None] + [denom._nonconstant_primes(n) for n in range(1, top + 1)]
    d = {n: denom._number_primes(n) for n in range(2, top + 1, 2)}
    _assert_segments_match_per_index_scans(_tilings(top), dd.__getitem__, d.__getitem__)


def test_segment_scans_equal_the_per_index_scans_at_sampled_large_segments():
    rng = random.Random(2017)
    segments = []
    for _ in range(20):
        lo = rng.randrange(10**5, 2 * 10**6)
        segments.append((lo, lo + rng.choice((1, 2, 15, 16, 64)) - 1))
    # lo in a gap of a prime p <= sqrt(lo) and at its re-entry, for 2 and
    # four seeded primes up to sqrt(10^5)
    primes = [2, *sorted(rng.sample(primes_up_to(isqrt(10**5)), 4))]
    for lo in _gap_starts(2 * 10**6, primes, least=10**5, blocks=2, rng=rng):
        segments.append((lo, lo + 15))
    _assert_segments_match_per_index_scans(
        segments, denom._nonconstant_primes, denom._number_primes
    )
    for lo, hi in segments[:2]:
        got = list(denom._nonconstant_segment(lo, hi))
        for n in (lo, hi):
            assert got[n - lo] == nonconstant_denom_all_primes(n), n


def test_segment_digit_sums_carry_across_prime_powers():
    # the segment scan takes one digit sum per prime and carries it from
    # block to block; across p^e it carries e - 1 trailing digits at once
    for p in primes_up_to(47):
        power = p
        while power <= 2 * 10**6:
            if power >= 10**5:
                lo, hi = power - p, power + p - 1
                got = denom._nonconstant_segment(lo, hi)
                _assert_entries(got, range(lo, hi + 1), denom._nonconstant_primes)
            power *= p


def _per_index_quotient(n):
    # the quotient memo is emptied first, so this is the per-index path
    return nonconstant_quotient(n) if n % 2 else full_denom_quotient(n)


def _assert_quotient_segments_match(segments, want):
    for lo, hi in segments:
        got = denom._quotient_segment(lo, hi)
        assert len(got) == hi - lo + 1, (lo, hi)
        for n in range(lo, hi + 1):
            assert got[n - lo] == want(n), (lo, hi, n)


def test_quotient_segment_equals_the_per_index_quotients_to_20000():
    # a quotient segment of cli.SEGMENT_TERMS indices of one parity spans
    # 4095 values of n
    top = 20000
    clear_formula_caches()
    want = [None] + [_per_index_quotient(n) for n in range(1, top + 1)]
    _assert_quotient_segments_match(_tilings(top, longest=4095), want.__getitem__)


def test_quotient_segment_carries_digit_sums_across_prime_powers():
    # k = n + 1 walks the multiples of p; across k = p^e the carry loop runs
    # e - 1 times and the exponent e >= 2 divides out of the cofactor
    clear_formula_caches()
    segments = []
    for p in primes_up_to(47):
        power = p
        while power <= 2 * 10**6:
            if power >= 10**5:
                segments.append((power - p - 1, power + p - 1))
            power *= p
    _assert_quotient_segments_match(segments, _per_index_quotient)


def test_quotient_segment_at_sampled_large_segments():
    clear_formula_caches()
    rng = random.Random(2017)
    segments = []
    for _ in range(20):
        lo = rng.randrange(10**5, 2 * 10**6)
        segments.append((lo, lo + rng.choice((1, 2, 15, 16, 64)) - 1))
    _assert_quotient_segments_match(segments, _per_index_quotient)
    for lo, hi in segments[:2]:
        got = denom._quotient_segment(lo, hi)
        for n in (lo, hi):
            by_division = (
                nonconstant_quotient_by_division if n % 2 else full_denom_quotient_by_division
            )
            assert got[n - lo] == by_division(n), n


def test_filled_memos_hold_the_per_index_values(monkeypatch):
    clear_formula_caches()
    denom.fill_nonconstant_memo(990, 1030)
    denom.fill_number_memo(990, 1030)
    stored = [(nonconstant_denom(n), number_denom(n)) for n in range(990, 1031)]

    def rescan(lo, hi):
        raise AssertionError(f"segment {lo}..{hi} scanned again")

    monkeypatch.setattr(denom, "_nonconstant_segment", rescan)
    monkeypatch.setattr(denom, "_number_segment", rescan)
    denom.fill_nonconstant_memo(1000, 1030)
    denom.fill_number_memo(990, 1000)
    for n, (dd, d) in zip(range(990, 1031), stored):
        # a hit returns the stored product itself
        assert nonconstant_denom(n) is dd and number_denom(n) is d, n
        want = denom._nonconstant_primes(n)
        assert (dd.primes, dd.value) == (want, prod(want)), n
        # D(n) = 1 at odd n >= 3; the per-index scan takes even n alone
        want = () if n % 2 else denom._number_primes(n)
        assert (d.primes, d.value) == (want, prod(want)), n


def test_a_fill_keeps_the_newest_indices_and_never_passes_the_bound(monkeypatch):
    bound = 8
    monkeypatch.setattr(denom, "MEMO_BOUND", bound)
    # this test's misses scan their index alone, as every miss from
    # MISS_BLOCK_BELOW on does
    monkeypatch.setattr(denom, "MISS_BLOCK_BELOW", 0)
    memo = denom._nonconstant_memo
    carried = SquarefreeProduct._carried
    built = []

    def stored_within_the_bound(primes, value):
        # the sweep is lazy: each product is built as the fill stores it
        assert len(memo) < bound, len(memo)
        built.append(primes)
        return carried(primes, value)

    monkeypatch.setattr(SquarefreeProduct, "_carried", staticmethod(stored_within_the_bound))
    clear_formula_caches()
    nonconstant_denom(3)
    denom.fill_nonconstant_memo(1, 5)  # 3 is stored already and keeps its place
    assert list(memo) == [3, 1, 2, 4, 5]
    denom.fill_nonconstant_memo(4, 9)  # four new indices: the oldest, 3, goes
    assert list(memo) == [1, 2, 4, 5, 6, 7, 8, 9]
    denom.fill_nonconstant_memo(20, 40)  # longer than the bound: its last 8 stay
    assert list(memo) == list(range(33, 41))
    for n, value in memo.items():
        assert value.primes == denom._nonconstant_primes(n), n
    assert built  # the fills built their products through the wrapper

    # one miss past the bound: the memo holds the bound, and only the first
    # index asked is gone
    clear_formula_caches()
    for n in range(1, bound + 2):
        nonconstant_denom(n)
    assert list(memo) == list(range(2, bound + 2))

    # a fill whose one missing index comes first: the span scanned ends
    # there, one short of hi, and both indices are stored
    clear_formula_caches()
    nonconstant_denom(1001)
    denom.fill_nonconstant_memo(1000, 1001)
    assert set(memo) == {1000, 1001}
    for n, value in memo.items():
        assert value.primes == denom._nonconstant_primes(n), n

    # D's products come from the constructor, as lazily
    number_memo = denom._number_memo
    built.clear()

    def constructed_within_the_bound(primes):
        assert len(number_memo) < bound, len(number_memo)
        built.append(primes)
        return SquarefreeProduct(primes)

    monkeypatch.setattr(denom, "SquarefreeProduct", constructed_within_the_bound)
    # D's fills store the even n alone, so 8 indices span 16 values of n
    denom.fill_number_memo(1, 17)  # 2, 4, ..., 16
    denom.fill_number_memo(21, 41)  # the memo is full: all 8 go before a product is built
    assert list(number_memo) == list(range(26, 41, 2))
    assert len(built) == 16
    for n, value in number_memo.items():
        assert value.primes == denom._number_primes(n), n
    clear_formula_caches()


def test_a_miss_below_the_threshold_stores_its_aligned_block(monkeypatch):
    def per_index(n):
        raise AssertionError(f"{n} scanned alone")

    want_dd = {n: denom._nonconstant_primes(n) for n in range(1, 4096)}
    want_d = {n: denom._number_primes(n) for n in range(2, 4096, 2)}
    monkeypatch.setattr(denom, "_nonconstant_primes", per_index)
    monkeypatch.setattr(denom, "_number_primes", per_index)
    assert denom.MISS_BLOCK == 64 and denom.MISS_BLOCK_BELOW == 4096
    # the first block starts at 1, the last below the threshold ends at 4095
    for n, block in ((5, range(1, 64)), (1000, range(960, 1024)), (4095, range(4032, 4096))):
        clear_formula_caches()
        got = nonconstant_denom(n)
        assert list(denom._nonconstant_memo) == list(block), n
        assert got is denom._nonconstant_memo[n]
        for k, value in denom._nonconstant_memo.items():
            assert (value.primes, value.value) == (want_dd[k], prod(want_dd[k])), k
        # D's memo holds the block's even n alone
        clear_formula_caches()
        even = n - n % 2
        got = number_denom(even)
        assert list(denom._number_memo) == list(range(max(block.start, 2), block.stop, 2)), n
        assert got is denom._number_memo[even]
        for k, value in denom._number_memo.items():
            assert (value.primes, value.value) == (want_d[k], prod(want_d[k])), k
    clear_formula_caches()


def test_a_miss_from_the_threshold_on_stores_its_index_alone(monkeypatch):
    def scanned(lo, hi):
        raise AssertionError(f"segment {lo}..{hi} scanned")

    monkeypatch.setattr(denom, "_nonconstant_segment", scanned)
    monkeypatch.setattr(denom, "_number_segment", scanned)
    for dd, d in ((4096, 4096), (10**5 + 3, 10**5 + 2)):
        clear_formula_caches()
        got = nonconstant_denom(dd)
        assert list(denom._nonconstant_memo) == [dd]
        assert got.primes == denom._nonconstant_primes(dd)
        got = number_denom(d)
        assert list(denom._number_memo) == [d]
        assert got.primes == denom._number_primes(d)
    clear_formula_caches()


def test_a_miss_in_a_memo_shorter_than_a_block_is_scanned_alone(monkeypatch):
    # a block fill keeps only the last MEMO_BOUND indices of the block; a
    # miss it did not store is scanned alone and stored after them
    bound = 8
    monkeypatch.setattr(denom, "MEMO_BOUND", bound)
    clear_formula_caches()
    for n in (3, 63, 1000, 1023, 2, 4094):
        dd = nonconstant_denom(n)
        assert dd.primes == denom._nonconstant_primes(n), n
        assert dd is denom._nonconstant_memo[n]
        assert len(denom._nonconstant_memo) <= bound, n
        d = number_denom(n)
        assert d.primes == (() if n % 2 else denom._number_primes(n)), n
        assert len(denom._number_memo) <= bound, n
    # the fill keeps the block's last 8 indices, 1016..1023; 1000, scanned
    # alone, then pushes out the oldest
    clear_formula_caches()
    nonconstant_denom(1000)
    assert list(denom._nonconstant_memo) == [*range(1017, 1024), 1000]
    clear_formula_caches()


def test_the_dd_sweep_checks_each_event(monkeypatch):
    # each fault breaks the sweep's bookkeeping at the first event it
    # reaches, and the error names that n and p
    faults = (
        # s_p(k) read as 0: p leaves at a block it never entered
        (
            "digit_sum",
            lambda p, k: 0,
            r"^DD sweep: 7 leaves DD\(1001\) but is not in DD\(1000\)$",
        ),
        # every prime <= sqrt(hi) listed twice: each enters twice
        (
            "primes_up_to",
            lambda b: sorted(2 * primes_up_to(b)),
            r"^DD sweep: 2 enters DD\(1000\) twice$",
        ),
        # a remainder where none is: the carried value and the primes disagree
        (
            "divmod",
            lambda a, b: (a // b, 1),
            r"^DD sweep: 167 leaves DD\(1002\) but does not divide the carried value of "
            r"DD\(1001\)$",
        ),
        # 2 listed again after the other primes <= sqrt(hi): it enters again
        # while larger primes are held, so the largest held is not 2
        (
            "primes_up_to",
            lambda b: primes_up_to(b) + [2],
            r"^DD sweep: 2 enters DD\(1000\) twice$",
        ),
    )
    for name, fake, message in faults:
        with monkeypatch.context() as patch:
            patch.setattr(denom, name, fake, raising=False)
            with pytest.raises(TheoremViolationError, match=message):
                list(denom._nonconstant_segment(1000, 1100))


def test_a_candidate_past_the_digit_bound_is_not_looked_up(fresh_sieve):
    # for even n = 3q - 2 the candidate at a = 2 is q, one past the bound
    # (n + 1) // 3; from a fresh sieve the flag table ends at that bound
    clear_formula_caches()
    n = 3 * 10**6 - 2
    fast = nonconstant_denom(n).primes
    assert len(digits._sieve_flags) == (n + 1) // 3 + 1
    assert fast == nonconstant_denom_all_primes(n).primes


def test_a_prime_at_the_split_moves_from_the_quotient_walk_to_the_prime_list():
    # the per-index scan tests the primes up to 3*isqrt(n) one by one and
    # walks the quotients n // p above that; with k = ceil(p/3), p is a walk
    # candidate at n = k^2 - 1 and in the prime list at n = k^2
    clear_formula_caches()
    rng = random.Random(2017)
    for p in sorted(rng.sample([p for p in primes_up_to(3000) if p > 100], 25)):
        k = -(-p // 3)
        assert 3 * isqrt(k * k - 1) < p <= 3 * isqrt(k * k), p
        for n in (k * k - 1, k * k):
            got = nonconstant_denom(n).primes
            assert got == next(denom._nonconstant_segment(n, n)).primes, (p, n)
            if n <= 250000:
                assert got == nonconstant_denom_all_primes(n).primes, (p, n)


def test_d_at_every_odd_n_is_one_shared_product_that_is_never_stored(monkeypatch):
    # B_1 = -1/2 and B_n = 0 at odd n >= 3: D reads no memo at odd n, builds
    # nothing, stores nothing
    clear_formula_caches()
    for n in (2, 5000):
        number_denom(n)
    stored = list(denom._number_memo.items())

    def forbidden(*args):
        raise AssertionError(f"built {args}")

    for name in ("SquarefreeProduct", "_number_primes", "_number_segment", "factorize",
                 "prime_flags"):
        monkeypatch.setattr(denom, name, forbidden)
    one = number_denom(1)
    assert (one.primes, one.value) == ((2,), 2)
    assert number_denom(1) is one
    shared = number_denom(3)
    assert (shared.primes, shared.value) == ((), 1)
    for n in range(3, 5002, 2):
        assert number_denom(n) is shared, n
    assert list(denom._number_memo.items()) == stored
    clear_formula_caches()


def test_number_denom_matches_sieve_filter():
    rng = random.Random(21)
    seeded = [2 * rng.randrange(5 * 10**4, 5 * 10**5) for _ in range(4)]
    # 720720 has 240 divisors; 2^17 only powers of two; 2p has 1, 2, p and
    # 2p (99839 with 2p + 1 prime, 99991 without); the even square (2p)^2
    # holds a divisor equal to its cofactor
    special = [720720, 2**17, 2 * 99839, 2 * 99991, 2 * 499979, (2 * 499) ** 2]
    for n in chain(range(2, 20001, 2), special, seeded):
        reference = tuple(p for p in primes_up_to(n + 1) if n % (p - 1) == 0)
        assert number_denom(n).primes == reference, n


def _count_calls(monkeypatch, module, name):
    calls = []
    original = getattr(module, name)

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_d_from_a_fresh_sieve_matches_the_filter_at_every_even_n(fresh_sieve, monkeypatch):
    # the (p - 1) | n filter over every prime p <= n + 1, one prime at a time
    top = 30000
    want = {n: [] for n in range(2, top + 1, 2)}
    for p in primes_up_to(top + 1):
        # the even multiples of p - 1, which is even but for p = 2
        step = max(p - 1, 2)
        for n in range(step, top + 1, step):
            want[n].append(p)
    fresh_sieve()
    calls = _count_calls(monkeypatch, denom, "factorize")
    trials = 0
    for n in range(2, top + 1, 2):
        calls.clear()
        assert denom._number_primes(n) == tuple(want[n]), n
        trials += calls.count((n + 1,))
    # the flag table to n/2 + 1 grows by doubling, so about half of these n
    # find n + 1 past it and factorize it; it never reaches the top n + 1
    assert trials > top // 5
    assert digits._sieve_limit < top


@pytest.mark.parametrize(
    "n",
    [
        # n + 1 a prime past the table
        30012, 199998, 1000002,
        # n + 1 a prime square: 11^2 and 13^2 inside the 256-byte table,
        # 17^2, 19^2 and 1009^2 past it, where the last trial divisor is p
        120, 168, 288, 360, 1009**2 - 1,
        # n + 1 = 3q with q prime
        3 * 100003 - 1, 3 * 1000003 - 1,
    ],
)
def test_d_reads_or_trial_divides_n_plus_1(fresh_sieve, monkeypatch, n):
    calls = _count_calls(monkeypatch, denom, "factorize")
    got = denom._number_primes(n)
    assert digits._sieve_limit <= max(n // 2 + 1, 256)
    # n/2 for the divisors, and n + 1 only when it lies past the table
    past = n + 1 >= len(digits._sieve_flags)
    assert calls == [(n // 2,)] + [(n + 1,)] * past
    assert got == tuple(p for p in primes_up_to(n + 1) if n % (p - 1) == 0), n


def test_d_reads_n_plus_1_from_a_table_that_reaches_it(fresh_sieve, monkeypatch):
    # a candidate inside the table costs one index, n + 1 included: with
    # the table built past every n + 1 here, factorize sees only n/2
    ns = [120, 288, 360, 30012, 199998, 1000002, 1009**2 - 1, 3 * 100003 - 1]
    digits.prime_flags(max(ns) + 2)
    calls = _count_calls(monkeypatch, denom, "factorize")
    for n in ns:
        calls.clear()
        got = denom._number_primes(n)
        assert calls == [(n // 2,)], n
        assert got == tuple(p for p in primes_up_to(n + 1) if n % (p - 1) == 0), n


def test_one_d_term_sieves_to_half_of_n(fresh_sieve):
    # every even divisor of n but n itself is at most n/2; n + 1 goes to
    # factorize, so the flag table stops at n/2 + 1
    clear_formula_caches()
    n = 200002  # 2 * 11 * 9091, with n + 1 prime
    got = number_denom(n).primes
    assert digits._sieve_limit <= n // 2 + 1
    assert got == (2, 3, 23, 200003)
    clear_formula_caches()


def test_one_dd_term_takes_no_digit_sum(monkeypatch):
    ns = [1, 2, 7, 8, 9, 26, 27, 28, 1000, 10**5 - 1, 10**5, 2 * 10**5 + 1, 10**6]
    want = [nonconstant_denom_all_primes(n).primes for n in ns]

    def forbidden(*args):
        raise AssertionError(f"digit_sum{args}")

    monkeypatch.setattr(denom, "digit_sum", forbidden)
    assert [denom._nonconstant_primes(n) for n in ns] == want


def test_dd_from_a_fresh_sieve_where_its_prime_ranges_meet(fresh_sieve):
    # the scan's two loops meet at sqrt(n): n = k^2 - 1 and k^2 move a prime
    # from three digits to two; n = k^3 - 1, k^3 and k^3 + 1 move one from
    # four digits to three inside the Legendre loop, whose sum then takes
    # one quotient fewer
    cubes = (k**3 + d for k in range(1, 61) for d in (-1, 0, 1))
    squares = (k * k + d for k in range(1, 401) for d in (-1, 0))
    ns = sorted({n for n in chain(cubes, squares) if n >= 1})
    got = {n: denom._nonconstant_primes(n) for n in ns}
    for n in ns:
        assert got[n] == nonconstant_denom_all_primes(n).primes, n


@pytest.mark.parametrize("lo, hi", [(1000, 1100), (1000, 1010), (1, 5000)])
def test_segments_from_a_fresh_sieve_equal_those_after_a_grown_one(fresh_sieve, lo, hi):
    # from a fresh sieve each scan gets a flag table and a prime list that
    # end about where it asked, so a scan that asks for too few reads short
    # tables here; after the sieve is grown past hi it reads full ones
    scans = {
        "DD": lambda: [sp.primes for sp in denom._nonconstant_segment(lo, hi)],
        "D": lambda: [sp.primes for sp in denom._number_segment(lo + lo % 2, hi)],
        "Q": lambda: denom._quotient_segment(lo, hi),
    }
    cold = {}
    for name, scan in scans.items():
        fresh_sieve()
        cold[name] = scan()
    digits.prime_flags(4 * hi)
    digits.sieve_primes(4 * hi)
    for name, scan in scans.items():
        assert cold[name] == scan(), name


def test_products_are_valid_squarefree():
    for n in range(1, 120):
        for sp in (nonconstant_denom(n), number_denom(n), full_denom(n)):
            assert all(digits.is_prime(p) for p in sp.primes), (n, sp)


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
    # the message word for word at n = 0, at negative n and at the other parity
    cases = (
        ((nonconstant_quotient, nonconstant_quotient_by_division), "odd n >= 1", 2),
        ((full_denom_quotient, full_denom_quotient_by_division), "even n >= 2", 3),
    )
    for quotients, domain, other in cases:
        for quotient in quotients:
            for n in (0, -1, -2, other):
                with pytest.raises(ValueError, match=f"^quotient defined for {domain}, got {n}$"):
                    quotient(n)


def test_prime_set_quotients_equal_the_division_path():
    # every n <= 4096, then 20 seeded n in [10^5, 2*10^6], each fixed once
    # to the odd and once to the even index beside it
    rng = random.Random(2017)
    large = [rng.randrange(10**5, 2 * 10**6 + 1) for _ in range(20)]
    odd = chain(range(1, 4097, 2), (n | 1 for n in large))
    even = chain(range(2, 4097, 2), (n - n % 2 for n in large))
    for n in odd:
        assert nonconstant_quotient(n) == nonconstant_quotient_by_division(n), n
    for n in even:
        assert full_denom_quotient(n) == full_denom_quotient_by_division(n), n


def test_quotients_by_division_check_divisibility(monkeypatch):
    real = denom.nonconstant_denom
    # DD(8) = 3 does not divide a DD(7) of 10 in place of 6
    monkeypatch.setattr(
        denom, "nonconstant_denom", lambda n: SquarefreeProduct.of([2, 5]) if n == 7 else real(n)
    )
    with pytest.raises(TheoremViolationError):
        nonconstant_quotient_by_division(7)
    assert nonconstant_quotient(7) == 2  # the prime set never divides


def test_sequences_reject_nonpositive_index():
    # odd n < 0 too: -1 % 2 == 1, so D's odd branch must not answer them
    for n in (0, -1, -2, -3):
        message = f"^sequence index must be >= 1, got {n}$"
        for fn in (nonconstant_denom, nonconstant_denom_all_primes, number_denom,
                   full_denom, full_denom_via_successor, full_denom_split_product):
            with pytest.raises(ValueError, match=message):
                fn(n)
        for direct in (number_denom_direct, nonconstant_denom_direct, full_denom_direct):
            with pytest.raises(ValueError, match=message):
                direct(CACHE, n)


def _first_index_digit_sum_reaches(p, q):
    """Smallest k >= 1 with s_p(q^k) >= p, by linear search: it ends for any
    two distinct primes, though no bound on k comes with that."""
    k, power = 1, q
    while digit_sum(p, power) < p:
        k, power = k + 1, power * q
    return k


def test_first_index_examples():
    assert _first_index_digit_sum_reaches(3, 2) == 3
    assert _first_index_digit_sum_reaches(5, 2) == 6
    for q in (3, 5, 7, 11, 47):
        assert _first_index_digit_sum_reaches(2, q) == 1


def test_first_index_really_is_first():
    for p, q in ((3, 2), (5, 2), (7, 2), (5, 3), (11, 7)):
        k = _first_index_digit_sum_reaches(p, q)
        assert digit_sum(p, q**k) >= p
        for j in range(1, k):
            assert digit_sum(p, q**j) < p


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
