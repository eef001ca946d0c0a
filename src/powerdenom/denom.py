"""Denominator sequences of Bernoulli numbers and polynomials.

The five sequences are described once, with their ids and OEIS numbers,
in the table of sequences in README.md.  Here D, DD and DB are
number_denom, nonconstant_denom and full_denom, each computed two
independent ways (a closed-form digit-sum or prime product, and a direct
rational oracle), and DDQ and DBQ are nonconstant_quotient and
full_denom_quotient.  The full denominator comes in three equivalent
closed forms (lcm of the other two sequences, a successor relation through
the radical, and a two-factor prime product); all are exposed so their
agreement can be asserted rather than assumed.  ``full_denom`` gives the
lcm with its primes, the union of DD's and D's prime sets
(``SquarefreeProduct.merge``), for callers that read the primes; ``seq DB``
prints ``math.lcm`` of the two values instead, and ``full_denom`` is the
reference it is checked against.  The quotients are defined
at one parity each and reject the other; that parity is set here once
(``*_QUOTIENT_PARITY``), and ``parity_indices`` lists the n of a domain.
``cli.SEQUENCES`` maps each id to its closed form, oracle and domain.

The two quotients DDQ(n) = DD(n)/DD(n+1) at odd n and DBQ(n) = DB(n)/DB(n+1)
at even n are one prime set Q(n), read off n+1 alone.  A prime p is in
DD(n) exactly when s_p(n) >= p (Kellner-Sondow, "Power-sum denominators",
2017), and base-p digit sums satisfy s_p(n+1) = s_p(n) + 1 - t(p-1), where
t counts the trailing base-p digits of n equal to p-1.  If p does not
divide n+1, then t = 0 and p stays in the set from n to n+1; so only a
prime p^e || n+1 can leave it, and then t = e.  At even n,
DB(n) = lcm(DD(n+1), rad(n+1)) and DB(n+1) = DD(n+1), so DB gains the
primes of n+1 missing from DD(n+1).  Hence

  Q(n):  the p^e || n+1 with s_p(n+1) < p, and at odd n also
         p <= s_p(n+1) - 1 + e(p-1), the right side being s_p(n).

``nonconstant_quotient`` (odd n) and ``full_denom_quotient`` (even n) are
its two views, each rejecting n of the other parity.  A single Q(n) costs
one factorization of n+1 (``digits.factorize``, trial division by the
sieve's primes up to sqrt(n+1), a flag table of at most 10**4 bytes below
``limits.MAX_SEQ_N``) and one digit sum per prime factor.  The quotients
by division, ``nonconstant_quotient_by_division`` and
``full_denom_quotient_by_division``, stay beside
``full_denom_via_successor`` as references; they divide the closed forms
at n and n+1 and raise TheoremViolationError when the division leaves a
remainder.  That divisibility check runs wherever the two paths are
compared: the T4 and T5 sweeps, the tests, and the benchmark's reference
check of its b-file and sparse values.

Formula paths depend only on digit sums, sieves and trial division; the
``*_direct`` oracles take a BernoulliCache and use no digit sum, sieve or
primality test.  D is the reduced denominator of the table's B_n.  DD and
DB are the two values of ``BernoulliCache.polynomial_denominators(n)``: the
lcm of the reduced denominators of B_n(x)'s coefficients, with the constant
term left out for DD.  A polynomial's denominator in lowest terms is that
lcm, so neither builds the polynomial.  The cache fills the pair for every
index up to n, as it fills the table, and keeps it: each index collects
the distinct denominators of its nonconstant coefficients in a set, most
of them 1, reading their binomials from one carried half Pascal row; DD is
the set's lcm, and DB that lcm with the constant term's.

One index at a time, nonconstant_denom costs O(sqrt(n)) steps once the
sieve is built.  It splits its primes near sqrt(n), as Kellner does in "On
a product of certain primes" (J. Number Theory, 2017), into two ranges
tested prime by prime and one walked by quotient, and takes no digit sum.
The two ranges are index ranges of the sieve's own prime list
(``digits.sieve_primes``, read in place), found by bisect, one loop each:
for p <= sqrt(n), Legendre's s_p(n) = n - (p-1) * sum of n // p^i over
every power of p up to n, which for p in (cbrt(n), sqrt(n)], where n has
three base-p digits, stops at n//p^2 by itself; a prime in
(sqrt(n), 3 sqrt(n)] gives n two digits, and s_p(n) = n//p + n%p.  Above
3 sqrt(n) each quotient a = n // p offers one candidate prime, kept when
it is prime and does not divide n.  Near sqrt(n) nearly every integer is
a candidate but only one in ln p is prime; the candidates thin out as
n/p^2 and are the sparser from about 3 sqrt(n) on.  At n = 2*10^5 the 445
quotients above sqrt(n) became 131 primes and 147 quotients, and at 10^7
3,159 became 729 and 1,051 (``BENCH_26.json``).

D is constant at odd n, by von Staudt-Clausen: 2 at n = 1, where
B_1 = -1/2, and 1 at every odd n >= 3, where B_n = 0.  number_denom returns
one of two shared products there before it reads its memo, so D's
per-index scan, its segment scan and its memo take even n >= 2 only.  At
even n the scan builds the divisors of n from ``digits.factorize`` and
keeps the primes d + 1; only even d can give an odd prime, and those are
twice the divisors of n/2.  Both closed forms ask the sieve's flag table
(``digits.prime_flags``) whether a candidate is prime, one index per
candidate, and neither asks it past about n/2: nonconstant_denom's bound
is (n+1)/2, and every even divisor d < n of n is at most n/2, so
number_denom reads flags to n/2 + 1, and the one candidate past them,
n + 1, is prime when ``factorize`` returns it as its only factor, unless
the table already reaches it.  One D term at n = 99999998 so takes about
71 MB (``BENCH_27.json``).
nonconstant_denom lists primes up to 3 sqrt(n), and factorize reads the
same list up to sqrt(n).  nonconstant_denom_all_primes and
full_denom_split_product scan every prime on purpose, with a digit sum
each: they are the independent references the fast forms are tested
against.

A whole segment lo..hi of either sequence comes from one scan with the two
loops turned inside out: primes (or divisors) outside, n inside.  DD's
scan lists where each prime's runs of n in DD(n) begin and end, and then
sweeps n upward; D's lists each n's primes.

  DD, p <= sqrt(hi):  n = k*p + d with d < p has s_p(n) = s_p(k) + d, so p
                      is in DD(n) exactly for n in
                      [kp + max(p - s_p(k), 0), kp + p - 1].  That run ends
                      each block k >= 1, so the runs of consecutive blocks
                      join, and p leaves only at kp for a block with
                      s_p(k) < p, to enter again at kp + p - s_p(k).  One
                      digit sum per prime, at its first block k = lo // p;
                      from block to block s_p(k) is carried by the step law
                      above, s_p(k+1) = s_p(k) + 1 - t(p-1).
  DD, p > sqrt(hi):   n = k*p + d has two digits, k <= sqrt(hi) < p, so p
                      is in DD(n) exactly for n in [(k+1)p - k, (k+1)p - 1];
                      for each k the primes in the matching p-interval come
                      from one slice of the flag table.
  DD, the sweep:      each run lists its prime among the entries at its
                      first n, or at lo for a run that contains lo, and
                      among the leaves one past its last n: two lists per n,
                      indexed by n - lo.  From n to n + 1 about two primes
                      enter or leave, so the sweep walks n upward, keeps
                      DD's primes in a sorted list and their product in an
                      int, takes out the leaves at n and then puts in the
                      entries, and builds a product only at an n that has
                      either.
  D:                  one row per n = lo, lo + 2, ..., hi, lo even; for
                      each d <= sqrt(hi), the even multiples n = d*j with
                      j >= d take d + 1 and j + 1 when prime.

  Q:                  Q(n) at both parities at once.  For each
                      p <= sqrt(hi + 1), the multiples k = j*p of p in
                      lo+1..hi+1 lose p^e from a running cofactor of k and
                      read s_p(k) = s_p(j), one digit sum per prime and then
                      carried from j to j + 1 by the step law.  A cofactor
                      r > 1 left over is a prime with r^2 > k, so
                      s_r(k) = k // r.  No DD value is read: the quotients
                      stay independent of the DD scans.

A segment of R indices costs about R*log(hi) + sqrt(hi) steps, plus one per
prime written for D and one per prime entering or leaving for DD, where R
per-n scans cost R*sqrt(hi).  The per-n scans stay: below about 12 indices
for DD, 32 for the quotients and 320 for D (``cli.SEGMENT_MIN_TERMS``) they
are the faster ones, and the tests hold the segment scans to their tuples
and to the per-index quotients.  D and DD scan one index alone on a memo
miss at n >= ``MISS_BLOCK_BELOW`` (4096), where a single term is the
common query and a block costs over ten times as much, and when a memo
shorter than a block could not keep n; a miss below it fills a block.

Every other scan here, per index or per segment, lists its primes in
ascending order, and so do the two full-scan references and
``digits.radical``: each of their SquarefreeProducts is built by its
constructor straight from those primes, with no sort and one product.  Two
producers carry the value instead, through the private constructor
``SquarefreeProduct._carried``: ``merge``, which appends the primes one
operand lacks to the other's and sorts, and the DD sweep, which yields its
current primes with their product.  The sweep checks each entry and leave
in place of each product: a prime that enters while in DD, or leaves while
not in it or without dividing the product, raises TheoremViolationError
naming n and p.

Both closed forms keep their values in a memo of at most ``MEMO_BOUND``
indices, oldest out first; a hit returns the stored SquarefreeProduct
before any check of n, since the memo holds only valid n.  D's memo holds
even n alone, so the same bound spans 2*MEMO_BOUND values of n.  A miss at
0 < n < ``MISS_BLOCK_BELOW`` (4096) fills the aligned block of
``MISS_BLOCK`` (64) indices that holds n, n - n % 64 up to n - n % 64 + 63
(from 1 in the first block, and D's even n alone), through the fill below,
and returns the stored value; so a caller that walks small n one index at
a time (the oracle comparisons, ``is_integral``, ``bench``'s formula side,
the T1, C2, T4 and T5 sweeps) reads segment-scanned values, at half the
cost of the per-n scans.  A lone miss there pays for its whole block: on
cleared memos DD went from 3.1 to 87 us at n = 100, 5.5 to 121 us at 1000
and 8.4 to 161 us at 4000, and D from 3.4 to 39, 4.0 to 63 and 5.6 to
92 us.  A miss from 4096 on scans n alone and stores it alone.  The
quotients share a third memo, of ints keyed by n, which only the segment
fill writes: a quotient computed for one index alone is not stored.
``fill_nonconstant_memo``,
``fill_number_memo`` and ``fill_quotient_memo`` store a segment at once
through one ``_fill``, which walks its indices with a stride (1 for DD
and Q, 2 for D, whose fill rounds lo up to even), scans only from the
first index not yet stored to the last one and makes room with one
eviction before it stores.  Each segment function yields what its memo
stores, one value per index of the stride: D's and DD's
SquarefreeProducts, built lazily one at a time as ``_fill`` stores them,
and Q's ints.  ``seq`` fills over long ranges in segments of at most half
the bound for D, DD and DB, and of 4095 values of n for a quotient's 2048
indices of one parity; ``clear_formula_caches`` empties all three memos.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import OrderedDict
from collections.abc import Callable, Iterator
from itertools import compress, islice
from math import isqrt

from .bernoulli import BernoulliCache
from .digits import (
    SquarefreeProduct,
    digit_sum,
    factorize,
    p_valuation,
    prime_flags,
    primes_up_to,
    radical,
    sieve_primes,
)
from .errors import TheoremViolationError

# The most indices each memo keeps.  Every caller reads the memos locally
# in n (DB reads DD and D at n, the C2 sweep n and n + 1, ``seq`` one
# segment of at most half the bound, or of 4095 values of n for a
# quotient), so a long range needs no more.
MEMO_BOUND = 4096
# A miss in D's or DD's memo at 0 < n < MISS_BLOCK_BELOW fills the aligned
# block of MISS_BLOCK indices that holds n from one segment scan, so a caller
# walking small n one index at a time reads segment-scanned values: D and DD
# at n = 1..300 on cleared memos took 1.5-1.6 ms one index at a time and
# take 0.8 ms in blocks (Python 3.11, 2-core Linux host).  A lone miss pays
# for its whole block; on cleared memos, DD and D went 3.1 -> 87 us and
# 3.4 -> 39 us at n = 100, 5.5 -> 121 us and 4.0 -> 63 us at 1000, and
# 8.4 -> 161 us and 5.6 -> 92 us at 4000.  From MISS_BLOCK_BELOW on a miss
# scans n alone: a DD block of 64 took 0.42 ms at 10^5 and 1.1 ms at 10^6,
# where one term at 2*10^5 takes 42 us.  A block of 32 spread the fills over
# more of the oracle workload's items than its p95 leaves out; one of 128
# doubles a lone miss's cost.
MISS_BLOCK = 64
MISS_BLOCK_BELOW = 4096

_nonconstant_memo: OrderedDict[int, SquarefreeProduct] = OrderedDict()
_number_memo: OrderedDict[int, SquarefreeProduct] = OrderedDict()
# nonconstant_quotient at odd n, full_denom_quotient at even n: the two
# domains are complementary, so one memo keyed by n holds both
_quotient_memo: OrderedDict[int, int] = OrderedDict()
# D at odd n: 1 at every n >= 3, where B_n = 0, and 2 at n = 1, where
# B_1 = -1/2; number_denom returns these two products for every odd n
_VANISHING = SquarefreeProduct(())
_HALF = SquarefreeProduct((2,))


def _check_index(n: int) -> None:
    if n < 1:
        raise ValueError(f"sequence index must be >= 1, got {n}")


def _digit_bound(n: int) -> int:
    # (n+1)/2 for odd n, (n+1)/3 for even n; flooring is safe for a prime bound
    return (n + 1) // 2 if n % 2 else (n + 1) // 3


def _nonconstant_primes(n: int) -> tuple[int, ...]:
    bound = _digit_bound(n)
    root = isqrt(n)
    # The primes up to top are tested one by one, the quotients a = n // p
    # above it.  Near sqrt(n) about one integer in ln p is prime, but nearly
    # every integer is a candidate; the candidates thin out as n/p^2, and the
    # two densities meet at p ~ sqrt(n ln p), 2.6 to 3.1 times sqrt(n) for n
    # from 10^5 to 10^7.
    top = min(bound, 3 * root)
    # The sieve's list, read in place: one loop for the primes at which n
    # has three base-p digits or more, one for those at which it has two,
    # each over the index range that bisect finds, from one iterator.
    primes = sieve_primes(top)
    end = bisect_right(primes, top)
    two = bisect_right(primes, root, 0, end)
    listed = iter(primes)
    found = []
    # p <= sqrt(n): s_p(n) = n - (p-1) * sum of n // p^i over i >= 1
    # (Legendre); above cbrt(n) the sum stops at n // p^2 by itself
    for p in islice(listed, two):
        q = total = n // p
        while q >= p:
            q //= p
            total += q
        if n - (p - 1) * total >= p:
            found.append(p)
    # p in (sqrt(n), top]: two digits, n // p and n % p
    for p in islice(listed, end - two):
        if n % p + n // p >= p:
            found.append(p)
    # Above top, n = a*p + b with a = n // p < p, so s_p(n) = a + b >= p
    # exactly when n/(a+1) < p <= (n+a)/(a+1).  That interval is shorter
    # than 1, so each a offers one candidate p = (n+a) // (a+1) =
    # 1 + (n-1) // (a+1); descending a yields them in ascending order.  They
    # pass top for a <= (n-1) // top - 1 and stay within the bound for
    # a >= (n-1) // bound, so no flag past it is read.  p*(a+1) >= n
    # always, and a prime p > root meets it with equality exactly when
    # p | n: one remainder decides p*(a+1) > n.
    flags = prime_flags(bound)
    for a in range((n - 1) // top - 1, max((n - 1) // bound, 1) - 1, -1):
        p = (n + a) // (a + 1)
        if flags[p] and n % p:
            found.append(p)
    return tuple(found)


def _number_primes(n: int) -> tuple[int, ...]:
    # even n >= 2 alone: number_denom answers every odd n itself.  Every
    # even divisor d < n is at most n/2, so the flag table to n/2 + 1
    # reaches each d + 1 but n + 1; factorize reads it too
    flags = prime_flags(n // 2 + 1)
    # d + 1 is an odd prime only for even d, and the even divisors of n are
    # twice those of n/2: start from 2 and multiply in n/2's prime powers
    divisors = [2]
    for p, e in factorize(n // 2):
        for d in divisors[:]:
            for _ in range(e):
                d *= p
                divisors.append(d)
    divisors.sort()
    found = [2]
    size = len(flags)
    # one flag per candidate inside the table; only n + 1 can lie past it
    for d in divisors:
        k = d + 1
        if flags[k] if k < size else factorize(k) == [(k, 1)]:
            found.append(k)
    return tuple(found)


def _nonconstant_segment(lo: int, hi: int) -> Iterator[SquarefreeProduct]:
    """nonconstant_denom(n) for n = lo..hi, yielded lazily from one sweep.

    Each run of n at which a prime is in DD(n) lists the prime among the
    entries at its first n, or at lo for a run that contains lo, and among
    the leaves one past its last.  From lo on, the sweep carries DD's primes
    and their product from n - 1 to n through the leaves and then the
    entries at n, and checks each against them.
    """
    root = isqrt(hi)
    size = hi - lo + 1
    # enters[i] and leaves[i]: the primes entering and leaving DD at n = lo + i
    enters: list[list[int]] = [[] for _ in range(size)]
    leaves: list[list[int]] = [[] for _ in range(size)]
    # p <= sqrt(hi): in block k = n // p, s_p(n) = s_p(k) + n - kp reaches p
    # from n = kp + max(p - s_p(k), 0) to the block's end.  Every block k >= 1
    # ends in DD, so p leaves only at a block kp with s_p(k) < p, and enters
    # again at kp + p - s_p(k).  One digit sum at the first block; then
    # s_p(k) = s_p(k - 1) + 1 - (p - 1)v_p(k), by the step law.
    for p in primes_up_to(root):
        first = max(lo // p, 1)
        s = digit_sum(p, first)
        start = first * p + max(p - s, 0)
        if start <= hi:
            enters[max(start - lo, 0)].append(p)
        for k in range(first + 1, hi // p + 1):
            s += 1
            q = k
            while q % p == 0:
                q //= p
                s -= p - 1
            if s < p:
                i = k * p - lo
                leaves[i].append(p)
                if i + p - s < size:
                    enters[i + p - s].append(p)
    # p > sqrt(hi): n = kp + d has two digits, so p is in DD(n) for the k
    # values n = (k+1)p - k .. (k+1)p - 1.  For k = 1 the p-interval ends at
    # (hi + 1) // 2, the largest prime asked.  The table reaches hi // 2 + 1,
    # one more when hi is even, so that a D term read per index at n <= hi,
    # which asks for n // 2 + 1, stays inside the table built here.
    flags = prime_flags(hi // 2 + 1)
    for k in range(1, root + 1):
        first = max(root + 1, (lo + 1 + k) // (k + 1))
        last = (hi + k) // (k + 1)
        for p in compress(range(first, last + 1), flags[first : last + 1]):
            stop = (k + 1) * p - lo
            enters[max(stop - k, 0)].append(p)
            if stop < size:
                leaves[stop].append(p)
    carried = SquarefreeProduct._carried
    current: list[int] = []
    value = 1
    # DD(lo) may be 1, with no prime entering at lo
    product = carried((), 1)
    for n, left, entered in zip(range(lo, hi + 1), leaves, enters):
        if left or entered:
            for p in left:
                # current[j - 1] is p exactly when p is in
                j = bisect_right(current, p)
                if not (j and current[j - 1] == p):
                    raise TheoremViolationError(
                        f"DD sweep: {p} leaves DD({n}) but is not in DD({n - 1})"
                    )
                value, rest = divmod(value, p)
                if rest:
                    raise TheoremViolationError(
                        f"DD sweep: {p} leaves DD({n}) but does not divide the "
                        f"carried value of DD({n - 1})"
                    )
                del current[j - 1]
            for p in entered:
                j = bisect_right(current, p)
                if j and current[j - 1] == p:
                    raise TheoremViolationError(f"DD sweep: {p} enters DD({n}) twice")
                current.insert(j, p)
                value *= p
            product = carried(tuple(current), value)
        yield product


def _cofactors(d: int, lo: int, hi: int) -> range:
    """The j >= d with d*j even and lo <= d*j <= hi."""
    j = max(d, -(-lo // d))
    if d % 2:
        return range(j + j % 2, hi // d + 1, 2)
    return range(j, hi // d + 1)


def _number_segment(lo: int, hi: int) -> Iterator[SquarefreeProduct]:
    """number_denom(n) for n = lo, lo + 2, ..., hi, lo even, from one scan,
    each built lazily."""
    # found[i] lists the primes of n = lo + 2i; d*j is even, and so is d times
    # the step of its cofactors, so row indices halve exactly
    found: list[list[int]] = [[] for _ in range(lo, hi + 1, 2)]
    root = isqrt(hi)
    flags = prime_flags(hi + 1)
    # d ascending gives each n its primes d + 1 <= sqrt(n) + 1 in ascending
    # order; then d descending gives the cofactor primes j + 1, ascending too
    for d in range(1, root + 1):
        if flags[d + 1]:
            js = _cofactors(d, lo, hi)
            for row in found[(d * js.start - lo) // 2 :: d * js.step // 2]:
                row.append(d + 1)
    for d in range(root, 0, -1):
        js = _cofactors(d, lo, hi)
        for j in compress(js, flags[js.start + 1 : js.stop + 1 : js.step]):
            if j != d:
                found[(d * j - lo) // 2].append(j + 1)
    return map(SquarefreeProduct, map(tuple, found))


def _quotient_segment(lo: int, hi: int) -> list[int]:
    """Q(n) for n = lo..hi from one scan of k = n + 1: nonconstant_quotient(n)
    at odd n and full_denom_quotient(n) at even n."""
    size = hi - lo + 1
    rest = list(range(lo + 1, hi + 2))  # k with its primes <= sqrt(hi + 1) divided out
    found = [1] * size
    # p <= sqrt(hi + 1): walk the multiples k = j*p, where s_p(k) = s_p(j).
    # One digit sum at the first multiple; then s_p(j + 1) = s_p(j) + 1 -
    # (p - 1)v_p(j + 1), and e = v_p(k) = 1 + v_p(j) comes from the same loop.
    for p in primes_up_to(isqrt(hi + 1)):
        j = -(-(lo + 1) // p)
        s = digit_sum(p, j)
        e = p_valuation(p, j * p)
        for i in range(j * p - lo - 1, size, p):
            rest[i] //= p**e
            # even n: s_p(k) < p; odd n: also p <= s_p(k) - 1 + e(p - 1) = s_p(n)
            if s < p and ((lo + i) % 2 == 0 or p <= s - 1 + e * (p - 1)):
                found[i] *= p
            j += 1
            s += 1
            e = 1
            t = j
            while t % p == 0:
                t //= p
                s -= p - 1
                e += 1
    # a cofactor r > 1 left is a prime with r^2 > k, so s_r(k) = k // r < r:
    # r joins at even n, and at odd n when k // r >= 2, that is r < k
    for i, r in enumerate(rest):
        if r > 1 and ((lo + i) % 2 == 0 or r < lo + i + 1):
            found[i] *= r
    return found


def _remember(memo: OrderedDict, n: int, scan: Callable) -> SquarefreeProduct:
    # a miss: the memo holds only valid n, so a hit needs no index check;
    # every scan lists its primes in ascending order: no sort
    _check_index(n)
    value = memo[n] = SquarefreeProduct(scan(n))
    if len(memo) > MEMO_BOUND:
        memo.popitem(last=False)
    return value


def _remember_block(
    memo: OrderedDict, n: int, fill: Callable, scan: Callable
) -> SquarefreeProduct:
    # a miss below MISS_BLOCK_BELOW fills the aligned block that holds n; n
    # can still be missing after it when the memo holds fewer indices than
    # a block, and then n is scanned alone, as it is from MISS_BLOCK_BELOW on
    if 0 < n < MISS_BLOCK_BELOW:
        start = n - n % MISS_BLOCK
        fill(max(start, 1), start + MISS_BLOCK - 1)
        value = memo.get(n)
        if value is not None:
            return value
    return _remember(memo, n, scan)


def _fill(memo: OrderedDict, segment: Callable, lo: int, hi: int, step: int) -> None:
    _check_index(lo)
    # the indices lo, lo + step, ... up to hi; of more than the memo holds
    # only the last MEMO_BOUND would stay
    ns = range(lo, hi + 1, step)[-MEMO_BOUND:]
    new = [n not in memo for n in ns]
    if True not in new:
        return
    # only the span from the first missing index to the last one is scanned
    first = new.index(True)
    ns = ns[first : len(new) - new[::-1].index(True)]
    # each segment yields what the memo stores, one value per index of ns;
    # D's and DD's products are built lazily, so none is built before the
    # eviction below
    values = segment(ns[0], ns[-1])
    # room is made once, oldest out first, before anything is stored, so
    # the memo never holds more than MEMO_BOUND indices
    for _ in range(len(memo) + new.count(True) - MEMO_BOUND):
        memo.popitem(last=False)
    memo.update(compress(zip(ns, values), new[first:]))


def fill_nonconstant_memo(lo: int, hi: int) -> None:
    """Store nonconstant_denom(n) for n = lo..hi from one segment scan.

    Indices already stored keep their values; only the span from the first
    index not stored to the last one is scanned.  At most MEMO_BOUND
    indices stay, oldest out first.
    """
    _fill(_nonconstant_memo, _nonconstant_segment, lo, hi, 1)


def fill_number_memo(lo: int, hi: int) -> None:
    """Store number_denom(n) for the even n in lo..hi, as fill_nonconstant_memo
    does for every n.

    lo is rounded up to even; the memo's MEMO_BOUND indices span
    2*MEMO_BOUND values of n.
    """
    _fill(_number_memo, _number_segment, lo + lo % 2, hi, 2)


def fill_quotient_memo(lo: int, hi: int) -> None:
    """Store the quotient at each n = lo..hi, as fill_nonconstant_memo does.

    That is nonconstant_quotient(n) at odd n and full_denom_quotient(n) at
    even n, both parities from one scan of n + 1 (``_quotient_segment``).
    """
    _fill(_quotient_memo, _quotient_segment, lo, hi, 1)


def clear_formula_caches() -> None:
    """Drop memoized formula scans (used by benchmarks for honest timings)."""
    _nonconstant_memo.clear()
    _number_memo.clear()
    _quotient_memo.clear()


def number_denom(n: int) -> SquarefreeProduct:
    """Denominator of the nth Bernoulli number, by von Staudt-Clausen.

    For even n this is the product of all primes p with p-1 dividing n:
    2, and each prime d + 1 for the even divisors d of n, built from the
    factorization of n/2.  The flag table is read to n/2 + 1; the one
    candidate past it, n + 1, goes to ``factorize`` when the table stops
    short.  At odd n >= 1 it is one of two shared products, 2 at n = 1 and
    1 at n >= 3, returned before the memo is read.  A memo miss below
    MISS_BLOCK_BELOW fills the even n of its aligned block of MISS_BLOCK
    indices by the segment scan instead.
    """
    if n % 2 and n > 0:
        return _VANISHING if n > 1 else _HALF
    memo = _number_memo
    return memo.get(n) or _remember_block(memo, n, fill_number_memo, _number_primes)


def number_denom_direct(cache: BernoulliCache, n: int) -> int:
    _check_index(n)
    return cache.row(n, 0)[1][n]


def nonconstant_denom(n: int) -> SquarefreeProduct:
    """Denominator of B_n(x) - B_n: primes p <= (n+1)/2 (odd n) resp.
    (n+1)/3 (even n) whose base-p digit sum of n reaches p.

    No digit sum is taken: Legendre's formula gives s_p(n) from the
    quotients n//p^i, every power of p up to n, for p <= sqrt(n).  Above
    sqrt(n), n = a*p + b has two base-p digits, s_p(n) = a + b.  Up
    to 3 sqrt(n) each prime is tested so; above it, for each a at most one
    prime, (n+a) // (a+1), can satisfy a + b >= p (Kellner 2017), and it
    does exactly when it does not divide n.  The cost is O(sqrt(n)) steps
    after the sieve.  That scan serves a memo miss from MISS_BLOCK_BELOW
    on; below it a miss fills its aligned block of MISS_BLOCK indices by
    the segment scan.
    """
    memo = _nonconstant_memo
    return memo.get(n) or _remember_block(memo, n, fill_nonconstant_memo, _nonconstant_primes)


def nonconstant_denom_all_primes(n: int) -> SquarefreeProduct:
    """Same product without the size bound, scanning every prime p <= n.

    The digit-sum condition s_p(n) >= p already forces p <= n, so this must
    agree with nonconstant_denom exactly; keeping both lets the equality be
    asserted as a fact instead of silently relied on.  The full scan is
    deliberate: it takes a digit sum for every prime, so it shares neither
    the sqrt(n) split nor the size bound with nonconstant_denom and serves
    as its independent reference.
    """
    _check_index(n)
    return SquarefreeProduct(tuple(p for p in primes_up_to(n) if digit_sum(p, n) >= p))


def nonconstant_denom_direct(cache: BernoulliCache, n: int) -> int:
    _check_index(n)
    return cache.polynomial_denominators(n)[0]


def full_denom(n: int) -> SquarefreeProduct:
    """Denominator of the full polynomial B_n(x); always even and squarefree."""
    # both callees check n on a miss.  D is asked first: at even n its flag
    # table, to n/2 + 1, holds DD's, to (n+1)/3, so one table is built
    number = number_denom(n)
    return nonconstant_denom(n).merge(number)


def full_denom_via_successor(n: int) -> SquarefreeProduct:
    """The same value written through index n+1: lcm with rad(n+1)."""
    _check_index(n)
    return nonconstant_denom(n + 1).merge(radical(n + 1))


def full_denom_split_product(n: int) -> SquarefreeProduct:
    """Two-factor form: rad(n+1) times the digit-sum primes avoiding n+1.

    Deliberately a full scan, taking a digit sum for every prime up to the
    bound, so it stays an independent reference for the sqrt(n) split that
    full_denom relies on through nonconstant_denom.
    """
    _check_index(n)
    k = n + 1
    extra = tuple(
        p
        for p in primes_up_to(_digit_bound(k))
        if k % p != 0 and digit_sum(p, k) >= p
    )
    return radical(k).merge(SquarefreeProduct(extra))


def full_denom_direct(cache: BernoulliCache, n: int) -> int:
    _check_index(n)
    return cache.polynomial_denominators(n)[1]


# The parity of the n at which each quotient is defined: its divisibility
# law holds there, and nothing guarantees an integer at the other parity.
NONCONSTANT_QUOTIENT_PARITY = 1
FULL_QUOTIENT_PARITY = 0


def parity_indices(parity: int | None, lo: int, hi: int) -> range:
    """The n in lo..hi (lo >= 1) with n % 2 == parity; every n for None."""
    if parity is None:
        return range(lo, hi + 1)
    return range(lo + (lo - parity) % 2, hi + 1, 2)


def _check_quotient_index(n: int, parity: int) -> None:
    # an even n >= 1 is n >= 2
    if n < 1 or n % 2 != parity:
        domain = "odd n >= 1" if parity else "even n >= 2"
        raise ValueError(f"quotient defined for {domain}, got {n}")


def _quotient(n: int) -> int:
    # Q(n), as the module docstring states it, from one factorization of n + 1
    k = n + 1
    q = 1
    for p, e in factorize(k):
        s = digit_sum(p, k)
        if s < p and (n % 2 == 0 or p <= s - 1 + e * (p - 1)):
            q *= p
    return q


def nonconstant_quotient(n: int) -> int:
    """nonconstant_denom(n) / nonconstant_denom(n+1) for odd n, as a prime set.

    The product of the p^e || n+1 with s_p(n+1) < p <= s_p(n+1) - 1 + e(p-1):
    the primes with s_p(n) >= p > s_p(n+1), since n ends in e base-p digits
    p-1.  No other prime can leave the digit-sum set between n and n+1.
    Read from the quotient memo when ``fill_quotient_memo`` stored n;
    otherwise one ``factorize(n + 1)`` and one digit sum per prime
    factor, and nothing is stored.  Even input is rejected: DD(n+1) need
    not divide DD(n) there.  The division it replaces, with its
    divisibility check, is nonconstant_quotient_by_division; the T4 sweep
    compares the two at every odd n it covers.
    """
    _check_quotient_index(n, NONCONSTANT_QUOTIENT_PARITY)
    # a stored quotient is at least 1, so a hit is never falsy
    return _quotient_memo.get(n) or _quotient(n)


def full_denom_quotient(n: int) -> int:
    """full_denom(n) / full_denom(n+1) for even n, as a prime set.

    The product of the primes p | n+1 with s_p(n+1) < p: DB(n) is
    lcm(DD(n+1), rad(n+1)) and DB(n+1) = DD(n+1) at odd n+1 >= 3, so DB(n)
    gains exactly the primes of n+1 missing from DD(n+1).  Read from the
    quotient memo, or computed as nonconstant_quotient is.  The division it
    replaces, with its divisibility check, is full_denom_quotient_by_division;
    the T5 sweep compares the two at every even n it covers.
    """
    _check_quotient_index(n, FULL_QUOTIENT_PARITY)
    return _quotient_memo.get(n) or _quotient(n)


def nonconstant_quotient_by_division(n: int) -> int:
    """nonconstant_denom(n) / nonconstant_denom(n+1) for odd n, by division.

    The reference for nonconstant_quotient: two closed forms and a sieve to
    about n/2.  Raises TheoremViolationError if the value at n+1 does not
    divide the one at n, which the divisibility law for odd n forbids.
    """
    _check_quotient_index(n, NONCONSTANT_QUOTIENT_PARITY)
    return _exact_quotient(nonconstant_denom, "nonconstant", n)


def full_denom_quotient_by_division(n: int) -> int:
    """full_denom(n) / full_denom(n+1) for even n, by division.

    The reference for full_denom_quotient, checked for divisibility the same
    way as nonconstant_quotient_by_division.
    """
    _check_quotient_index(n, FULL_QUOTIENT_PARITY)
    return _exact_quotient(full_denom, "full", n)


def _exact_quotient(denom: Callable[[int], SquarefreeProduct], name: str, n: int) -> int:
    a = denom(n).value
    b = denom(n + 1).value
    q, rem = divmod(a, b)
    if rem:
        raise TheoremViolationError(
            f"{name} denominator at n+1 must divide value at n: n={n}, {a}/{b}"
        )
    return q
