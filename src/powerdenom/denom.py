"""Denominator sequences of Bernoulli numbers and polynomials.

Three squarefree sequences, each computed two independent ways (a closed-form
digit-sum or prime product, and a direct rational oracle):

  number_denom(n)       denominator of the nth Bernoulli number      (A027642)
  nonconstant_denom(n)  denominator of B_n(x) with constant dropped  (A195441)
  full_denom(n)         denominator of the full polynomial B_n(x)    (A144845)

The full denominator comes in three equivalent closed forms (lcm of the other
two sequences, a successor relation through the radical, and a two-factor
prime product); all are exposed so their agreement can be asserted rather
than assumed.  The quotient sequences nonconstant_quotient (A286516) and
full_denom_quotient (A286517) are exact by the divisibility laws for the
stated parities and reject the other parity.  The command line ids of the
five sequences (D, DD, DB and the two quotients), each with its closed form,
oracle and domain, are set in one table: ``cli.SEQUENCES``.

Formula paths depend only on digit sums and sieves; the ``*_direct`` oracles
take a BernoulliCache and do the rational arithmetic for real.

The two memoized closed forms cost O(sqrt(n)) checks once the sieve is
built.  nonconstant_denom splits its primes at sqrt(n), as Kellner does in
"On a product of certain primes" (J. Number Theory, 2017): digit sums only
for p <= sqrt(n), and above that one candidate prime per quotient
a = n // p.  number_denom enumerates the divisors d of n and keeps the
primes d + 1.  Membership in the sieve is decided by bisection.
nonconstant_denom_all_primes and full_denom_split_product scan every prime
on purpose: they are the independent references the fast forms are tested
against.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import lru_cache
from math import isqrt, lcm
from typing import Callable

from .bernoulli import BernoulliCache
from .digits import SquarefreeProduct, digit_sum, is_prime, primes_up_to, radical
from .errors import SearchCapExceeded, TheoremViolationError


def _check_index(n: int) -> None:
    if n < 1:
        raise ValueError(f"sequence index must be >= 1, got {n}")


def _digit_bound(n: int) -> int:
    # (n+1)/2 for odd n, (n+1)/3 for even n; flooring is safe for a prime bound
    return (n + 1) // 2 if n % 2 else (n + 1) // 3


def _sieved(primes: list[int], k: int) -> int | None:
    """The sieve's own int equal to k, or None when k is not listed.

    Returning the listed object, not k, lets the memoized tuples share the
    sieve's ints instead of each holding fresh copies.
    """
    i = bisect_left(primes, k)
    return primes[i] if i < len(primes) and primes[i] == k else None


@lru_cache(maxsize=None)
def _nonconstant_primes(n: int) -> tuple[int, ...]:
    primes = primes_up_to(_digit_bound(n))
    root = isqrt(n)
    found = [p for p in primes[: bisect_right(primes, root)] if digit_sum(p, n) >= p]
    # A prime p > sqrt(n) has two digits: n = a*p + b with a = n // p <= root,
    # so s_p(n) = a + b >= p exactly when n/(a+1) < p <= (n+a)/(a+1).  That
    # interval is shorter than 1, so each a offers one candidate; descending a
    # yields them in ascending order.
    for a in range(root, 0, -1):
        p = (n + a) // (a + 1)
        if p > root and p * (a + 1) > n and (p := _sieved(primes, p)):
            found.append(p)
    return tuple(found)


@lru_cache(maxsize=None)
def _number_primes(n: int) -> tuple[int, ...]:
    if n == 1:
        return (2,)
    if n % 2:
        return ()
    low = [d for d in range(1, isqrt(n) + 1) if n % d == 0]
    high = [n // d for d in reversed(low) if d * d != n]
    primes = primes_up_to(n + 1)
    return tuple(p for d in low + high if (p := _sieved(primes, d + 1)))


def clear_formula_caches() -> None:
    """Drop memoized formula scans (used by benchmarks for honest timings)."""
    _nonconstant_primes.cache_clear()
    _number_primes.cache_clear()


def number_denom(n: int) -> SquarefreeProduct:
    """Denominator of the nth Bernoulli number, by von Staudt-Clausen.

    For even n this is the product of all primes p with p-1 dividing n,
    found by enumerating the divisors d <= sqrt(n) of n with their cofactors
    and keeping each prime d + 1; the odd cases are 2 at n = 1 and 1 for
    n >= 3 (the numbers vanish there).
    """
    _check_index(n)
    return SquarefreeProduct.of(_number_primes(n))


def number_denom_direct(cache: BernoulliCache, n: int) -> int:
    _check_index(n)
    return cache.number(n).denominator


def nonconstant_denom(n: int) -> SquarefreeProduct:
    """Denominator of B_n(x) - B_n: primes p <= (n+1)/2 (odd n) resp.
    (n+1)/3 (even n) whose base-p digit sum of n reaches p.

    Digit sums are taken only for p <= sqrt(n).  Above sqrt(n), n = a*p + b
    has two base-p digits, and for each a <= sqrt(n) at most one prime,
    (n+a) // (a+1), can satisfy a + b >= p (Kellner 2017).  The cost is
    O(sqrt(n)) checks after the sieve.
    """
    _check_index(n)
    return SquarefreeProduct.of(_nonconstant_primes(n))


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
    return SquarefreeProduct.of(
        p for p in primes_up_to(n) if digit_sum(p, n) >= p
    )


def nonconstant_denom_direct(cache: BernoulliCache, n: int) -> int:
    _check_index(n)
    f = cache.polynomial(n)
    return lcm(*(c.denominator for c in f.coeffs[1:]))


def full_denom(n: int) -> SquarefreeProduct:
    """Denominator of the full polynomial B_n(x); always even and squarefree."""
    _check_index(n)
    return nonconstant_denom(n).merge(number_denom(n))


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
    extra = (
        p
        for p in primes_up_to(_digit_bound(k))
        if k % p != 0 and digit_sum(p, k) >= p
    )
    return radical(k).merge(SquarefreeProduct.of(extra))


def full_denom_direct(cache: BernoulliCache, n: int) -> int:
    _check_index(n)
    return cache.polynomial(n).denominator


def nonconstant_quotient(n: int) -> int:
    """nonconstant_denom(n) / nonconstant_denom(n+1) for odd n.

    Integral by the divisibility law for odd n; even input is rejected since
    nothing guarantees an integer there.
    """
    if n < 1 or n % 2 == 0:
        raise ValueError(f"quotient defined for odd n >= 1, got {n}")
    return _exact_quotient(nonconstant_denom, "nonconstant", n)


def full_denom_quotient(n: int) -> int:
    """full_denom(n) / full_denom(n+1) for even n; integral by the same law."""
    if n < 2 or n % 2:
        raise ValueError(f"quotient defined for even n >= 2, got {n}")
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


@dataclass(frozen=True, slots=True)
class DenomTriple:
    """All three denominators at one index, formula path only.

    Construction re-checks the lcm law tying the three together and the
    evenness of the full denominator; both are theorems, so a failure here
    is an implementation bug, not bad input.
    """

    n: int
    number: SquarefreeProduct
    nonconstant: SquarefreeProduct
    full: SquarefreeProduct

    def __post_init__(self) -> None:
        if self.full.value != lcm(self.nonconstant.value, self.number.value):
            raise TheoremViolationError(
                f"full denominator at n={self.n} is not the lcm of its parts"
            )
        if 2 not in self.full.primes:
            raise TheoremViolationError(
                f"full denominator at n={self.n} must be even"
            )


def denominator_triple(n: int) -> DenomTriple:
    _check_index(n)
    return DenomTriple(n, number_denom(n), nonconstant_denom(n), full_denom(n))


def first_index_digit_sum_reaches(p: int, q: int, cap: int = 10_000) -> int:
    """Smallest k >= 1 with digit_sum(p, q^k) >= p, by linear scan.

    Existence is guaranteed for any two distinct primes, but the guarantee is
    not effective: no bound on k comes with it.  The scan therefore stops at
    ``cap`` and reports exhaustion distinctly from bad input.  The first index
    says nothing about larger k; the digit sum can dip below p again.
    """
    if not is_prime(p) or not is_prime(q):
        raise ValueError(f"both arguments must be prime, got ({p}, {q})")
    if p == q:
        raise ValueError("primes must be distinct")
    power = 1
    for k in range(1, cap + 1):
        power *= q
        if digit_sum(p, power) >= p:
            return k
    raise SearchCapExceeded(
        f"digit_sum({p}, {q}^k) stayed below {p} for all k <= {cap}"
    )
