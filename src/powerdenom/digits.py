"""Base-p digit arithmetic, p-adic valuations, factorization and prime enumeration.

Everything here is exact integer arithmetic on Python's native bigints.
A squarefree product (``SquarefreeProduct``) is a ``Value`` holding its
ascending primes and their product: computed once by the pass that checks
the order, or carried in by a producer that keeps the two in step itself.

All functions are pure apart from the prime sieve, a module-level cache that
only ever grows.  Its state is a flag table, one byte per integer up to
``_sieve_limit``, set exactly at the primes: ``prime_flags`` hands it out
read-only, so "is k prime?" costs one index.  ``sieve_primes`` lists primes
from the flags lazily, only as far as the largest bound asked so far, and
extends that list in place; ``factorize`` and the per-index scans in
``denom`` read it in place, and ``primes_up_to`` hands out a copy.  A table
once handed out is never written again.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import compress
from math import isqrt

from .value import Value


class SquarefreeProduct(Value, key=("primes",)):
    """A squarefree positive integer, built from its prime divisors ascending.

    The constructor takes the primes alone; ``value``, their product, is
    computed once by the same pass that checks that they strictly increase.
    The empty product is 1.  A ``Value`` keyed by its primes alone, so
    equality says nothing about ``value``.  Producers that list their primes
    in ascending order call the constructor; :meth:`of` sorts first, for
    unordered input.  Two producers already hold the product and pass it
    with the primes to the private ``_carried``, which checks neither:
    :meth:`merge`, and the DD segment sweep in ``denom``, which checks each
    prime entering or leaving its set instead.  Full primality of every
    member is the producers' responsibility; the test suite re-verifies it
    by trial division.
    """

    __slots__ = ("primes", "value")

    primes: tuple[int, ...]
    value: int

    def __init__(self, primes: tuple[int, ...]) -> None:
        prod = 1
        prev = 1
        for p in primes:
            if p <= prev:
                raise ValueError("primes must be strictly increasing and >= 2")
            prev = p
            prod *= p
        self.primes = primes
        self.value = prod

    @classmethod
    def _carried(cls, primes: tuple[int, ...], value: int) -> "SquarefreeProduct":
        # for producers that keep value == prod(primes), ascending, themselves
        self = object.__new__(cls)
        self.primes = primes
        self.value = value
        return self

    @classmethod
    def of(cls, primes) -> "SquarefreeProduct":
        """The product of ``primes``, given in any order."""
        return cls(tuple(sorted(primes)))

    def merge(self, other: "SquarefreeProduct") -> "SquarefreeProduct":
        """lcm of two squarefree products: the union of their prime sets.

        Both are squarefree, so one value divides the other exactly when
        its primes are a subset of the other's; then that operand is the
        union and comes back unchanged.  Otherwise the union is ``self``'s
        primes and those of ``other`` that do not divide ``self.value``,
        one remainder each, put in order by one sort; its value is
        ``self.value`` times the primes added, and no pass checks the order
        again.
        """
        if other.value % self.value == 0:
            return other
        value = self.value
        if value % other.value == 0:
            return self
        primes = [*self.primes]
        # a prime multiplied in changes no other prime's remainder to or
        # from zero
        for p in other.primes:
            if value % p:
                primes.append(p)
                value *= p
        primes.sort()
        return SquarefreeProduct._carried(tuple(primes), value)

    def divides(self, n: int) -> bool:
        return n % self.value == 0


def digit_sum(base: int, n: int) -> int:
    """Sum of the base-``base`` digits of ``n`` (s_p(n) for a prime base).

    Computed by repeated division without materializing the expansion, one
    remainder and one quotient per digit; base 2 counts the one bits.  The
    closed forms take it only where no shortcut applies: for a quotient the
    prime factors of n + 1, and once per prime in a segment scan; one DD
    term takes none.  The all-primes references take it for every prime.
    Satisfies s_b(n) == n (mod b-1).
    """
    if base < 2:
        raise ValueError(f"base must be >= 2, got {base}")
    if n < 0:
        raise ValueError(f"cannot expand negative value {n}")
    if base == 2:
        return n.bit_count()
    total = 0
    while n:
        total += n % base
        n //= base
    return total


def p_valuation(p: int, n: int) -> int:
    """Largest e such that p^e divides n, for n != 0 and p >= 2."""
    if p < 2:
        raise ValueError(f"base must be >= 2, got {p}")
    if n == 0:
        raise ValueError("valuation of 0 is infinite")
    n = abs(n)
    e = 0
    while n % p == 0:
        n //= p
        e += 1
    return e


def is_prime(n: int) -> bool:
    """Trial-division primality test (the oracle the sieve is checked against)."""
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def factorize(k: int) -> list[tuple[int, int]]:
    """Ascending (prime, exponent) pairs of ``k >= 1``, by trial division.

    The trial divisors are the sieve's primes, and the trials stop once p^2
    passes the cofactor left, which is then 1 or a prime, or once the flag
    table, as far as it already reaches, flags the cofactor prime.  The
    prime list is extended to sqrt(k) first if it stops short, so the flag
    table behind it reaches max(sqrt(k), 256): at most 10**4 bytes for
    k <= 10**8 + 1.
    """
    if k < 1:
        raise ValueError(f"factorize requires k >= 1, got {k}")
    primes = sieve_primes(isqrt(k))
    flags = _sieve_flags
    pairs = []
    if k >= len(flags) or not flags[k]:
        for p in primes:
            if p * p > k:
                break
            if k % p == 0:
                k //= p
                e = 1
                while k % p == 0:
                    k //= p
                    e += 1
                pairs.append((p, e))
                if k < len(flags) and flags[k]:
                    break
    if k > 1:
        pairs.append((k, 1))
    return pairs


def radical(k: int) -> SquarefreeProduct:
    """rad(k): the product of the distinct prime divisors of k >= 1."""
    return SquarefreeProduct(tuple(p for p, _ in factorize(k)))


# Growable sieve cache.  The flag table is only replaced by a strictly larger
# one; _sieve_primes lists the primes up to the largest bound asked so far and
# stays valid when the table grows.  Setting _sieve_limit = 0 and
# _sieve_primes = [] gives the state of a fresh interpreter.
_sieve_limit = 0
_sieve_flags = memoryview(b"")
_sieve_primes: list[int] = []


def prime_flags(bound: int) -> memoryview:
    """Read-only table with ``flags[k] == 1`` exactly when k is prime, k <= bound.

    The table may reach past ``bound``; every index up to its length is exact.
    Writing to it raises TypeError.
    """
    global _sieve_limit, _sieve_flags
    if bound > _sieve_limit:
        limit = max(bound, 2 * _sieve_limit, 256)
        # let go of the old table before the new one is allocated, so the
        # two are not held at once; a view handed out earlier keeps its own
        # table alive and readable.  A build that fails leaves the state of
        # a fresh interpreter.
        _sieve_flags, _sieve_limit = memoryview(b""), 0
        # odd k flagged from the start, so only odd multiples of odd primes
        # are crossed out and no zero run is longer than limit/6 bytes
        sieve = bytearray(b"\x00\x01") * (limit // 2 + 1)
        del sieve[limit + 1 :]
        sieve[1] = 0
        sieve[2] = 1
        for p in range(3, isqrt(limit) + 1, 2):
            if sieve[p]:
                start = p * p
                sieve[start :: 2 * p] = bytes(len(range(start, limit + 1, 2 * p)))
        _sieve_flags = memoryview(sieve).toreadonly()
        _sieve_limit = limit
    return _sieve_flags


def sieve_primes(bound: int) -> list[int]:
    """The sieve's own ascending prime list, listing every prime <= bound.

    It may reach past ``bound``.  Callers read it in place, and never write
    it: it is the list that later calls extend.
    """
    primes = _sieve_primes
    if primes and primes[-1] >= bound:
        return primes
    flags = prime_flags(bound)
    # resume after the last listed prime: the gap up to the old bound holds
    # no prime, so rescanning it costs little and needs no second bound
    start = primes[-1] + 1 if primes else 0
    if bound >= start:
        primes.extend(compress(range(start, bound + 1), flags[start : bound + 1]))
    return primes


def primes_up_to(bound: int) -> list[int]:
    """All primes <= bound, ascending, as a fresh list (Eratosthenes sieve)."""
    if bound < 2:
        return []
    primes = sieve_primes(bound)
    return primes[: bisect_right(primes, bound)]
