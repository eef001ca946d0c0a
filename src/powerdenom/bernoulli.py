"""Exact Bernoulli numbers and polynomials in integer arithmetic.

The sign convention is B_1 = -1/2, so the defining recurrence reads

    sum_{k=0}^{n-1} C(n, k) B_k = 0   for n >= 2, with B_0 = 1.

The numbers are not filled from that recurrence.  Even-index numbers come
from the tangent numbers T_k (1, 2, 16, 272, ...) as

    B_2k = (-1)^(k-1) * 2k * T_k / (4^k (4^k - 1)),

after Brent and Harvey, "Fast computation of Bernoulli, Tangent and Secant
numbers" (2011).  T_k is the zigzag number A_(2k-1), the last entry of row
2k-1 of the Seidel-Entringer-Arnold (boustrophedon) triangle.  Row 0 is
[1], and row r is 0 followed by the prefix sums of row r-1 read backward,
so the last entry of row r is the sum of row r-1.  Each B_2k is reduced by
one gcd, so its denominator comes from that gcd and never from von
Staudt-Clausen.

Integers are the only internal form of a rational here.  A ``Fraction`` is
built only where a method returns one: ``number``, ``value_at``, and
``RationalPoly.coeffs`` and ``__call__``, which alone import ``fractions``,
so importing this module does not load it.  Polynomials (``RationalPoly``)
are integer numerators over one common denominator in canonical form,
built and evaluated; nothing else.  The constructor makes the form
canonical by a content gcd; ``powersum.power_sum_poly`` builds it canonical
already, over the lcm of its reduced coefficient denominators, and hands
it to the private ``RationalPoly._canonical``, which checks nothing.  A
rational point is two ints: ``row(n, p, q)`` takes y = p/q in lowest
terms, q >= 1, and only ``value_at`` and a polynomial's ``__call__`` take
y as an int or a ``Fraction``, read through ``y.numerator`` and
``y.denominator``.  Values at a rational point share one row format: per
distinct y = p/q in lowest terms, the reduced numerators and reduced
denominators of

    A_k = q^k B_k(p/q) = sum_i C(k, i) B_i p^(k-i) q^i,   k = 0, 1, ...,

as int lists.  Each A_k is an integer combination of B_0..B_k, so its
denominator divides lcm(den B_0, ..., den B_k) and holds no power of q.
The table of Bernoulli numbers is the row of 0 (q = 1), and every read of
it, the table's own fill included, goes through ``row(n, 0)``.  The
table's running lcm L_k = lcm(den B_0..B_k) is one list on the cache,
filled with the table; no other row keeps one.  Read over one
denominator, ``scaled_numbers(n)`` gives L_n and L_n*B_0..L_n*B_n; it is
built on each call and not remembered, and only ``polynomial`` sums it
with binomials.  Every other row is filled upward by one route: a request
for index n that finds entries missing makes all of them, and no entry
past n, from one Taylor shift of q^n B_n(u/q) by p.  The shift's
coefficients are index n's terms C(n, i) L_n B_i at even i and the term of
B_1, and its u^j coefficient is C(n, j) A_(n-j) (the Appell identity
B_n(x + y) = sum_j C(n, j) B_(n-j)(y) x^j).  An index's terms are the same
integers at every point: built once per index and shared by every row, for
indices up to ``_TERMS_MAX``.  The shift costs one prefix-sum pass over
n + 1 coefficients per missing entry, so a row asked for one more entry at
a time pays a whole shift each time; a caller that walks n upward at one
point should first ask for the row at its top index, as the AM and L1
sweeps do.  ``polynomial_denominators`` gives the denominators of
B_n(x) - B_n and of B_n(x) without building the polynomial, and fills them
as the table is filled: a request for n makes the pair of every index up
to n that is missing, and a filled index is one list read.  The cache
carries the half Pascal row C(k, j), j <= k/2, of the last index filled;
each new index steps it by one pass of additions and reads both ends of
its coefficients C(k, j) B_(k-j) from it.  The reduced denominators of the
nonconstant ones go into one set of distinct values; its lcm is the first
denominator, and the constant term B_k adds its own for the second.

This module is the certain oracle: exact integers throughout, no
approximations anywhere.  The closed-form denominator products elsewhere
never touch it; they are tested against it.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from itertools import accumulate, repeat
from operator import add, floordiv, mul

from .value import Value

# q^k B_k(p/q) for k = 0, 1, ... at y = p/q in lowest terms: reduced
# numerators and reduced denominators
Row = tuple[list[int], list[int]]

# The terms C(k, i) L B_i of index k (``BernoulliCache._terms``) are kept for
# k <= this and built on each use past it, since kept for every k <= K they
# grow roughly as K^3 log K: 0.05 MiB at K = 60, 0.28 at 128, 1.81 at 256,
# 2.84 at 300 and 12.6 at 500 (tracemalloc), then about 103 MiB at 1000 and
# 358 MiB at 1500 (getsizeof of the lists and their ints), where sweeps
# reach n = 1500.
_TERMS_MAX = 256


def _append(row: Row, num: int, den: int) -> None:
    """Append num/den to a row in lowest terms."""
    nums, dens = row
    g = math.gcd(num, den)
    nums.append(num // g)
    dens.append(den // g)


class RationalPoly(Value):
    """Dense univariate polynomial with rational coefficients.

    ``RationalPoly(nums, den)`` is sum(nums[i] x^i) / den for integer
    numerators ``nums`` (ascending: index i belongs to x^i) and a nonzero
    integer ``den``, stored in canonical form: den > 0,
    gcd(den, *nums) == 1 and no trailing zero numerators.  The zero
    polynomial has ``nums == ()`` and ``den == 1``.  A ``Value``, so equal
    polynomials have equal fields.  A polynomial is only built and
    evaluated; it has no ring arithmetic.
    """

    __slots__ = ("nums", "den")

    nums: tuple[int, ...]
    den: int

    def __init__(self, nums: Iterable[int] = (), den: int = 1) -> None:
        if not den:
            raise ZeroDivisionError("RationalPoly denominator must be nonzero")
        nums = list(nums)
        while nums and not nums[-1]:
            nums.pop()
        if den < 0:
            nums = [-c for c in nums]
            den = -den
        g = math.gcd(den, *nums)
        if g > 1:
            nums = [c // g for c in nums]
            den //= g
        self.nums = tuple(nums)
        self.den = den

    @classmethod
    def _canonical(cls, nums: tuple[int, ...], den: int) -> "RationalPoly":
        """A polynomial from a tuple ``nums`` and a ``den`` already in
        canonical form, with none of the constructor's copy, trim, sign and
        gcd passes.

        Only for a producer whose construction makes the form canonical:
        ``powersum.power_sum_poly`` alone, whose leading numerator, from
        m^n / (n+1), is never 0.  Its den is the lcm of the x^j
        coefficients' denominators in lowest terms for j >= 2, so each
        prime power of den comes from a coefficient whose numerator over
        den is prime to it; the x coefficient, r^n less the others, has a
        denominator that divides den, so its numerator over den is an
        integer.  Anything else calls the constructor.
        """
        self = object.__new__(cls)
        self.nums = nums
        self.den = den
        return self

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        from fractions import Fraction

        den = self.den
        return tuple(Fraction(c, den) for c in self.nums)

    @property
    def denominator(self) -> int:
        """Smallest d >= 1 such that d * self has integer coefficients."""
        return self.den

    def __call__(self, x: int | Fraction) -> Fraction:
        """Homogeneous Horner at x = p/q: q^d f(p/q) in integers, then one
        Fraction over den * q^d."""
        from fractions import Fraction

        nums = self.nums
        if not nums:
            return Fraction(0)
        p, q = x.numerator, x.denominator
        acc = nums[-1]
        qpow = 1
        for c in nums[-2::-1]:
            qpow *= q
            acc = acc * p + c * qpow
        return Fraction(acc, self.den * qpow)


class BernoulliCache:
    """Growable rows of values q^k B_k(p/q), one format for every y = p/q;
    the row of y = 0 is the table of Bernoulli numbers.

    Requesting index n fills every index <= n, so a row only grows, and the
    boustrophedon row the table is read from only moves down the triangle,
    whatever the order of the requests.  Single writer: concurrent readers
    of already-filled entries are fine, but parallel sweeps should hold one
    cache per worker.
    """

    def __init__(self) -> None:
        # Seidel-Entringer row len(table) - 2 (r + 1 entries for row r): the
        # fill of entry m builds row m - 1 from it, one new list per row, and
        # the last entry of an odd row is a tangent number
        self._seidel: list[int] = [1]
        # one row per y = p/q in lowest terms, keyed (p, q); the row of 0
        # is the table, starting from B_0 = 1 and B_1 = -1/2
        self._table: Row = ([1, -1], [1, 2])
        self._rows: dict[tuple[int, int], Row] = {(0, 1): self._table}
        # the table's running lcm, _scales[k] = lcm(den B_0..B_k), filled
        # by _extend alone
        self._scales: list[int] = [1, 2]
        # _terms(k) per index k <= _TERMS_MAX, shared by every row's fill
        self._held_terms: dict[int, list[int]] = {}
        # polynomial_denominators per index, _poly_dens[k] = (DD(k), DB(k)),
        # filled upward from k = 0, where B_0(x) = 1, and the half Pascal row
        # C(k, j), j <= k/2, at the last index filled
        self._poly_dens: list[tuple[int, int]] = [(1, 1)]
        self._half_pascal: list[int] = [1]
        # the last power-sum polynomial only, one slot: (m, r, n) and the
        # RationalPoly returned for it.  Written by powersum.power_sum_poly
        # alone, which carries S_(n-1) to S_n from it, and read by it and
        # by powersum.am_integer, which takes m^n B_n(r/m), the x
        # coefficient of S_n, from it; None until power_sum_poly's first call
        self._last_power_sum: tuple[tuple[int, int, int], RationalPoly] | None = None

    def _extend(self, n: int) -> None:
        table, scales = self._table, self._scales
        for m in range(len(table[0]), n + 1):
            # row m - 1 is 0 and the prefix sums of row m - 2 read backward,
            # stored on the cache at once, so the old row is freed with it
            self._seidel = row = [0, *accumulate(reversed(self._seidel))]
            if m % 2:
                _append(table, 0, 1)
            else:
                # T_k, k = m/2, is the last entry of row 2k - 1
                k = m // 2
                four = 1 << m  # 4^k
                _append(table, (m if k % 2 else -m) * row[-1], four * (four - 1))
            scales.append(math.lcm(scales[-1], table[1][-1]))

    def number(self, n: int) -> Fraction:
        """B_n; zero for odd n >= 3."""
        from fractions import Fraction

        nums, dens = self.row(n, 0)
        return Fraction(nums[n], dens[n])

    def polynomial(self, n: int) -> RationalPoly:
        """B_n(x) = sum_{k=0}^{n} C(n,k) B_k x^(n-k): monic, constant term B_n.

        Built over L = lcm(den B_0..B_n) from ``scaled_numbers``: the
        x^(n-k) numerator is C(n, k) L B_k, with a running binomial.
        """
        scale, scaled = self.scaled_numbers(n)
        nums = [0] * (n + 1)
        binom = 1
        for k, b in enumerate(scaled):
            nums[n - k] = binom * b
            binom = binom * (n - k) // (k + 1)
        return RationalPoly(nums, scale)

    def polynomial_denominators(self, n: int) -> tuple[int, int]:
        """(DD, DB): the denominators of B_n(x) - B_n and of B_n(x) in lowest
        terms, read without building the polynomial.

        Each is the lcm of the reduced denominators of the x^j coefficients
        C(n, j) B_(n-j), over j >= 1 for DD and over every j for DB.  Every
        index up to n is filled, as the table is, and kept: a filled index
        is one list read, and a request at a high n pays for every unfilled
        index below it.  Each new index k steps the half Pascal row
        C(k, j), j <= k/2, from the one of k - 1 and reads both ends of the
        row from it, since C(k, j) = C(k, k - j).  Only even k - j need
        work: B_i = 0 at odd i >= 3, and the term of B_1 is -k/2.  The
        reduced denominators go into one set of distinct values, most of
        them 1, whose lcm is DD; DB is lcm(DD, den B_k), and at odd k >= 3,
        where B_k = 0, it is DD.
        """
        pairs = self._poly_dens
        if not 0 <= n < len(pairs):
            # the table's row check refuses n < 0
            den = self.row(n, 0)[1]
            half = self._half_pascal
            for k in range(len(pairs), n + 1):
                half, last = [1, *map(add, half, half[1:])], half
                # B_i is stored in lowest terms, so only the binomial can
                # cancel: j <= k/2 pairs den[k - j] with half[j], and its
                # mirror j >= k/2 pairs den[i] with half[i] at i = k - j
                if k % 2:
                    near = den[k - 1 :: -2], half[1::2]
                    # -k/2, the x^(k-1) term of B_1; at k = 1 it is constant
                    seen = {2} if k > 1 else set()
                else:
                    half.append(2 * last[-1])  # C(k, k/2) = 2 C(k - 1, k/2 - 1)
                    near = den[k - 2 :: -2], half[2::2]
                    seen = set()
                for ds, cs in (near, (den[2 : k // 2 + 1 : 2], half[2::2])):
                    seen.update(map(floordiv, ds, map(math.gcd, ds, cs)))
                nonconstant = math.lcm(*seen)
                # stored at each index, so the row on the cache is always
                # that of the last pair filled
                self._half_pascal = half
                pairs.append((nonconstant, math.lcm(nonconstant, den[k])))
        return pairs[n]

    def row(self, n: int, p: int, q: int = 1) -> Row:
        """The row of y = p/q, two ints in lowest terms with q >= 1, filled
        to at least index n; ``row(n, 0)`` is the table.

        The cache's own lists (nums, dens): entry k is q^k B_k(y) =
        nums[k] / dens[k] in lowest terms.  Callers read them and must not
        change them.  A row short of n is filled to n, and no further, by one
        Taylor shift (``_shift_fill``) whatever the gap, so a caller that
        walks n upward at one point should ask for its top index first.
        """
        if n < 0:
            raise ValueError(f"Bernoulli index must be >= 0, got {n}")
        if q < 1:
            raise ValueError(f"point denominator must be >= 1, got {q}")
        row = self._rows.get((p, q))
        if row is None:
            if math.gcd(p, q) != 1:
                raise ValueError(f"point {p}/{q} is not in lowest terms")
            row = self._rows[(p, q)] = ([], [])
        if n >= len(row[0]):
            # fills the table, which is the whole fill of the row of 0 (the
            # one row with p == 0)
            self._extend(n)
            if p:
                self._shift_fill(row, n, p, q)
        return row

    def _shift_fill(self, row: Row, n: int, p: int, q: int) -> None:
        """Append q^k B_k(p/q) for each missing k <= n, from one Taylor shift.

        H(u) = L q^n B_n(u/q) = sum_i C(n, i) L B_i q^i u^(n-i), with
        L = lcm(den B_0..B_n), has integer coefficients, built from the
        index's terms C(n, i) L B_i at even i (``_terms``), -n L/2 at i = 1
        and 0 at odd i >= 3.  By the Appell identity its shift H(u + p) has
        the u^j coefficient L C(n, j) q^(n-j) B_(n-j)(p/q).  The shift runs as
        G(v + 1) with G(v) = H(p v), by repeated prefix sums over the
        coefficients: after pass j the last one is final, p^j times the u^j
        coefficient of H(u + p).  Dividing it by p^j C(n, j) and reducing
        over L gives the entry at k = n - j; passes stop once every missing
        entry is made.
        """
        scale = self._scales[n]
        ppows = list(accumulate(repeat(p, n), mul, initial=1))
        # coefficients of G, highest power of v first: C(n, i) L B_i q^i p^(n-i)
        coeffs = [0] * (n + 1)
        q2 = q * q
        qpow = 1
        for i, t in zip(range(0, n + 1, 2), self._terms(n)):
            coeffs[i] = t * qpow * ppows[n - i]
            qpow *= q2
        if n:
            coeffs[1] = -n * (scale // 2) * q * ppows[n - 1]
        scaled = []  # L q^k B_k(p/q) at k = n - j, for j = 0, 1, ...
        binom = 1
        for j in range(n + 1 - len(row[0])):
            coeffs = list(accumulate(coeffs))
            scaled.append(coeffs.pop() // (binom * ppows[j]))
            binom = binom * (n - j) // (j + 1)
        for a in reversed(scaled):
            _append(row, a, scale)

    def _terms(self, k: int) -> list[int]:
        """C(k, i) L B_i for i = 0, 2, 4, ..., k, with L = lcm(den B_0..B_k):
        the integers every point's shift from index k starts from.

        Read from the table, which must reach k, with a running binomial
        that steps i by two.  The list is kept for k <= ``_TERMS_MAX`` and
        handed to every later caller, who must not change it; past that it
        is built on each call.  Table entries never change, so a kept list
        never goes stale.
        """
        terms = self._held_terms.get(k)
        if terms is None:
            tnums, tdens = self._table
            scale = self._scales[k]
            terms = [scale]  # B_0 = 1
            binom = 1
            for i in range(2, k + 1, 2):
                binom = binom * (k - i + 2) * (k - i + 1) // ((i - 1) * i)
                terms.append(binom * tnums[i] * (scale // tdens[i]))
            if k <= _TERMS_MAX:
                self._held_terms[k] = terms
        return terms

    def value_at(self, n: int, y: int | Fraction) -> Fraction:
        """B_n(y) for an int or ``Fraction`` y, read from
        ``row(n, y.numerator, y.denominator)`` as q^n B_n(y) over q^n.

        Values are kept as one row per distinct y in lowest terms, filled
        upward: asking for B_n(y) fills the entries k = 0..n, n + 1 of them,
        unless the row already holds them.  At y = 0 the row is the table.
        """
        from fractions import Fraction

        q = y.denominator
        nums, dens = self.row(n, y.numerator, q)
        return Fraction(nums[n], dens[n] * q**n)

    def scaled_numbers(self, n: int) -> tuple[int, tuple[int, ...]]:
        """(L, (L*B_0, ..., L*B_n)) with L = lcm(den B_0, ..., den B_n).

        Read straight from the table and its running lcm, and built on
        each call: nothing is remembered.  ``polynomial`` is its only
        caller here; it runs binomial sums over B_k in pure integer
        arithmetic, exact because L clears every denominator.
        """
        nums, dens = self.row(n, 0)
        scale = self._scales[n]
        return scale, tuple(a * (scale // d) for a, d in zip(nums[: n + 1], dens))
