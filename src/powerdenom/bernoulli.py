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
``RationalPoly.coeffs`` and ``__call__``.  Polynomials (``RationalPoly``) are
integer numerators over one common denominator, built from those integers
in canonical form and evaluated; nothing else.  A rational point is two
ints: ``row(n, p, q)`` takes y = p/q in lowest terms, q >= 1, and only
``value_at`` and a polynomial's ``__call__`` take y as an int or a
``Fraction``, read through ``y.numerator`` and ``y.denominator``.  Values
at a rational point share one row format: per distinct y = p/q in lowest
terms, the reduced numerators, reduced denominators and running lcm of

    A_k = q^k B_k(p/q) = sum_i C(k, i) B_i p^(k-i) q^i,   k = 0, 1, ...,

as int lists.  Each A_k is an integer combination of B_0..B_k, so its
denominator divides lcm(den B_0, ..., den B_k) and holds no power of q.
The table of Bernoulli numbers is the row of 0 (q = 1), and every read of
it, the table's own fill included, goes through ``row(n, 0)``.  Read over one
denominator, ``scaled_numbers(n)`` gives L and L*B_0..L*B_n with L the
table's running lcm at n; it is built on each call and not remembered,
and only ``polynomial`` sums it with binomials.  Every other row is filled
upward by one of two routes, chosen by how many entries a request finds
missing:

- at most ``HORNER_GAP`` missing: each new A_k by one Horner pass over the
  table, with a running binomial;
- more: the whole row from one Taylor shift of q^n B_n(u/q) by p, whose
  u^j coefficient is C(n, j) A_(n-j) (the Appell identity
  B_n(x + y) = sum_j C(n, j) B_(n-j)(y) x^j).

Rows that grow one entry per request stay on Horner; a fresh point at a
large index costs one shift.  ``coefficient_denominators`` gives the
reduced denominators of B_n(x)'s coefficients without building the
polynomial, working only at the even indices of B_k, with one binomial
for both ends of the row when n is even.

This module is the certain oracle: exact integers throughout, no
approximations anywhere.  The closed-form denominator products elsewhere
never touch it; they are tested against it.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from fractions import Fraction
from itertools import accumulate, repeat
from operator import mul

from .value import Value

# q^k B_k(p/q) for k = 0, 1, ... at y = p/q in lowest terms: reduced
# numerators, reduced denominators, and lcms[k] = lcm(dens[0..k])
Row = tuple[list[int], list[int], list[int]]

# A row missing at most this many entries is extended by Horner, one pass per
# entry; a longer gap is filled by one Taylor shift of the whole row.  One
# shift costs as much as Horner over 10 to 20 entries, for n from 60 to 600
# and q = 3 or 10^6, so below this gap Horner is the cheaper fill.  Rows that
# grow one entry per request, as the sweeps and grids ask, stay on Horner.
HORNER_GAP = 8


def _append(row: Row, num: int, den: int) -> None:
    """Append num/den to a row in lowest terms, with its running lcm."""
    nums, dens, lcms = row
    g = math.gcd(num, den)
    den //= g
    nums.append(num // g)
    dens.append(den)
    lcms.append(math.lcm(lcms[-1], den) if lcms else den)


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

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        den = self.den
        return tuple(Fraction(c, den) for c in self.nums)

    @property
    def denominator(self) -> int:
        """Smallest d >= 1 such that d * self has integer coefficients."""
        return self.den

    def __call__(self, x: int | Fraction) -> Fraction:
        """Homogeneous Horner at x = p/q: q^d f(p/q) in integers, then one
        Fraction over den * q^d."""
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
        self._table: Row = ([1, -1], [1, 2], [1, 2])
        self._rows: dict[tuple[int, int], Row] = {(0, 1): self._table}
        # the last coefficient_denominators answer only, one slot, no per-n
        # memo; it starts at n = 0, where B_0(x) = 1
        self._last_dens: tuple[int, tuple[int, ...]] = (0, (1,))

    def _extend(self, n: int) -> None:
        table = self._table
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

    def number(self, n: int) -> Fraction:
        """B_n; zero for odd n >= 3."""
        nums, dens, _ = self.row(n, 0)
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

    def coefficient_denominators(self, n: int) -> tuple[int, ...]:
        """The reduced denominator of C(n, j) B_(n-j), the x^j coefficient of
        B_n(x), for j = 0..n.

        The lcm of these is the denominator of B_n(x) in lowest terms, so
        denominators are read without building the polynomial.  Only the
        entries at even k = n - j need work: B_k = 0 at odd k >= 3, and the
        k = 1 entry is 2 / gcd(2, n).  The binomial steps by two, and for
        even n the one C(n, j) = C(n, n - j) serves both ends, so only
        j <= n/2 are stepped.  Only the last n asked for is remembered.
        """
        last_n, dens = self._last_dens
        if n == last_n:
            return dens
        den = self.row(n, 0)[1]
        out = [1] * (n + 1)
        if n:
            out[n - 1] = 2 // math.gcd(2, n)
        # B_k is stored in lowest terms, so the numerator shares no factor
        # with den[k] and only the binomial can cancel
        if n % 2:
            # k = n - j even at odd j; k = 0 (j = n) has den[0] == 1
            binom = n  # C(n, 1)
            for j in range(1, n - 1, 2):
                d = den[n - j]
                out[j] = d // math.gcd(d, binom)
                binom = binom * (n - j) * (n - j - 1) // ((j + 1) * (j + 2))
        else:
            # j and n - j both even: one binomial for the pair
            binom = 1
            for j in range(0, n // 2 + 1, 2):
                d = den[n - j]
                out[j] = d // math.gcd(d, binom)
                d = den[j]
                out[n - j] = d // math.gcd(d, binom)
                binom = binom * (n - j) * (n - j - 1) // ((j + 1) * (j + 2))
        dens = tuple(out)
        self._last_dens = (n, dens)
        return dens

    def row(self, n: int, p: int, q: int = 1) -> Row:
        """The row of y = p/q, two ints in lowest terms with q >= 1, filled
        to at least index n; ``row(n, 0)`` is the table.

        The cache's own lists (nums, dens, lcms): entry k is q^k B_k(y) =
        nums[k] / dens[k] in lowest terms, and lcms[k] = lcm(dens[0..k]).
        Callers read them and must not change them.
        """
        if n < 0:
            raise ValueError(f"Bernoulli index must be >= 0, got {n}")
        if q < 1:
            raise ValueError(f"point denominator must be >= 1, got {q}")
        row = self._rows.get((p, q))
        if row is None:
            row = self._rows[(p, q)] = ([], [], [])
        if n >= len(row[0]):
            # fills the table, which is the whole fill of the row of 0
            self._extend(n)
            missing = n + 1 - len(row[0])
            if missing > HORNER_GAP:
                self._shift_fill(row, n, p, q)
            elif missing > 0:
                self._horner_fill(row, n, p, q)
        return row

    def _horner_fill(self, row: Row, n: int, p: int, q: int) -> None:
        """Append q^k B_k(p/q) for each missing k <= n, one pass per entry.

        q^k B_k(p/q) = sum_i C(k, i) B_i p^(k-i) q^i over the table's
        L*B_i, L = lcm(den B_0..B_k): the even i by Horner in p^2 with a
        running binomial, since B_i = 0 at odd i >= 3, then the term of
        B_1 = -1/2; one gcd reduces the sum.
        """
        tnums, tdens, tlcms = self._table
        p2, q2 = p * p, q * q
        for k in range(len(row[0]), n + 1):
            scale = tlcms[k]
            acc = scale  # B_0 = 1
            qpow = 1
            binom = 1
            for i in range(2, k + 1, 2):
                qpow *= q2
                binom = binom * (k - i + 2) * (k - i + 1) // ((i - 1) * i)
                acc = acc * p2 + binom * tnums[i] * (scale // tdens[i]) * qpow
            if k % 2:
                acc *= p
            if k:
                acc -= k * (scale // 2) * p ** (k - 1) * q
            _append(row, acc, scale)

    def _shift_fill(self, row: Row, n: int, p: int, q: int) -> None:
        """Append q^k B_k(p/q) for each missing k <= n, from one Taylor shift.

        H(u) = L q^n B_n(u/q) = sum_i C(n, i) L B_i q^i u^(n-i), with
        L = lcm(den B_0..B_n), has integer coefficients, and by the Appell
        identity its shift H(u + p) has the u^j coefficient
        L C(n, j) q^(n-j) B_(n-j)(p/q).  The shift runs as G(v + 1) with
        G(v) = H(p v), by repeated prefix sums over the coefficients: after
        pass j the last one is final, p^j times the u^j coefficient of
        H(u + p).  Dividing it by p^j C(n, j) and reducing over L gives the
        entry at k = n - j; passes stop once every missing entry is made.
        """
        tnums, tdens, tlcms = self._table
        scale = tlcms[n]
        ppows = list(accumulate(repeat(p, n), mul, initial=1))
        # coefficients of G, highest power of v first: C(n, i) L B_i q^i p^(n-i)
        coeffs = []
        qpow = 1
        binom = 1
        for i in range(n + 1):
            b = tnums[i]
            coeffs.append(binom * b * (scale // tdens[i]) * qpow * ppows[n - i] if b else 0)
            qpow *= q
            binom = binom * (n - i) // (i + 1)
        scaled = []  # L q^k B_k(p/q) at k = n - j, for j = 0, 1, ...
        binom = 1
        for j in range(n + 1 - len(row[0])):
            coeffs = list(accumulate(coeffs))
            scaled.append(coeffs.pop() // (binom * ppows[j]))
            binom = binom * (n - j) // (j + 1)
        for a in reversed(scaled):
            _append(row, a, scale)

    def value_at(self, n: int, y: int | Fraction) -> Fraction:
        """B_n(y) for an int or ``Fraction`` y, read from
        ``row(n, y.numerator, y.denominator)`` as q^n B_n(y) over q^n.

        Values are kept as one row per distinct y in lowest terms, filled
        upward: asking for B_n(y) fills the entries k = 0..n, n + 1 of them,
        unless the row already holds them.  At y = 0 the row is the table.
        """
        q = y.denominator
        nums, dens, _ = self.row(n, y.numerator, q)
        return Fraction(nums[n], dens[n] * q**n)

    def scaled_numbers(self, n: int) -> tuple[int, tuple[int, ...]]:
        """(L, (L*B_0, ..., L*B_n)) with L = lcm(den B_0, ..., den B_n).

        Read straight from the table, which keeps that running lcm, and
        built on each call: nothing is remembered.  ``polynomial`` is its
        only caller here; it runs binomial sums over B_k in pure integer
        arithmetic, exact because L clears every denominator.
        """
        nums, dens, lcms = self.row(n, 0)
        scale = lcms[n]
        return scale, tuple(a * (scale // d) for a, d in zip(nums[: n + 1], dens))
