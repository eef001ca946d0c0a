"""Exact Bernoulli numbers and polynomials in integer arithmetic.

The sign convention is B_1 = -1/2, so the defining recurrence reads

    sum_{k=0}^{n-1} C(n, k) B_k = 0   for n >= 2, with B_0 = 1.

The table is not filled from that recurrence.  Even-index numbers come from
the tangent numbers T_k (1, 2, 16, 272, ...) as

    B_2k = (-1)^(k-1) * 2k * T_k / (4^k (4^k - 1)),

after Brent and Harvey, "Fast computation of Bernoulli, Tangent and Secant
numbers" (2011).  T_k is the zigzag number A_(2k-1), the last entry of row
2k-1 of the Seidel-Entringer (boustrophedon) triangle, whose rows are built
from each other by additions alone.  Each B_2k is reduced by ``Fraction``,
so its denominator comes from that gcd and never from von Staudt-Clausen.
Polynomials are integer numerators over one common denominator.  Where only
denominators are wanted, ``coefficient_denominators`` gives the reduced
denominator of each coefficient C(n, j) B_(n-j) of B_n(x) without building
the polynomial.  Values B_k(y) at a rational point are kept as one row per
distinct y in lowest terms: a request for B_n(y) fills that row upward to
n + 1 entries, each by integer Horner over B_k(x) and one gcd, so the n + 1
values a power-sum polynomial needs come from a single fetch.

This module is the certain oracle: exact integers throughout, no
approximations anywhere.  The closed-form denominator products elsewhere
never touch it; they are tested against it.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Sequence, Union

Rat = Union[int, Fraction]


class RationalPoly:
    """Dense univariate polynomial with rational coefficients.

    Stored as integer numerators ``nums`` (ascending: index i belongs to x^i)
    over one denominator ``den``, in canonical form: den > 0,
    gcd(den, *nums) == 1 and no trailing zero numerators.  The zero
    polynomial has ``nums == ()``, ``den == 1`` and degree -1.  Instances are
    immutable by convention; all arithmetic runs in integers and returns
    fresh objects.
    """

    __slots__ = ("nums", "den")

    nums: tuple[int, ...]
    den: int

    def __init__(self, coeffs: Iterable[Rat] = ()) -> None:
        cs = [Fraction(c) for c in coeffs]
        den = math.lcm(*(c.denominator for c in cs)) if cs else 1
        self._canonical([c.numerator * (den // c.denominator) for c in cs], den)

    @classmethod
    def scaled(cls, nums: Sequence[int], den: int) -> "RationalPoly":
        """The polynomial sum(nums[i] x^i) / den, put in canonical form."""
        if not den:
            raise ZeroDivisionError("RationalPoly denominator must be nonzero")
        poly = cls.__new__(cls)
        poly._canonical(list(nums), den)
        return poly

    def _canonical(self, nums: list[int], den: int) -> None:
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
    def degree(self) -> int:
        return len(self.nums) - 1

    @property
    def is_zero(self) -> bool:
        return not self.nums

    @property
    def denominator(self) -> int:
        """Smallest d >= 1 such that d * self has integer coefficients."""
        return self.den

    def coefficient(self, i: int) -> Fraction:
        if 0 <= i < len(self.nums):
            return Fraction(self.nums[i], self.den)
        return Fraction(0)

    def __call__(self, x: Rat) -> Fraction:
        # homogeneous Horner: q^d f(p/q) = sum c_i p^i q^(d-i), in integers
        nums = self.nums
        if not nums:
            return Fraction(0)
        p, q = x.numerator, x.denominator
        acc = nums[-1]
        qpow = 1
        for c in reversed(nums[:-1]):
            qpow *= q
            acc = acc * p + c * qpow
        return Fraction(acc, self.den * qpow)

    def _combine(self, other: "RationalPoly", sign: int) -> "RationalPoly":
        den = math.lcm(self.den, other.den)
        a = [c * (den // self.den) for c in self.nums]
        b = [sign * c * (den // other.den) for c in other.nums]
        if len(a) < len(b):
            a, b = b, a
        for i, c in enumerate(b):
            a[i] += c
        return RationalPoly.scaled(a, den)

    def __add__(self, other: "RationalPoly") -> "RationalPoly":
        return self._combine(other, 1)

    def __sub__(self, other: "RationalPoly") -> "RationalPoly":
        return self._combine(other, -1)

    def __neg__(self) -> "RationalPoly":
        return RationalPoly.scaled([-c for c in self.nums], self.den)

    def __mul__(self, other: Union["RationalPoly", Rat]) -> "RationalPoly":
        if not isinstance(other, RationalPoly):
            p, q = other.numerator, other.denominator
            return RationalPoly.scaled([c * p for c in self.nums], self.den * q)
        if self.is_zero or other.is_zero:
            return RationalPoly()
        out = [0] * (len(self.nums) + len(other.nums) - 1)
        for i, a in enumerate(self.nums):
            if not a:
                continue
            for j, b in enumerate(other.nums):
                out[i + j] += a * b
        return RationalPoly.scaled(out, self.den * other.den)

    __rmul__ = __mul__

    def substituted(self, inner: "RationalPoly") -> "RationalPoly":
        """Composition self(inner(x)), by Horner over polynomials."""
        acc = RationalPoly()
        for c in reversed(self.nums):
            acc = acc * inner + RationalPoly.scaled((c,), self.den)
        return acc

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RationalPoly):
            return NotImplemented
        return self.den == other.den and self.nums == other.nums

    def __hash__(self) -> int:
        return hash((self.nums, self.den))

    def __repr__(self) -> str:
        return f"RationalPoly.scaled({list(self.nums)!r}, {self.den})"


class BernoulliCache:
    """Growable table of Bernoulli numbers plus derived evaluations.

    Requesting index n fills every index <= n, so the table only grows, and
    so does the boustrophedon row it is read from, whatever the order of the
    requests.  The rows of values B_k(y) grow the same way.  Single writer:
    concurrent readers of already-filled entries are fine, but parallel
    sweeps should hold one cache per worker.
    """

    def __init__(self) -> None:
        # B_k = _num[k] / _den[k] in lowest terms, for every k filled so far
        self._num: list[int] = [1, -1]
        self._den: list[int] = [1, 2]
        # Seidel-Entringer row r (r + 1 entries), stored reversed for odd r:
        # the last entry of an odd row, a tangent number, sits at index 0
        self._seidel: list[int] = [1]
        # one row per y = p/q in lowest terms, keyed (p, q): B_k(y) =
        # nums[k] / dens[k] in lowest terms and lcms[k] = lcm(dens[0..k])
        self._rows: dict[tuple[int, int], tuple[list[int], list[int], list[int]]] = {}
        self._scaled: dict[int, tuple[int, tuple[int, ...]]] = {}
        # the last coefficient_denominators answer only, one slot, no per-n
        # memo; it starts at n = 0, where B_0(x) = 1
        self._last_dens: tuple[int, tuple[int, ...]] = (0, (1,))

    def _tangent(self, k: int) -> int:
        """T_k = A_(2k-1), advancing the kept row to 2k-1; k = 1, 2, ... in turn."""
        row = self._seidel
        while len(row) < 2 * k:
            r = len(row)  # index of the row being built
            if r % 2:
                # row r-1 is in natural order: suffix sums, then E(r, 0) = 0
                for i in range(r - 2, -1, -1):
                    row[i] += row[i + 1]
                row.append(0)
            else:
                # row r-1 is reversed: prefix sums, with E(r, 0) = 0 in front
                for i in range(1, r):
                    row[i] += row[i - 1]
                row.insert(0, 0)
        return row[0]

    def _extend(self, n: int) -> None:
        for m in range(len(self._num), n + 1):
            if m % 2:
                b = Fraction(0)
            else:
                k = m // 2
                four = 1 << m  # 4^k
                sign = 1 if k % 2 else -1
                b = Fraction(sign * m * self._tangent(k), four * (four - 1))
            self._num.append(b.numerator)
            self._den.append(b.denominator)

    def number(self, n: int) -> Fraction:
        """B_n; zero for odd n >= 3."""
        if n < 0:
            raise ValueError(f"Bernoulli index must be >= 0, got {n}")
        if n >= len(self._num):
            self._extend(n)
        return Fraction(self._num[n], self._den[n])

    def numbers(self, n: int) -> tuple[Fraction, ...]:
        """The tuple (B_0, ..., B_n)."""
        self.number(n)
        return tuple(map(Fraction, self._num[: n + 1], self._den[: n + 1]))

    def _coefficients(self, n: int) -> tuple[list[int], int]:
        # C(n, j) B_(n-j), the coefficient of x^j, over L = lcm of the
        # denominators of B_0..B_n, with a running binomial; not reduced
        num, den = self._num, self._den
        scale = math.lcm(*den[: n + 1])
        out = []
        binom = 1
        for j in range(n + 1):
            k = n - j
            out.append(binom * num[k] * (scale // den[k]) if num[k] else 0)
            binom = binom * k // (j + 1)
        return out, scale

    def _polynomial(self, n: int) -> RationalPoly:
        return RationalPoly.scaled(*self._coefficients(n))

    def polynomial(self, n: int) -> RationalPoly:
        """B_n(x) = sum_{k=0}^{n} C(n,k) B_k x^(n-k): monic, constant term B_n."""
        self.number(n)
        return self._polynomial(n)

    def coefficient_denominators(self, n: int) -> tuple[int, ...]:
        """The reduced denominator of C(n, j) B_(n-j), the x^j coefficient of
        B_n(x), for j = 0..n.

        The lcm of these is the denominator of B_n(x) in lowest terms, so
        denominators are read without building the polynomial.  Only the
        last n asked for is remembered.
        """
        last_n, dens = self._last_dens
        if n == last_n:
            return dens
        self.number(n)
        den = self._den
        out = []
        binom = 1
        for j in range(n + 1):
            k = n - j
            # B_k is stored in lowest terms, so the numerator shares no factor
            # with den[k] and only the binomial can cancel; a zero B_k has
            # den[k] == 1
            out.append(den[k] // math.gcd(den[k], binom))
            binom = binom * k // (j + 1)
        dens = tuple(out)
        self._last_dens = (n, dens)
        return dens

    def _row(self, n: int, y: Rat) -> tuple[list[int], list[int], list[int]]:
        """The row of y, filled to at least index n."""
        if n < 0:
            raise ValueError(f"Bernoulli index must be >= 0, got {n}")
        if not isinstance(y, Fraction):
            y = Fraction(y)
        p, q = y.numerator, y.denominator
        row = self._rows.get((p, q))
        if row is None:
            row = self._rows[(p, q)] = ([], [], [])
        nums, dens, lcms = row
        if n >= len(nums):
            self.number(n)
            last = lcms[-1] if lcms else 1
            for k in range(len(nums), n + 1):
                # homogeneous Horner: L q^k B_k(p/q) = sum c_i p^i q^(k-i)
                coeffs, scale = self._coefficients(k)
                acc = coeffs[-1]
                qpow = 1
                for c in reversed(coeffs[:-1]):
                    qpow *= q
                    acc = acc * p + c * qpow
                den = scale * qpow
                g = math.gcd(acc, den)
                nums.append(acc // g)
                dens.append(den // g)
                last = math.lcm(last, den // g)
                lcms.append(last)
        return row

    def value_at(self, n: int, y: Rat) -> Fraction:
        """B_n(y), by integer Horner over B_n(x).

        Values are kept as one row per distinct y in lowest terms, filled
        upward: asking for B_n(y) fills B_0(y), ..., B_n(y), n + 1 entries,
        unless the row already holds them.
        """
        nums, dens, _ = self._row(n, y)
        return Fraction(nums[n], dens[n])

    def scaled_values(self, n: int, y: Rat) -> tuple[int, tuple[int, ...]]:
        """(L, (L*B_0(y), ..., L*B_n(y))) with L = lcm of the denominators.

        The values at y in one fetch, read from the row of y (filled to n + 1
        entries as ``value_at`` fills it), over one common integer
        denominator as ``scaled_numbers`` gives B_0..B_n.
        """
        nums, dens, lcms = self._row(n, y)
        scale = lcms[n]
        return scale, tuple(a * (scale // d) for a, d in zip(nums[: n + 1], dens))

    def scaled_numbers(self, n: int) -> tuple[int, tuple[int, ...]]:
        """(L, (L*B_0, ..., L*B_n)) with L = lcm of the denominators.

        Lets callers run binomial sums over B_k in pure integer arithmetic;
        the result is exact because L clears every denominator.
        """
        hit = self._scaled.get(n)
        if hit is not None:
            return hit
        self.number(n)
        den = self._den[: n + 1]
        scale = math.lcm(*den)
        scaled = tuple(a * (scale // d) for a, d in zip(self._num, den))
        self._scaled[n] = (scale, scaled)
        return scale, scaled
