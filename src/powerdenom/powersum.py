"""Power sums over arithmetic progressions, exactly.

For a progression r, r+m, r+2m, ... the sum of nth powers of the first x
terms is a polynomial in x of degree n+1 with zero constant term.  This
module builds that polynomial over exact rationals, predicts its denominator
from gcds and the nonconstant denominator sequence alone, decides integrality
of the whole coefficient vector from a single divisibility, and computes the
scaled polynomial differences m^n(B_n(r/m) - B_n), which are always integers
(Almkvist and Meurman's theorem) and carry a p-power divisibility tied to n.
Both read one ``BernoulliCache`` row per point r/m: the polynomial the whole
row to n, a scaled difference its entry n at |r|/m, with a negative start
read from the same entry by the reflection
B_n(-x) = (-1)^n (B_n(x) + n x^(n-1)).  The point is handed to the cache as
two ints in lowest terms, |r|/g and m/g with g = gcd(r, m); no ``Fraction``
is built here.

The integrality of the scaled differences is enforced at construction time
and raises TheoremViolationError on failure: such a failure can only mean a
bug here, never bad input.  That the difference of two power sums with the
same m and n has integer coefficients is checked by the T2 sweep in
``verify``, which builds the polynomials at every start r of its grid.
"""

from __future__ import annotations

from math import gcd

from .bernoulli import BernoulliCache, RationalPoly
from .denom import full_denom, nonconstant_denom
from .errors import TheoremViolationError
from .value import Value


class ProgressionSpec(Value):
    """Progression with difference m >= 1 and start r >= 0, raised to n >= 1;
    a ``Value``."""

    __slots__ = ("m", "r", "n")

    m: int
    r: int
    n: int

    def __init__(self, m: int, r: int, n: int) -> None:
        if m < 1:
            raise ValueError(f"difference m must be >= 1, got {m}")
        if r < 0:
            raise ValueError(f"start r must be >= 0, got {r}")
        if n < 1:
            raise ValueError(f"exponent n must be >= 1, got {n}")
        self.m = m
        self.r = r
        self.n = n


class AMInteger(Value):
    """The integer m^n(B_n(r/m) - B_n), a ``Value``; build through
    am_integer only."""

    __slots__ = ("m", "r", "n", "value")

    m: int
    r: int
    n: int
    value: int

    def __init__(self, m: int, r: int, n: int, value: int) -> None:
        self.m = m
        self.r = r
        self.n = n
        self.value = value


def power_sum_naive(spec: ProgressionSpec, x: int) -> int:
    """Brute-force sum of (k*m + r)^n over k < x; the evaluation oracle."""
    if x < 0:
        raise ValueError(f"term count x must be >= 0, got {x}")
    m, r, n = spec.m, spec.r, spec.n
    return sum((k * m + r) ** n for k in range(x))


def power_sum_poly(cache: BernoulliCache, spec: ProgressionSpec) -> RationalPoly:
    """The power sum as a polynomial in the term count.

    Coefficient of x^j (1 <= j <= n+1) is m^n C(n+1, j) B_(n+1-j)(r/m)
    divided by n+1; the constant term is zero.  With g = gcd(r, m) and
    q = m / g, the row of r/m, ``row(n, r // g, q)``, holds
    A_k = q^k B_k(r/m), so m^n B_k(r/m) = g^n q^(n-k) A_k.  The row's denominators divide
    lcm(den B_0, ..., den B_n) and hold no power of q, so the polynomial is
    built in one pass over the row, in integers over (n+1) L with L the
    row's lcm at n.
    """
    m, r, n = spec.m, spec.r, spec.n
    g = gcd(r, m)
    q = m // g
    values, dens, lcms = cache.row(n, r // g, q)
    scale = lcms[n]
    w = g**n  # g^n q^(j-1) = g^n q^(n-k)
    nums = [0]
    binom = 1
    for j in range(1, n + 2):
        k = n + 1 - j
        binom = binom * (k + 1) // j  # C(n+1, j)
        nums.append(binom * w * values[k] * (scale // dens[k]))
        w *= q
    return RationalPoly(nums, (n + 1) * scale)


def power_sum_denominator(spec: ProgressionSpec) -> int:
    """Denominator of power_sum_poly without building the polynomial.

    Equals (n+1)/gcd(n+1, m^n) times the nonconstant denominator at n+1
    with every factor shared with m removed; independent of r.  The power
    gcd is one modular power, and m^n is never built: a prime power p^e
    dividing n+1 has e <= n and e below the bit length b of n+1, so
    gcd(n+1, m^n) = gcd(n+1, m^b) = gcd(n+1, m^b mod (n+1)).
    """
    n1 = spec.n + 1
    left = n1 // gcd(n1, pow(spec.m, n1.bit_length(), n1))
    dd = nonconstant_denom(n1).value
    return left * (dd // gcd(dd, spec.m))


def is_integral(spec: ProgressionSpec) -> bool:
    """Whether the power sum polynomial has integer coefficients.

    Holds exactly when the full Bernoulli polynomial denominator at n
    divides m; no polynomial is built.
    """
    return spec.m % full_denom(spec.n).value == 0


def am_integer(cache: BernoulliCache, m: int, r: int, n: int) -> AMInteger:
    """m^n(B_n(r/m) - B_n) for any integer r, read from the row of |r|/m.

    With g = gcd(r, m) and q = m / g, entry n of
    ``row(n, |r| // g, q)``, the row ``power_sum_poly`` fills, is
    A_n = q^n B_n(|r|/m), so m^n B_n(|r|/m) = g^n A_n.  A_n and B_n, from
    the table, both clear over the table's lcm L at n, so integrality is
    one exact division by L.  At r < 0 the reflection
    B_n(-x) = (-1)^n (B_n(x) + n x^(n-1)) turns g^n A_n into
    (-1)^n (g^n A_n + n m |r|^(n-1)): an integer added to the same entry,
    so a negative start fills no row of its own.  A nonzero remainder would
    contradict the theorem and raises, naming the (m, r, n) asked for.
    """
    if m < 1:
        raise ValueError(f"difference m must be >= 1, got {m}")
    if n < 1:
        raise ValueError(f"exponent n must be >= 1, got {n}")
    a = abs(r)
    g = gcd(a, m)
    values, dens, _ = cache.row(n, a // g, m // g)
    tnums, tdens, tlcms = cache.row(n, 0)
    scale = tlcms[n]
    here = g**n * values[n] * (scale // dens[n])
    if r < 0:
        here += n * m * (-r) ** (n - 1) * scale
        if n % 2:
            here = -here
    value, rem = divmod(here - m**n * tnums[n] * (scale // tdens[n]), scale)
    if rem:
        raise TheoremViolationError(
            f"m^n(B_n(r/m) - B_n) non-integral at m={m}, r={r}, n={n}"
        )
    return AMInteger(m, r, n, value)
