"""Power sums over arithmetic progressions, exactly.

For a progression r, r+m, r+2m, ... the sum of nth powers of the first x
terms is a polynomial in x of degree n+1 with zero constant term, for every
n >= 0: x itself at n = 0.  This
module builds that polynomial over exact rationals, predicts its denominator
from gcds and the nonconstant denominator sequence alone, decides integrality
of the whole coefficient vector from a single divisibility, and computes the
scaled polynomial differences m^n(B_n(r/m) - B_n), which are always integers
(Almkvist and Meurman's theorem) and carry a p-power divisibility tied to n.
One slot on the cache, the last polynomial built on it, has one writer,
``power_sum_poly``, and two readers, and alone chooses each reader's
route.  The x^2..x^(n+1) coefficients of S_n are carried when the slot
holds S_(n-1) at the same m and r: m n times the integral of S_(n-1) from
0 (Appell's identity B'_(n+1) = (n+1) B_n), so no Bernoulli number is
read; otherwise they come from the row of r/m to n.  The point is handed
to the cache as two ints in lowest terms, |r|/g and m/g with
g = gcd(r, m); no ``Fraction`` is built here.  Either way each coefficient
is reduced by one gcd against its own small denominator, and the lcm of
those denominators is the polynomial's, so no common denominator of the
whole row is formed and no content gcd is taken.  The carried route takes
that lcm first, from one small gcd per coefficient, and then brings each
numerator over it by one multiply and one exact division; the row route
reduces each coefficient and then scales it to the lcm.  The x coefficient
over that lcm is fixed by S_n(1) = r^n.  A scaled difference needs
m^n B_n(|r|/m), which is S_n'(0): when the slot holds S_n at m and |r| it
reads the x coefficient there, and otherwise entry n of the row of |r|/m.
A negative start is read from the same number by the reflection
B_n(-x) = (-1)^n (B_n(x) + n x^(n-1)).

The integrality of the scaled differences is enforced at construction time
and raises TheoremViolationError on failure: such a failure can only mean a
bug here, never bad input.  That the difference of two power sums with the
same m and n has integer coefficients is checked by the T2 sweep in
``verify``, which builds the polynomials at every start r of its grid.
"""

from __future__ import annotations

from math import gcd, lcm

from .bernoulli import BernoulliCache, RationalPoly
from .denom import full_denom, nonconstant_denom
from .errors import TheoremViolationError
from .value import Value


class ProgressionSpec(Value):
    """Progression with difference m >= 1 and start r >= 0, raised to n >= 0;
    a ``Value``.  At n = 0 the power sum is x, with denominator 1."""

    __slots__ = ("m", "r", "n")

    m: int
    r: int
    n: int

    def __init__(self, m: int, r: int, n: int) -> None:
        if m < 1:
            raise ValueError(f"difference m must be >= 1, got {m}")
        if r < 0:
            raise ValueError(f"start r must be >= 0, got {r}")
        if n < 0:
            raise ValueError(f"exponent n must be >= 0, got {n}")
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

    The x^2..x^(n+1) coefficients come by one of two routes, and the
    cache's slot, the last polynomial built on it, alone chooses.  When it
    holds (m, r, n - 1), they are carried from S_(n-1).  Appell's identity
    B'_(n+1) = (n+1) B_n gives S_n'(x) = m n S_(n-1)(x) + m^n B_n(r/m), and
    S_n(0) = 0, so for j >= 2 the x^j coefficient of S_n is m n / j times
    the x^(j-1) coefficient of S_(n-1), t_(j-1) m n / d_j with t_(j-1) that
    polynomial's numerator, e its denominator and d_j = e j; no Bernoulli
    number is read.  The denominator comes first: the coefficient's own is
    d_j / gcd(t_(j-1) m n, d_j), and the gcd is taken of
    (t_(j-1) mod d_j) m n, a small int, so the one big-int operation per
    coefficient is that remainder.  With den the lcm of those and
    k = m n den, each numerator over den is t_(j-1) k // d_j, one multiply
    and one division, exact because the coefficient's own denominator
    divides den.

    Otherwise the row of r/m is read.  The coefficient of x^j
    (1 <= j <= n+1) is m^n C(n+1, j) B_k(r/m) / (n+1) with k = n+1-j.
    With g = gcd(r, m) and q = m / g, entry k of ``row(n, r // g, q)`` is
    A_k / d_k = q^k B_k(r/m) in lowest terms, so m^n B_k(r/m) =
    g^n q^(j-1) A_k / d_k, and since C(n+1, j) / (n+1) = C(n, j-1) / j the
    coefficient is c_j A_k / (j d_k) with c_j = g^n q^(j-1) C(n, j-1), one
    multiply and one exact divide from c_(j-1), starting at
    c_2 = g^n q n.  Its gcd is taken against c_j alone, so a prime p of
    both A_k and j stays in the pair, but the lcm of the denominators for
    j >= 2 is the same as in lowest terms: p does not divide d_k, and it
    does not divide m, since v_p(c_j) >= n >= v_p(j) when p | g and
    v_p(c_j) >= j - 1 >= v_p(j) when p | q.  Then
    v_p(j) - v_p(c_j) = v_p(n+1) - v_p(C(n+1, j)) <= v_p(n+1), and the
    x^(n+1) coefficient m^n / (n+1), where A_0 = 1, puts p^v_p(n+1) into
    the lcm already.  Each reduced numerator is then scaled to that lcm by
    one multiply.

    Either way the polynomial's denominator is the lcm, each x^j numerator
    for j >= 2 is the coefficient times it, and the x numerator is what
    S_n(1) = r^n leaves over it: the x coefficient's denominator divides
    the others' lcm.  The form is canonical (``RationalPoly._canonical``),
    and the polynomial returned goes into the slot.
    """
    m, r, n = spec.m, spec.r, spec.n
    last = cache._last_power_sum
    if last and last[0] == (m, r, n - 1):
        tops, e = last[1].nums[1:], last[1].den
        mn = m * n
        djs = range(2 * e, (n + 2) * e, e)  # d_j = e j for j = 2..n+1
        den = lcm(*[d // gcd(t % d * mn, d) for t, d in zip(tops, djs)])
        k = mn * den
        scaled = [0, 0, *[t * k // d for t, d in zip(tops, djs)]]
    else:
        nums = [0, 0]
        reduced = [1, 1]
        g = gcd(r, m)
        q = m // g
        values, dens = cache.row(n, r // g, q)
        c = g**n * q * n  # c_j, from c_2 = g^n q n
        k = n - 1
        for j in range(2, n + 2):
            d = j * dens[k]
            h = gcd(c, d)
            nums.append(c // h * values[k])
            reduced.append(d // h)
            c = c * (q * k) // j
            k -= 1
        den = lcm(*reduced)
        scaled = [a * (den // d) for a, d in zip(nums, reduced)]
    # S_n(1) = r^n: the x numerator over den is what the others leave
    scaled[1] = r**n * den - sum(scaled)
    poly = RationalPoly._canonical(tuple(scaled), den)
    cache._last_power_sum = ((m, r, n), poly)
    return poly


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
    divides m; no polynomial is built.  At n = 0 the sum is x, integral for
    every m; the denominator sequences start at n = 1.
    """
    return not spec.n or spec.m % full_denom(spec.n).value == 0


def am_integer(cache: BernoulliCache, m: int, r: int, n: int) -> AMInteger:
    """m^n(B_n(r/m) - B_n) for any integer r, from m^n B_n(|r|/m) and B_n.

    m^n B_n(|r|/m) comes from one of two sources, and the cache's power-sum
    slot alone chooses.  Appell's identity gives S_n'(0) = m^n B_n(r/m) for
    the power sum S_n of ``power_sum_poly``, so when the slot holds
    (m, |r|, n) the x coefficient of that polynomial, its x numerator num
    over its denominator den, is that number and no row is read.
    Otherwise, with g = gcd(|r|, m) and q = m / g, entry n of
    ``row(n, |r| // g, q)``, the row ``power_sum_poly`` reads, is
    A_n = q^n B_n(|r|/m), so m^n B_n(|r|/m) = g^n A_n over that entry's
    denominator.  Either way B_n comes from the table, and integrality is
    one exact division by scale, a common multiple of den and B_n's
    denominator.  The table's running lcm at n is not always one on the
    slot route: den is the polynomial's whole denominator, which can hold
    primes the table lacks (at (m, r, n) = (1, 0, 5) the x numerator is 0
    over the polynomial's denominator 12, while the table's lcm at 5 is
    30); the division is exact either way.  At r < 0 the reflection
    B_n(-x) = (-1)^n (B_n(x) + n x^(n-1)) turns m^n B_n(|r|/m) into
    (-1)^n (m^n B_n(|r|/m) + n m |r|^(n-1)): an integer added to the same
    number, so a negative start fills no row of its own.  A nonzero
    remainder would contradict the theorem and raises, naming the (m, r, n)
    asked for.
    """
    if m < 1:
        raise ValueError(f"difference m must be >= 1, got {m}")
    if n < 1:
        raise ValueError(f"exponent n must be >= 1, got {n}")
    a = abs(r)
    last = cache._last_power_sum
    if last and last[0] == (m, a, n):
        num, den = last[1].nums[1], last[1].den
    else:
        g = gcd(a, m)
        values, dens = cache.row(n, a // g, m // g)
        num, den = g**n * values[n], dens[n]
    tnums, tdens = cache.row(n, 0)
    tden = tdens[n]
    scale = lcm(den, tden)
    here = num * (scale // den)
    if r < 0:
        here += n * m * a ** (n - 1) * scale
        if n % 2:
            here = -here
    value, rem = divmod(here - m**n * tnums[n] * (scale // tden), scale)
    if rem:
        raise TheoremViolationError(
            f"m^n(B_n(r/m) - B_n) non-integral at m={m}, r={r}, n={n}"
        )
    return AMInteger(m, r, n, value)
