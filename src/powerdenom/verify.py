"""Range sweeps that try to falsify the library's theorem-level claims.

Each sweep exhaustively checks one family of identities over a bounded grid
and counts every counterexample found; a count of zero is the whole point.
A report keeps the total and the first ``MAX_REPORTED_FAILURES``
counterexamples in axis order, so a sweep that fails everywhere still
returns and prints a bounded report.  Sweeps are embarrassingly parallel:
the outer axis is split into contiguous chunks, each worker owns a private
Bernoulli cache, and chunk results are merged in axis order so output is
deterministic regardless of worker count.

Sweep ids (each report's first line prints the bounds it ran with):

  T1-parity        nonconstant denominator odd exactly at powers of two
  T2-denominator   closed-form power sum denominator vs. the polynomial, the
                   same for every r, and differences across r in Z[x]
  T3-integrality   integrality flag vs. actual integer coefficients
  C2-relations     successor lcm laws, divisibility, radicals, evenness
  T4-quotients     nonconstant denominator quotients (odd n): the prime-set
                   form against exact division, then their structure
  T5-quotients     full denominator quotients (even n): the same
  L1-congruence    prime power divisibility of scaled differences at +r and -r
  AM-integrality   integrality of m^n(B_n(r/m) - B_n) over a signed grid
"""

from __future__ import annotations

import os
import time
from collections import namedtuple
from collections.abc import Callable
from itertools import zip_longest
from math import gcd, lcm

from .bernoulli import BernoulliCache
from .denom import (
    FULL_QUOTIENT_PARITY,
    NONCONSTANT_QUOTIENT_PARITY,
    full_denom,
    full_denom_quotient,
    full_denom_quotient_by_division,
    nonconstant_denom,
    nonconstant_quotient,
    nonconstant_quotient_by_division,
    parity_indices,
)
from .digits import factorize, p_valuation, primes_up_to, radical
from .errors import TheoremViolationError
from .limits import (
    MAX_GRID_CASES,
    MAX_GRID_M,
    MAX_GRID_R,
    MAX_GRID_WORK,
    MAX_SEQ_N,
    MAX_TABLE_N,
)
from .powersum import (
    ProgressionSpec,
    am_integer,
    is_integral,
    power_sum_denominator,
    power_sum_poly,
)

# (input tuple, expected, actual)
Failure = tuple[tuple, str, str]
ChunkResult = tuple[int, list[Failure]]

# The counterexamples a report keeps; it counts all of them.
MAX_REPORTED_FAILURES = 20


# a sweep's bounds: the largest n, and for a grid the largest m and r
Bounds = namedtuple("Bounds", "max_n m_max r_max", defaults=(None, None))


class SweepReport(namedtuple(
    "SweepReport", "theorem_id range_label checked failure_count failures elapsed"
)):
    # failures: the first MAX_REPORTED_FAILURES, in axis order
    __slots__ = ()

    @property
    def ok(self) -> bool:
        return not self.failure_count


def _parity_chunk(lo: int, hi: int, b: Bounds) -> ChunkResult:
    checked, failures = 0, []
    for n in range(lo, hi + 1):
        checked += 1
        got = nonconstant_denom(n).value % 2 == 1
        want = n & (n - 1) == 0
        if got != want:
            failures.append(((n,), f"odd={want}", f"odd={got}"))
    return checked, failures


def _denominator_chunk(lo: int, hi: int, b: Bounds) -> ChunkResult:
    # n innermost for each (m, r), so power_sum_poly reads the row of r/m at
    # n = 1 alone and carries every later polynomial from the one before; the
    # first r's denominator and numerators are kept per n for the others
    cache = BernoulliCache()
    envelopes = [(n + 1) * nonconstant_denom(n + 1).value for n in range(b.max_n + 1)]
    checked, failures = 0, []
    for m in range(lo, hi + 1):
        first = {}  # n -> (denominator, numerators)
        for r in range(b.r_max + 1):
            for n in range(1, b.max_n + 1):
                checked += 1
                spec = ProgressionSpec(m, r, n)
                formula = power_sum_denominator(spec)
                poly = power_sum_poly(cache, spec)
                if formula != poly.denominator:
                    failures.append(((m, r, n), str(formula), str(poly.denominator)))
                    continue
                seen = first.get(n)
                if seen is None:
                    first[n] = (formula, poly.nums)
                elif formula != seen[0]:
                    failures.append(
                        ((m, r, n), f"same for every r ({seen[0]})", str(formula))
                    )
                # one denominator d for every r: the difference from the first
                # r is in Z[x] exactly when d divides each numerator difference
                elif any(
                    (a - z) % formula
                    for a, z in zip_longest(poly.nums, seen[1], fillvalue=0)
                ):
                    failures.append(((m, r, n), "difference in Z[x]", "not"))
                if envelopes[n] % formula:
                    failures.append(
                        ((m, r, n), f"divisor of {envelopes[n]}", str(formula))
                    )
    return checked, failures


def _integrality_chunk(lo: int, hi: int, b: Bounds) -> ChunkResult:
    cache = BernoulliCache()
    checked, failures = 0, []
    for m in range(lo, hi + 1):
        for r in range(b.r_max + 1):
            for n in range(1, b.max_n + 1):
                checked += 1
                spec = ProgressionSpec(m, r, n)
                flag = is_integral(spec)
                actual = power_sum_poly(cache, spec).denominator == 1
                if flag != actual:
                    failures.append(
                        ((m, r, n), f"integral={flag}", f"integral={actual}")
                    )
    return checked, failures


def _relations_chunk(lo: int, hi: int, b: Bounds) -> ChunkResult:
    checked, failures = 0, []
    for n in range(lo, hi + 1):
        checked += 1
        rad_next = radical(n + 1)
        dd_here = nonconstant_denom(n).value
        db_here = full_denom(n).value
        if n % 2:
            succ = nonconstant_denom(n + 1).value
            if n >= 3 and dd_here != lcm(succ, rad_next.value):
                failures.append(((n,), f"lcm({succ}, {rad_next.value})", str(dd_here)))
            if dd_here % succ:
                failures.append(((n,), f"multiple of {succ}", str(dd_here)))
        else:
            succ = full_denom(n + 1).value
            if db_here != lcm(succ, rad_next.value):
                failures.append(((n,), f"lcm({succ}, {rad_next.value})", str(db_here)))
            if db_here % succ:
                failures.append(((n,), f"multiple of {succ}", str(db_here)))
        composite = len(rad_next.primes) > 1 or rad_next.value != n + 1
        if composite and not rad_next.divides(dd_here):
            failures.append(
                ((n,), f"divisible by rad(n+1)={rad_next.value}", str(dd_here))
            )
        if db_here % 2:
            failures.append(((n,), "even full denominator", str(db_here)))
    return checked, failures


def _quotient_against_division(
    n: int, quotient: Callable[[int], int], by_division: Callable[[int], int]
) -> tuple[int, Failure | None]:
    """The quotient at n, and the failure if exact division disagrees."""
    q = quotient(n)
    try:
        want = by_division(n)
    except TheoremViolationError as exc:
        return q, ((n,), "exact division", str(exc))
    return q, None if q == want else ((n,), f"{want} by division", str(q))


def _dd_quotient_chunk(lo: int, hi: int, b: Bounds) -> ChunkResult:
    checked, failures = 0, []
    for n in parity_indices(NONCONSTANT_QUOTIENT_PARITY, lo, hi):
        checked += 1
        q, failure = _quotient_against_division(
            n, nonconstant_quotient, nonconstant_quotient_by_division
        )
        if failure:
            failures.append(failure)
            continue
        if n >= 3 and (n + 1) & n == 0:
            if q != 2:
                failures.append(((n,), "2 at n = 2^k - 1", str(q)))
        elif q % 2 == 0:
            failures.append(((n,), "odd quotient", str(q)))
        fac = factorize(n + 1)
        if len(fac) == 2 and fac[0][0] == 2:
            # n + 1 = 2^l p^k with p an odd prime
            ell, p = fac[0][1], fac[1][0]
            if q not in (1, p):
                failures.append(((n,), f"in {{1, {p}}}", str(q)))
            elif (1 << ell) < p and q != p:
                failures.append(((n,), f"{p} when 2^l < p", str(q)))
    return checked, failures


def _db_quotient_chunk(lo: int, hi: int, b: Bounds) -> ChunkResult:
    checked, failures = 0, []
    for n in parity_indices(FULL_QUOTIENT_PARITY, lo, hi):
        checked += 1
        q, failure = _quotient_against_division(
            n, full_denom_quotient, full_denom_quotient_by_division
        )
        if failure:
            failures.append(failure)
            continue
        if q % 2 == 0:
            failures.append(((n,), "odd quotient", str(q)))
        fac = factorize(n + 1)
        if len(fac) == 1:
            p = fac[0][0]
            if q != p:
                failures.append(((n,), f"{p} at n = {p}^k - 1", str(q)))
        elif len(fac) == 2:
            p, qq = fac[0][0], fac[1][0]
            if q not in (1, p, qq, p * qq):
                failures.append(((n,), f"in {{1, {p}, {qq}, {p * qq}}}", str(q)))
    return checked, failures


def _congruence_chunk(lo: int, hi: int, b: Bounds) -> ChunkResult:
    # p^e divides m^n(B_n(r/m) - B_n) for each prime p not dividing m and
    # 1 <= e <= v_p(n); e starts at 1, since p^0 divides every value and a
    # case with e = 0 would check nothing.  One am_integer per (m, r, n)
    # that has such a p^e, tested against each of them.
    cache = BernoulliCache()
    small_primes = primes_up_to(13)
    checked, failures = 0, []
    for m in range(lo, hi + 1):
        usable = [p for p in small_primes if m % p]
        powers = [
            (n, [(p, e) for p in usable for e in range(1, p_valuation(p, n) + 1)])
            for n in range(1, b.max_n + 1)
        ]
        powers = [(n, pe) for n, pe in powers if pe]
        if not powers:
            continue
        for r in range(-b.r_max, b.r_max + 1):
            g = gcd(r, m)
            # the row am_integer reads at every n, filled to the top at once
            cache.row(powers[-1][0], abs(r) // g, m // g)
            for n, pe in powers:
                value = am_integer(cache, m, r, n).value
                for p, e in pe:
                    checked += 1
                    if value % p**e:
                        failures.append(((m, r, n, p, e), f"divisible by {p}^{e}", "not"))
    return checked, failures


def _am_chunk(lo: int, hi: int, b: Bounds) -> ChunkResult:
    cache = BernoulliCache()
    checked, failures = 0, []
    for m in range(lo, hi + 1):
        for r in range(-b.r_max, b.r_max + 1):
            g = gcd(r, m)
            # the row am_integer reads at every n, filled to the top at once;
            # at r = 0 it is the table
            cache.row(b.max_n, abs(r) // g, m // g)
            for n in range(1, b.max_n + 1):
                checked += 1
                try:
                    am_integer(cache, m, r, n)
                except TheoremViolationError as exc:
                    failures.append(((m, r, n), "integer", str(exc)))
    return checked, failures


# id -> (chunk, default bounds, report label formatted with the bounds as
# b).  A sweep is a grid over (m, r, n) exactly when its defaults set m_max.
_SWEEPS: dict[str, tuple[Callable[[int, int, Bounds], ChunkResult], Bounds, str]] = {
    "T1-parity": (_parity_chunk, Bounds(4096), "n <= {b.max_n}"),
    "T2-denominator": (
        _denominator_chunk, Bounds(60, m_max=30, r_max=3),
        "m <= {b.m_max}, r <= {b.r_max}, n <= {b.max_n}",
    ),
    "T3-integrality": (
        _integrality_chunk, Bounds(60, m_max=60, r_max=3),
        "m <= {b.m_max}, r <= {b.r_max}, n <= {b.max_n}",
    ),
    "C2-relations": (_relations_chunk, Bounds(2000), "n <= {b.max_n}"),
    "T4-quotients": (_dd_quotient_chunk, Bounds(8191), "n <= {b.max_n}"),
    "T5-quotients": (_db_quotient_chunk, Bounds(8192), "n <= {b.max_n}"),
    "L1-congruence": (
        _congruence_chunk, Bounds(60, m_max=20, r_max=20),
        "m <= {b.m_max}, |r| <= {b.r_max}, n <= {b.max_n}, p <= 13",
    ),
    "AM-integrality": (
        _am_chunk, Bounds(80, m_max=40, r_max=40),
        "m <= {b.m_max}, |r| <= {b.r_max}, n <= {b.max_n}",
    ),
}


def available_sweeps() -> tuple[str, ...]:
    return tuple(_SWEEPS)


def usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the OS has one."""
    affinity = getattr(os, "sched_getaffinity", None)
    return len(affinity(0)) if affinity else os.cpu_count() or 1


def _chunk_entry(args: tuple[str, int, int, Bounds]) -> tuple[int, int, list[Failure]]:
    """(checked, failure count, the first failures) of one chunk."""
    theorem_id, lo, hi, bounds = args
    checked, failures = _SWEEPS[theorem_id][0](lo, hi, bounds)
    return checked, len(failures), failures[:MAX_REPORTED_FAILURES]


def run_sweep(
    theorem_id: str,
    max_n: int | None = None,
    m_max: int | None = None,
    r_max: int | None = None,
    jobs: int = 1,
) -> SweepReport:
    """Run one sweep, optionally overriding its default bounds.

    A sweep over n alone takes only ``max_n``, at most ``MAX_SEQ_N``; a grid
    sweep takes ``max_n`` up to ``MAX_TABLE_N``, and also ``m_max`` and
    ``r_max`` up to ``MAX_GRID_M`` and ``MAX_GRID_R``, with at most
    ``MAX_GRID_CASES`` cases m_max * (r_max + 1) * max_n and at most
    ``MAX_GRID_WORK`` work m_max * (r_max + 1) * max_n**3.  Bounds past
    those, or that hold no case, are rejected with ValueError, the upper
    ones before any Bernoulli number or sieve is computed.
    ``jobs`` > 1 partitions the outer axis (m for a grid, n otherwise) over
    a process pool of at most ``jobs`` workers, and never more than the CPUs
    this process may use; results are identical to the inline run, only
    faster.
    """
    if theorem_id not in _SWEEPS:
        known = ", ".join(_SWEEPS)
        raise ValueError(f"unknown sweep id {theorem_id!r} (known: {known})")
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    _, defaults, label = _SWEEPS[theorem_id]
    grid = defaults.m_max is not None
    if not grid and (m_max is not None or r_max is not None):
        raise ValueError(f"{theorem_id} sweeps n only; it takes no m or r bound")
    given = {"max_n": max_n, "m_max": m_max, "r_max": r_max}
    bounds = defaults._replace(**{k: v for k, v in given.items() if v is not None})
    axes = [("n", bounds.max_n, 1, MAX_TABLE_N if grid else MAX_SEQ_N)]
    if grid:
        axes += [("m", bounds.m_max, 1, MAX_GRID_M), ("r", bounds.r_max, 0, MAX_GRID_R)]
    for axis, top, least, most in axes:
        if top < least:
            raise ValueError(f"max {axis} must be >= {least}, got {top}")
        if top > most:
            raise ValueError(f"{theorem_id} takes {axis} <= {most}, got {top}")
    if grid:
        cases = bounds.m_max * (bounds.r_max + 1) * bounds.max_n
        if cases > MAX_GRID_CASES:
            raise ValueError(
                f"{theorem_id} takes m*(r+1)*n <= {MAX_GRID_CASES} cases, got {cases}"
            )
        work = cases * bounds.max_n**2
        if work > MAX_GRID_WORK:
            raise ValueError(
                f"{theorem_id} takes m*(r+1)*n^3 <= {MAX_GRID_WORK} work, got {work}"
            )
    # a fork-started pool launches all its workers up front
    jobs = min(jobs, usable_cpus())

    hi = bounds.m_max if grid else bounds.max_n
    start = time.perf_counter()
    if jobs == 1 or hi <= 1:
        parts = [_chunk_entry((theorem_id, 1, hi, bounds))]
    else:
        # imported here: loading the pool pulls in multiprocessing, which an
        # inline sweep, and every other command, never needs
        from concurrent.futures import ProcessPoolExecutor

        spans = _split_span(hi, jobs * 4)
        args = [(theorem_id, a, z, bounds) for a, z in spans]
        with ProcessPoolExecutor(max_workers=min(jobs, len(spans))) as pool:
            parts = list(pool.map(_chunk_entry, args))
    elapsed = time.perf_counter() - start
    label = label.format(b=bounds)
    checked = sum(c for c, _, _ in parts)
    if not checked:
        raise ValueError(f"{theorem_id} has no case with {label}")
    count = sum(k for _, k, _ in parts)
    sample = [f for _, _, fs in parts for f in fs][:MAX_REPORTED_FAILURES]
    return SweepReport(theorem_id, label, checked, count, tuple(sample), elapsed)


def _split_span(hi: int, parts: int) -> list[tuple[int, int]]:
    """Contiguous near-equal subranges covering [1, hi], in order."""
    parts = max(1, min(parts, hi))
    size, extra = divmod(hi, parts)
    spans = []
    a = 1
    for i in range(parts):
        z = a + size - 1 + (1 if i < extra else 0)
        spans.append((a, z))
        a = z + 1
    return spans
