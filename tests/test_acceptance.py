"""Acceptance suite: eleven headline guarantees, one verdict line each.

Every criterion prints `[criterion NN] PASS|FAIL <name> (<detail>)`; run with
``pytest tests/test_acceptance.py -s`` to watch the lines stream, or rely on
pytest's captured output otherwise.  All comparisons are bit-exact.
"""

import time

from powerdenom import (
    BernoulliCache,
    ProgressionSpec,
    RationalPoly,
    TheoremViolationError,
    full_denom,
    full_denom_direct,
    full_denom_quotient,
    nonconstant_denom,
    nonconstant_denom_direct,
    nonconstant_quotient,
    number_denom,
    number_denom_direct,
    power_sum_poly,
)
from powerdenom.cli import run_bench
from powerdenom.denom import full_denom_split_product, full_denom_via_successor
from powerdenom.verify import run_sweep

CACHE = BernoulliCache()

NONCONSTANT_1_21 = [1, 1, 2, 1, 6, 2, 6, 3, 10, 2, 6, 2, 210, 30, 6, 3, 30, 10, 210, 42, 330]
FULL_1_18 = [2, 6, 2, 30, 6, 42, 6, 30, 10, 66, 6, 2730, 210, 30, 6, 510, 30, 3990]
NUMBER_1_20 = [2, 6, 1, 30, 1, 42, 1, 30, 1, 66, 1, 2730, 1, 6, 1, 510, 1, 798, 1, 330]
NONCONSTANT_QUOT = [1, 2, 3, 2, 5, 3, 7, 2, 3, 5, 11, 1, 13, 7, 15, 2, 17, 3, 19, 5, 7]
FULL_QUOT = [3, 5, 7, 3, 11, 13, 5, 17, 19, 7, 23, 5, 3, 29, 31, 11, 35, 37]


def _report(num: int, name: str, ok: bool, detail: str = "") -> None:
    verdict = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[criterion {num:02d}] {verdict} {name}{suffix}")
    assert ok, f"criterion {num}: {name}{suffix}"


def test_criterion_01_printed_sequences():
    start = time.perf_counter()
    ok = (
        [nonconstant_denom(n).value for n in range(1, 22)] == NONCONSTANT_1_21
        and [full_denom(n).value for n in range(1, 19)] == FULL_1_18
        and [number_denom(n).value for n in range(1, 21)] == NUMBER_1_20
        and [nonconstant_quotient(n) for n in range(1, 42, 2)] == NONCONSTANT_QUOT
        and [full_denom_quotient(n) for n in range(2, 38, 2)] == FULL_QUOT
    )
    _report(1, "printed sequence fidelity", ok,
            f"5 lists, {time.perf_counter() - start:.2f}s")


def test_criterion_02_oracle_equivalence():
    start = time.perf_counter()
    problems = []
    for n in range(1, 301):
        if nonconstant_denom(n).value != nonconstant_denom_direct(CACHE, n):
            problems.append(("nonconstant", n))
        direct_full = full_denom_direct(CACHE, n)
        for variant in (full_denom, full_denom_via_successor, full_denom_split_product):
            if variant(n).value != direct_full:
                problems.append((variant.__name__, n))
        if number_denom(n).value != number_denom_direct(CACHE, n):
            problems.append(("number", n))
    _report(2, "formula equals rational oracle, n <= 300", not problems,
            f"{problems[:3] if problems else '5 comparisons per n'}, "
            f"{time.perf_counter() - start:.2f}s")


def test_criterion_03_power_sum_denominator_grid():
    rep = run_sweep("T2-denominator")
    _report(3, "power sum denominator theorem on the grid", rep.ok,
            f"{rep.range_label}, {rep.checked} cases, {rep.elapsed:.2f}s"
            + (f", first failure {rep.failures[0]}" if rep.failures else ""))


def test_criterion_04_integrality_equivalence_grid():
    rep = run_sweep("T3-integrality")
    _report(4, "integrality criterion on the extended grid", rep.ok,
            f"{rep.range_label}, {rep.checked} cases, {rep.elapsed:.2f}s"
            + (f", first failure {rep.failures[0]}" if rep.failures else ""))


def test_criterion_05_parity_law():
    rep = run_sweep("T1-parity")
    odd_indices = {n for n in range(1, 4097) if nonconstant_denom(n).value % 2}
    ok = rep.ok and odd_indices == {2**k for k in range(13)}
    _report(5, "odd nonconstant denominator exactly at powers of two", ok,
            f"n <= 4096, {len(odd_indices)} odd values, {rep.elapsed:.2f}s")


def test_criterion_06_nonconstant_quotient_specials():
    rep = run_sweep("T4-quotients")
    twos = {n for n in range(1, 8192, 2) if nonconstant_quotient(n) == 2}
    expected_twos = {2**k - 1 for k in range(2, 14)}
    stray_even = [
        n for n in range(1, 8192, 2)
        if n not in expected_twos and nonconstant_quotient(n) % 2 == 0
    ]
    ok = rep.ok and twos == expected_twos and not stray_even
    _report(6, "quotient = 2 exactly below powers of two, odd otherwise", ok,
            f"odd n <= 8191, twos at {sorted(twos)[:4]}..., {rep.elapsed:.2f}s")


def test_criterion_07_full_quotient_specials():
    rep = run_sweep("T5-quotients")
    special_bad = []
    for p in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31):
        pk = p
        while pk <= 8192:
            if full_denom_quotient(pk - 1) != p:
                special_bad.append((p, pk))
            pk *= p
    stray_even = [n for n in range(2, 8193, 2) if full_denom_quotient(n) % 2 == 0]
    ok = rep.ok and not special_bad and not stray_even
    _report(7, "full quotient = p below odd prime powers, always odd", ok,
            f"even n <= 8192, primes to 31, {rep.elapsed:.2f}s")


def test_criterion_08_scaled_difference_integrality():
    am = run_sweep("AM-integrality")
    cong = run_sweep("L1-congruence")
    ok = am.ok and cong.ok
    _report(8, "scaled differences integral with prime power divisibility", ok,
            f"{am.checked} + {cong.checked} cases, "
            f"{am.elapsed + cong.elapsed:.2f}s")


def test_criterion_09_evaluation_cross_check():
    start = time.perf_counter()
    mismatches = 0
    checked = 0
    for m in range(1, 13):
        for r in range(13):
            for n in range(1, 41):
                f = power_sum_poly(CACHE, ProgressionSpec(m, r, n))
                d = f.denominator
                scaled = [int(c * d) for c in f.coeffs]
                naive = 0
                for x in range(21):
                    acc = 0
                    for c in reversed(scaled):
                        acc = acc * x + c
                    checked += 1
                    if acc != d * naive:
                        mismatches += 1
                    naive += (x * m + r) ** n
    _report(9, "polynomial evaluation equals brute force summation",
            mismatches == 0,
            f"{checked} evaluations, {time.perf_counter() - start:.2f}s")


def test_criterion_10_worked_polynomials():
    start = time.perf_counter()
    worked = {
        (2, 0, 1): (0, -1, 1),
        (6, 0, 2): (0, 6, -18, 12),
        (2, 0, 3): (0, 0, 2, -4, 2),
        (30, 0, 4): (0, -27000, 0, 270000, -405000, 162000),
        (6, 0, 5): (0, 0, -648, 0, 3240, -3888, 1296),
        (2, 1, 1): (0, 0, 1),
        (6, 1, 2): (0, 1, -12, 12),
        (2, 1, 3): (0, 0, -1, 0, 2),
        (30, 1, 4): (0, -26159, 24360, 217800, -378000, 162000),
        (6, 1, 5): (0, -170, -273, 1200, 540, -2592, 1296),
    }
    bad = [
        spec
        for spec, coeffs in worked.items()
        if power_sum_poly(CACHE, ProgressionSpec(*spec)) != RationalPoly(coeffs)
    ]
    _report(10, "ten worked power sum polynomials reproduced", not bad,
            f"10 polynomials, {time.perf_counter() - start:.2f}s")


def test_criterion_11_bench_contract():
    start = time.perf_counter()
    details = []
    ok = True
    for seq_id in ("D", "DD", "DB", "DDQ", "DBQ"):
        try:
            formula_ns, oracle_ns = run_bench(seq_id, 1, 200, reps=1)
        except TheoremViolationError as exc:
            ok = False
            details.append(f"{seq_id} disagreement: {exc}")
            continue
        if formula_ns <= 0 or oracle_ns <= 0:
            ok = False
        details.append(f"{seq_id} {oracle_ns / max(formula_ns, 1):.0f}x")
    _report(11, "bench paths agree before timing, n <= 200", ok,
            ", ".join(details) + f", {time.perf_counter() - start:.2f}s")
