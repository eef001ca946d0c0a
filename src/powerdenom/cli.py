"""Command line front end.

Four subcommands: ``seq`` streams sequence values as CSV or OEIS b-file
lines, ``powersum`` prints one power sum polynomial with its denominator and
integrality verdict, ``verify`` runs a theorem sweep and reports failures,
``bench`` compares the closed-form path against the rational oracle.

Exit codes: 0 success, 1 a verification sweep found failures, 2 usage error,
3 an internal identity was violated (a bug, never bad input).
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import Callable, Optional, Sequence

from .bernoulli import BernoulliCache, RationalPoly
from .denom import (
    clear_formula_caches,
    full_denom,
    full_denom_direct,
    full_denom_quotient,
    nonconstant_denom,
    nonconstant_denom_direct,
    nonconstant_quotient,
    number_denom,
    number_denom_direct,
)
from .errors import TheoremViolationError
from .powersum import (
    ProgressionSpec,
    is_integral,
    power_sum_naive,
    power_sum_poly,
)
from .verify import available_sweeps, run_sweep, usable_cpus

# id -> (closed form, rational oracle, parity of the domain or None for all
# n >= 1).  The entries look their functions up in this module at call time,
# so a rebound name (a test's fake, a tracing wrapper) is the one called.
# The quotient oracles divide exactly: a denominator at n+1 that does not
# divide the one at n shows up as a disagreement, not as a floored integer.
SEQUENCES: dict[str, tuple[Callable, Callable, Optional[int]]] = {
    "D": (lambda n: number_denom(n).value, lambda c, n: number_denom_direct(c, n), None),
    "DD": (
        lambda n: nonconstant_denom(n).value,
        lambda c, n: nonconstant_denom_direct(c, n),
        None,
    ),
    "DB": (lambda n: full_denom(n).value, lambda c, n: full_denom_direct(c, n), None),
    "DDQ": (
        lambda n: nonconstant_quotient(n),
        lambda c, n: Fraction(
            nonconstant_denom_direct(c, n), nonconstant_denom_direct(c, n + 1)
        ),
        1,
    ),
    "DBQ": (
        lambda n: full_denom_quotient(n),
        lambda c, n: Fraction(full_denom_direct(c, n), full_denom_direct(c, n + 1)),
        0,
    ),
}


def indices(seq_id: str, lo: int, hi: int) -> range:
    """The n in lo..hi (lo >= 1) at which ``seq_id`` is defined."""
    parity = SEQUENCES[seq_id][2]
    if parity is None:
        return range(lo, hi + 1)
    return range(lo + (lo - parity) % 2, hi + 1, 2)


def _cmd_seq(args: argparse.Namespace) -> int:
    lo, hi = args.start, args.stop
    if lo < 1 or hi < lo:
        raise ValueError(f"need 1 <= from <= to, got {lo}..{hi}")
    formula, _, parity = SEQUENCES[args.seq_id]
    ns = indices(args.seq_id, lo, hi)
    sep = "," if args.format == "csv" else " "
    out = sys.stdout
    if args.format == "csv":
        out.write("n,a_n\n")
    for n in ns:
        out.write(f"{n}{sep}{formula(n)}\n")
    skipped = hi - lo + 1 - len(ns)
    if skipped:
        print(
            f"note: {args.seq_id} is defined for {'odd' if parity else 'even'} n; "
            f"skipped {skipped} other indices",
            file=sys.stderr,
        )
    return 0


@dataclass(frozen=True, slots=True)
class BenchRecord:
    """One timed comparison; only ever built after the equality pass."""

    sequence_id: str
    lo: int
    hi: int
    formula_ns: int
    oracle_ns: int

    @property
    def speedup(self) -> Fraction:
        """oracle time / formula time; how much the closed form saves."""
        return Fraction(self.oracle_ns, max(self.formula_ns, 1))


def run_bench(sequence_id: str, lo: int, hi: int, reps: int = 3) -> BenchRecord:
    """Verify the closed form and the oracle agree on [lo, hi], then time each.

    The contract comes before the stopwatch: both paths are compared value
    by value at every index of [lo, hi] where the sequence is defined, and a
    disagreement raises TheoremViolationError with nothing timed.  Timing is
    best-of-``reps`` wall clock.  Every repetition of either path starts with
    the memoized formula scans dropped and a fresh Bernoulli cache, so
    repetitions measure real work, not cache hits.
    """
    if sequence_id not in SEQUENCES:
        known = ", ".join(SEQUENCES)
        raise ValueError(f"unknown bench id {sequence_id!r} (known: {known})")
    if lo < 1 or hi < lo:
        raise ValueError(f"need 1 <= lo <= hi, got {lo}..{hi}")
    if reps < 1:
        raise ValueError(f"reps must be >= 1, got {reps}")
    formula, oracle, _ = SEQUENCES[sequence_id]
    ns = indices(sequence_id, lo, hi)
    if not ns:
        raise ValueError(f"{sequence_id} is defined at no n in {lo}..{hi}")

    cache = BernoulliCache()
    for n in ns:
        want = formula(n)
        got = oracle(cache, n)
        if want != got:
            raise TheoremViolationError(
                f"{sequence_id} paths disagree at n={n}: formula {want}, oracle {got}"
            )

    formula_ns = min(_time_ns(formula, ns) for _ in range(reps))
    oracle_ns = min(_time_ns(partial(oracle, BernoulliCache()), ns) for _ in range(reps))
    return BenchRecord(sequence_id, lo, hi, formula_ns, oracle_ns)


def _time_ns(path: Callable[[int], object], ns: range) -> int:
    clear_formula_caches()
    start = time.perf_counter_ns()
    for n in ns:
        path(n)
    return time.perf_counter_ns() - start


def _format_int_poly(coeffs: Sequence[int]) -> str:
    # ascending integer coefficients in, descending-power text out
    terms = []
    for e in range(len(coeffs) - 1, -1, -1):
        c = coeffs[e]
        if not c:
            continue
        mag = abs(c)
        if e == 0:
            body = str(mag)
        elif e == 1:
            body = "x" if mag == 1 else f"{mag}x"
        else:
            body = f"x^{e}" if mag == 1 else f"{mag}x^{e}"
        terms.append(("-" if c < 0 else "+", body))
    if not terms:
        return "0"
    head_sign, head = terms[0]
    text = ("-" if head_sign == "-" else "") + head
    for sign, body in terms[1:]:
        text += f" {sign} {body}"
    return text


def format_poly(f: RationalPoly) -> str:
    """Human form: integer polynomial, divided by its denominator if any."""
    if f.is_zero:
        return "0"
    d = f.denominator
    body = _format_int_poly([int(c * d) for c in f.coeffs])
    return body if d == 1 else f"({body})/{d}"


def _cmd_powersum(args: argparse.Namespace) -> int:
    if args.n == 0:
        # trivial sum of x ones; every theorem starts at n = 1
        if args.m < 1 or args.r < 0:
            raise ValueError("need m >= 1 and r >= 0")
        poly = RationalPoly((0, 1))
        integral = True
    else:
        spec = ProgressionSpec(args.m, args.r, args.n)
        poly = power_sum_poly(BernoulliCache(), spec)
        integral = is_integral(spec)
    print(f"power sum: m={args.m} r={args.r} n={args.n}")
    print(f"polynomial: {format_poly(poly)}")
    print("coefficients:", ", ".join(str(c) for c in poly.coeffs))
    print(f"denominator: {poly.denominator}")
    print(f"integral: {'yes' if integral else 'no'}")
    if args.x is not None:
        if args.x < 0:
            raise ValueError(f"need x >= 0, got {args.x}")
        via_poly = poly(args.x)
        if args.n == 0:
            naive = args.x
        else:
            naive = power_sum_naive(spec, args.x)
        print(f"value at x={args.x}: {via_poly}")
        print(f"naive sum: {naive}")
        if via_poly != naive:
            raise TheoremViolationError(
                f"polynomial and naive sum disagree at x={args.x}: "
                f"{via_poly} vs {naive}"
            )
        print("cross-check: match")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    report = run_sweep(
        args.theorem_id,
        max_n=args.max,
        m_max=args.m_max,
        r_max=args.r_max,
        jobs=args.jobs,
    )
    verdict = "PASS" if report.ok else f"FAIL ({len(report.failures)} failures)"
    print(f"{report.theorem_id}: {report.range_label}")
    print(f"checked {report.checked} cases in {report.elapsed:.2f}s: {verdict}")
    for inputs, expected, actual in report.failures:
        print(f"  input={inputs} expected={expected} actual={actual}")
    return 0 if report.ok else 1


def _parse_span(text: str) -> tuple[int, int]:
    lo, sep, hi = text.partition("..")
    if not sep:
        raise ValueError(f"range must look like LO..HI, got {text!r}")
    try:
        return int(lo), int(hi)
    except ValueError:
        raise ValueError(f"range must look like LO..HI, got {text!r}") from None


def _cmd_bench(args: argparse.Namespace) -> int:
    lo, hi = _parse_span(args.span)
    record = run_bench(args.sequence_id, lo, hi, reps=args.reps)
    print("id,lo,hi,formula_ns,oracle_ns,speedup")
    print(
        f"{record.sequence_id},{record.lo},{record.hi},"
        f"{record.formula_ns},{record.oracle_ns},{float(record.speedup):.2f}"
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="powerdenom",
        description=(
            "Denominators of power sums of arithmetic progressions and of "
            "Bernoulli polynomials: sequences, verification sweeps, benchmarks."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    seq = sub.add_parser(
        "seq", help="stream a denominator or quotient sequence"
    )
    seq.add_argument("seq_id", choices=tuple(SEQUENCES), help="sequence to emit")
    seq.add_argument("--from", dest="start", type=int, required=True, metavar="N")
    seq.add_argument("--to", dest="stop", type=int, required=True, metavar="N")
    seq.add_argument(
        "--format", choices=("csv", "bfile"), default="bfile",
        help="csv with header n,a_n or OEIS b-file lines (default)",
    )

    ps = sub.add_parser(
        "powersum",
        help="print one power sum polynomial exactly",
        description="n = 0 is allowed here and prints the trivial sum x.",
    )
    ps.add_argument("--m", type=int, required=True, help="common difference, >= 1")
    ps.add_argument("--r", type=int, required=True, help="first term, >= 0")
    ps.add_argument("--n", type=int, required=True, help="exponent, >= 0")
    ps.add_argument("--x", type=int, default=None, help="also evaluate at x terms")

    ver = sub.add_parser("verify", help="run one theorem sweep")
    ver.add_argument("theorem_id", choices=available_sweeps())
    ver.add_argument("--max", type=int, default=None, help="largest n")
    ver.add_argument("--m-max", type=int, default=None)
    ver.add_argument("--r-max", type=int, default=None)
    ver.add_argument(
        "--jobs", type=int, default=usable_cpus(),
        help="worker processes, at most the usable CPUs (default: all of them)",
    )

    bench = sub.add_parser(
        "bench", help="time formula vs. oracle after checking they agree"
    )
    bench.add_argument("sequence_id", choices=tuple(SEQUENCES))
    bench.add_argument("span", metavar="LO..HI", help="index range, e.g. 1..200")
    bench.add_argument("--reps", type=int, default=3, help="repetitions, best-of")

    return parser


_COMMANDS = {
    "seq": _cmd_seq,
    "powersum": _cmd_powersum,
    "verify": _cmd_verify,
    "bench": _cmd_bench,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return _COMMANDS[args.command](args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except TheoremViolationError as exc:
        print(f"internal invariant violated: {exc}", file=sys.stderr)
        return 3


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()
