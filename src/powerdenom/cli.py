"""Command line front end.

Four subcommands: ``seq`` streams sequence values as CSV or OEIS b-file
lines, ``powersum`` prints one power sum polynomial with its denominator and
integrality verdict, ``verify`` runs a theorem sweep and reports failures,
``bench`` compares the closed-form path against the rational oracle.

``main`` reads the documented ``seq`` query, ``seq ID --from A --to B``
with an optional ``--format bfile|csv`` and A, B plain ASCII digits,
without argparse (``_documented_seq``): for such an argv it builds and runs
no parser and does not import argparse, and it prints, refuses and exits as
argparse's reading followed by ``seq`` would.  Every other argv goes to
argparse.  Each command adds its arguments in one function
(``_seq_arguments`` and so on).  ``main`` parses an argv that starts with a
command name with that command's own parser, built the first time the
command runs in the process, so a query is one argparse pass.  Any other
argv (``--help``, no command, an unknown command) goes to ``build_parser``,
the whole tree, which the same functions fill.  The one visible difference:
unrecognized arguments are reported under the command's usage line, not
under ``powerdenom``'s.

``run_bench`` returns the two timings as ints, and ``bench`` prints their
ratio.  The input bounds (``MAX_TABLE_N`` and the rest) are defined in
``limits`` and imported here; ``seq``, ``powersum`` and ``bench`` check
theirs, and ``verify`` leaves its bounds to ``run_sweep``.  The ``verify``
module is imported only by the functions of that command, so a query by
any other command never loads it.  Integers are the
only internal form of a rational; the DDQ and DBQ oracles alone build a
``Fraction``, so that an inexact quotient compares unequal to the formula.

Exit codes: 0 success, 1 a verification sweep found failures, 2 usage error,
3 an internal identity was violated (a bug, never bad input).
"""

from __future__ import annotations

import sys
import time
from collections.abc import Callable, Sequence
from fractions import Fraction
from functools import cache, partial

from .bernoulli import BernoulliCache, RationalPoly
from .denom import (
    FULL_QUOTIENT_PARITY,
    MEMO_BOUND,
    NONCONSTANT_QUOTIENT_PARITY,
    clear_formula_caches,
    fill_nonconstant_memo,
    fill_number_memo,
    fill_quotient_memo,
    full_denom,
    full_denom_direct,
    full_denom_quotient,
    nonconstant_denom,
    nonconstant_denom_direct,
    nonconstant_quotient,
    number_denom,
    number_denom_direct,
    parity_indices,
)
from .errors import TheoremViolationError
from .limits import (
    MAX_GRID_CASES,
    MAX_GRID_M,
    MAX_GRID_R,
    MAX_GRID_WORK,
    MAX_POWERSUM_X,
    MAX_SEQ_N,
    MAX_TABLE_N,
)
from .powersum import (
    ProgressionSpec,
    is_integral,
    power_sum_naive,
    power_sum_poly,
)

# id -> (closed form, rational oracle, parity of the domain or None for all
# n >= 1, the memo fills of the closed form), for the ids of the table of
# sequences in README.md, which says what each one is.  The closed forms and
# oracles look their functions up in this module at call time, so a rebound
# name (a test's fake, a tracing wrapper) is the one called.  The fills only
# store values the closed forms then read: D reads the number memo, DD the
# nonconstant memo, DB both, and the quotients the quotient memo, which one
# fill stores at both parities, so a DBQ range reuses a DDQ range's scan.
# The quotient oracles divide exactly: a denominator at n+1 that does not
# divide the one at n shows up as a disagreement, not as a floored integer.
SEQUENCES: dict[str, tuple[Callable, Callable, int | None, tuple[Callable, ...]]] = {
    "D": (
        lambda n: number_denom(n).value,
        lambda c, n: number_denom_direct(c, n),
        None,
        (fill_number_memo,),
    ),
    "DD": (
        lambda n: nonconstant_denom(n).value,
        lambda c, n: nonconstant_denom_direct(c, n),
        None,
        (fill_nonconstant_memo,),
    ),
    "DB": (
        lambda n: full_denom(n).value,
        lambda c, n: full_denom_direct(c, n),
        None,
        (fill_nonconstant_memo, fill_number_memo),
    ),
    "DDQ": (
        lambda n: nonconstant_quotient(n),
        lambda c, n: Fraction(
            nonconstant_denom_direct(c, n), nonconstant_denom_direct(c, n + 1)
        ),
        NONCONSTANT_QUOTIENT_PARITY,
        (fill_quotient_memo,),
    ),
    "DBQ": (
        lambda n: full_denom_quotient(n),
        lambda c, n: Fraction(full_denom_direct(c, n), full_denom_direct(c, n + 1)),
        FULL_QUOTIENT_PARITY,
        (fill_quotient_memo,),
    ),
}

# memo fill -> the fewest indices of a segment for which ``seq`` runs that
# fill; a shorter segment, such as a single-term query or the tail of a long
# range, reads that memo's values from the per-index path, so a DB segment
# of 12 to 319 indices fills DD's memo alone.  At n in [10^5, 10^6] each
# fill catches up with the per-index path near its length here: a short
# segment's cost is its loop over the primes or divisors up to sqrt(hi):
# about 1.6 to 2 ms for DD's against 150 to 170 us per index, 0.2 ms for
# the quotients' against 10 us, and 1 to 2 ms for D's against 7 us.
SEGMENT_MIN_TERMS = {
    fill_nonconstant_memo: 12,
    fill_number_memo: 320,
    fill_quotient_memo: 32,
}
# Segments hold at most half the memo bound, so filling one never evicts
# the values the segment is about to print: a quotient segment of
# SEGMENT_TERMS indices of one parity spans 2*SEGMENT_TERMS - 1 = 4095
# values of n, all of them stored, which is still within the bound.
SEGMENT_TERMS = MEMO_BOUND // 2


def indices(seq_id: str, lo: int, hi: int) -> range:
    """The n in lo..hi (lo >= 1) at which ``seq_id`` is defined."""
    return parity_indices(SEQUENCES[seq_id][2], lo, hi)


def _seq(seq_id: str, lo: int, hi: int, fmt: str) -> int:
    if lo < 1 or hi < lo:
        raise ValueError(f"need 1 <= from <= to, got {lo}..{hi}")
    if hi > MAX_SEQ_N:
        raise ValueError(f"seq takes n <= {MAX_SEQ_N}, got {hi}")
    formula, _, parity, fills = SEQUENCES[seq_id]
    ns = indices(seq_id, lo, hi)
    sep = "," if fmt == "csv" else " "

    def too_long(n: int) -> ValueError:
        # str() of an int past the interpreter's digit limit, which is
        # process-wide, as in ``powersum``
        return ValueError(
            f"{seq_id}({n}) is longer than Python's "
            f"{sys.get_int_max_str_digits()}-digit limit for int-to-str "
            "conversion; the lines before it are printed"
        )

    out = sys.stdout
    if fmt == "csv":
        out.write("n,a_n\n")
    for start in range(0, len(ns), SEGMENT_TERMS):
        segment = ns[start : start + SEGMENT_TERMS]
        # the first line is formatted before the fills, by the per-index
        # path, so a first value past the digit limit stops before any scan
        n = segment[0]
        value = formula(n)
        try:
            first = f"{n}{sep}{value}\n"
        except ValueError:
            raise too_long(n) from None
        for fill in fills:
            if len(segment) >= SEGMENT_MIN_TERMS[fill]:
                fill(n, segment[-1])
        out.write(first)
        for n in segment[1:]:
            value = formula(n)
            try:
                line = f"{n}{sep}{value}\n"
            except ValueError:
                raise too_long(n) from None
            out.write(line)
    skipped = hi - lo + 1 - len(ns)
    if skipped:
        print(
            f"note: {seq_id} is defined for {'odd' if parity else 'even'} n; "
            f"skipped {skipped} other {'index' if skipped == 1 else 'indices'}",
            file=sys.stderr,
        )
    return 0


def _cmd_seq(args: argparse.Namespace) -> int:
    return _seq(args.seq_id, args.start, args.stop, args.format)


def run_bench(sequence_id: str, lo: int, hi: int, reps: int = 3) -> tuple[int, int]:
    """Verify the closed form and the oracle agree on [lo, hi], then time each;
    return (formula_ns, oracle_ns).

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
    if hi > MAX_TABLE_N:
        raise ValueError(f"bench takes n <= {MAX_TABLE_N}, got {hi}")
    if reps < 1:
        raise ValueError(f"reps must be >= 1, got {reps}")
    formula, oracle, _, _ = SEQUENCES[sequence_id]
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
    return formula_ns, oracle_ns


def _time_ns(path: Callable[[int], object], ns: range) -> int:
    clear_formula_caches()
    start = time.perf_counter_ns()
    for n in ns:
        path(n)
    return time.perf_counter_ns() - start


def format_poly(f: RationalPoly) -> str:
    """Human form of a power sum, highest power first: the integer
    polynomial, divided by its denominator if that is not 1.

    A power sum has degree n + 1 >= 1, a positive leading coefficient and
    constant term 0, so every term printed is c x^e with e >= 1, and only
    the terms after the first carry a sign; ``--n 0`` prints ``x``.
    """
    terms = []
    for e in range(len(f.nums) - 1, 0, -1):
        c = f.nums[e]
        if c:
            mag = "" if abs(c) == 1 else abs(c)
            power = "x" if e == 1 else f"x^{e}"
            terms.append(f"{'-' if c < 0 else '+'} {mag}{power}")
    text = " ".join(terms).removeprefix("+ ")
    return text if f.den == 1 else f"({text})/{f.den}"


def _cmd_powersum(args: argparse.Namespace) -> int:
    if args.n > MAX_TABLE_N:
        raise ValueError(f"powersum takes n <= {MAX_TABLE_N}, got {args.n}")
    if args.x is not None and args.x < 0:
        raise ValueError(f"need x >= 0, got {args.x}")
    if args.x is not None and args.x > MAX_POWERSUM_X:
        raise ValueError(f"powersum takes x <= {MAX_POWERSUM_X}, got {args.x}")
    limit = sys.get_int_max_str_digits()

    def too_long() -> ValueError:
        # str() of an int past the interpreter's digit limit; raising that
        # limit would change it for every other user of this process
        return ValueError(
            f"powersum output for m={args.m} r={args.r} n={args.n} holds an "
            f"integer longer than Python's {limit}-digit limit for int-to-str "
            "conversion"
        )

    if args.n == 0:
        # trivial sum of x ones; every theorem starts at n = 1
        if args.m < 1 or args.r < 0:
            raise ValueError("need m >= 1 and r >= 0")
        poly = RationalPoly((0, 1))
        integral = True
    else:
        spec = ProgressionSpec(args.m, args.r, args.n)
        # some printed int is at least top^n / (n + 1): the leading numerator
        # is den m^n / (n + 1), the numerators sum to den S(1) = den r^n, and
        # S(x) >= ((x - 1) m + r)^n.  With b the bit length of top, the output
        # is refused before any work once top^n >= 2^(n (b - 1)) >= 2^bits >
        # (n + 1) 10^limit, so m^n is never built.  A limit of 0 is none
        top = max(args.m, args.r)
        if args.x:
            top = max(top, (args.x - 1) * args.m + args.r)
        bits = (args.n + 1).bit_length() + (10**limit).bit_length()
        if limit and args.n * (top.bit_length() - 1) >= bits:
            raise too_long()
        poly = power_sum_poly(BernoulliCache(), spec)
        integral = is_integral(spec)
    if args.x is not None:
        via_poly = poly(args.x)
        naive = args.x if args.n == 0 else power_sum_naive(spec, args.x)
        if via_poly != naive:
            raise TheoremViolationError(
                f"polynomial and naive sum disagree at m={args.m}, r={args.r}, "
                f"n={args.n}, x={args.x}: {via_poly} vs {naive}"
            )
    # every line is formatted before any is written, so a failure leaves
    # stdout empty
    try:
        lines = [
            f"power sum: m={args.m} r={args.r} n={args.n}",
            f"polynomial: {format_poly(poly)}",
            "coefficients: " + ", ".join(str(c) for c in poly.coeffs),
            f"denominator: {poly.denominator}",
            f"integral: {'yes' if integral else 'no'}",
        ]
        if args.x is not None:
            lines += [
                f"value at x={args.x}: {via_poly}",
                f"naive sum: {naive}",
                "cross-check: match",
            ]
    except ValueError:
        raise too_long() from None
    print("\n".join(lines))
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    from .verify import run_sweep

    report = run_sweep(
        args.theorem_id,
        max_n=args.max,
        m_max=args.m_max,
        r_max=args.r_max,
        jobs=args.jobs,
    )
    verdict = "PASS" if report.ok else f"FAIL ({report.failure_count} failures)"
    print(f"{report.theorem_id}: {report.range_label}")
    print(f"checked {report.checked} cases in {report.elapsed:.2f}s: {verdict}")
    for inputs, expected, actual in report.failures:
        print(f"  input={inputs} expected={expected} actual={actual}")
    unshown = report.failure_count - len(report.failures)
    if unshown:
        print(f"  ... {unshown} more")
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
    formula_ns, oracle_ns = run_bench(args.sequence_id, lo, hi, reps=args.reps)
    # speedup: oracle time over formula time, how much the closed form saves
    print("id,lo,hi,formula_ns,oracle_ns,speedup")
    print(
        f"{args.sequence_id},{lo},{hi},"
        f"{formula_ns},{oracle_ns},{oracle_ns / max(formula_ns, 1):.2f}"
    )
    return 0


def _seq_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("seq_id", choices=tuple(SEQUENCES), help="sequence to emit")
    parser.add_argument("--from", dest="start", type=int, required=True, metavar="N")
    parser.add_argument(
        "--to", dest="stop", type=int, required=True, metavar="N",
        help=f"last index, at most {MAX_SEQ_N}",
    )
    parser.add_argument(
        "--format", choices=("csv", "bfile"), default="bfile",
        help="csv with header n,a_n or OEIS b-file lines (default)",
    )


def _documented_seq(argv: list[str]) -> tuple[str, int, int, str] | None:
    # (id, from, to, format) of the documented form ``seq ID --from A --to B``
    # with an optional ``--format bfile|csv``, read without argparse; None for
    # any other argv, which then goes to argparse as before.  A and B must be
    # ASCII digits, not anything int() takes: argparse reads a value such as
    # -1_0 as an option, so a query it would refuse is always left to it
    if len(argv) == 6:
        fmt = "bfile"
    elif len(argv) == 8 and argv[6] == "--format" and argv[7] in ("bfile", "csv"):
        fmt = argv[7]
    else:
        return None
    command, seq_id, from_flag, lo, to_flag, hi = argv[:6]
    if (command, from_flag, to_flag) != ("seq", "--from", "--to") or seq_id not in SEQUENCES:
        return None
    if not (lo.isascii() and lo.isdigit() and hi.isascii() and hi.isdigit()):
        return None
    try:
        return seq_id, int(lo), int(hi), fmt
    except ValueError:  # longer than the interpreter's int digit limit
        return None


def _powersum_arguments(parser: argparse.ArgumentParser) -> None:
    parser.description = "n = 0 is allowed here and prints the trivial sum x."
    parser.add_argument("--m", type=int, required=True, help="common difference, >= 1")
    parser.add_argument("--r", type=int, required=True, help="first term, >= 0")
    parser.add_argument(
        "--n", type=int, required=True, help=f"exponent, 0 <= n <= {MAX_TABLE_N}"
    )
    parser.add_argument(
        "--x", type=int, default=None,
        help=f"also evaluate at x terms and cross-check, 0 <= x <= {MAX_POWERSUM_X}",
    )


def _verify_arguments(parser: argparse.ArgumentParser) -> None:
    from .verify import available_sweeps, usable_cpus

    parser.add_argument("theorem_id", choices=available_sweeps())
    parser.add_argument(
        "--max", type=int, default=None,
        help=f"largest n: at most {MAX_TABLE_N} for a grid sweep over (m, r, n), "
        f"with m*(r+1)*n at most {MAX_GRID_CASES} and m*(r+1)*n^3 at most "
        f"{MAX_GRID_WORK}; {MAX_SEQ_N} for a sweep over n",
    )
    parser.add_argument("--m-max", type=int, help=f"largest m (grid sweeps), at most {MAX_GRID_M}")
    parser.add_argument("--r-max", type=int, help=f"largest r (grid sweeps), at most {MAX_GRID_R}")
    parser.add_argument(
        "--jobs", type=int, default=usable_cpus(),
        help="worker processes, at most the usable CPUs (default: all of them)",
    )


def _bench_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("sequence_id", choices=tuple(SEQUENCES))
    parser.add_argument(
        "span", metavar="LO..HI", help=f"index range, e.g. 1..200; HI <= {MAX_TABLE_N}"
    )
    parser.add_argument("--reps", type=int, default=3, help="repetitions, best-of")


# command -> (its line in ``powerdenom --help``, the function that adds its
# arguments to a parser, the function that runs it on the parsed arguments)
_COMMANDS: dict[str, tuple[str, Callable[[argparse.ArgumentParser], None], Callable]] = {
    "seq": ("stream a denominator or quotient sequence", _seq_arguments, _cmd_seq),
    "powersum": (
        "print one power sum polynomial exactly", _powersum_arguments, _cmd_powersum
    ),
    "verify": ("run one theorem sweep", _verify_arguments, _cmd_verify),
    "bench": (
        "time formula vs. oracle after checking they agree", _bench_arguments, _cmd_bench
    ),
}


def build_parser() -> argparse.ArgumentParser:
    """The whole command tree: every command as a subparser of ``powerdenom``.

    ``main`` parses with it only an argv that names no command, such as
    ``--help``, an empty one or an unknown command.
    """
    import argparse

    parser = argparse.ArgumentParser(
        prog="powerdenom",
        description=(
            "Denominators of power sums of arithmetic progressions and of "
            "Bernoulli polynomials: sequences, verification sweeps, benchmarks."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_line, add_arguments, _) in _COMMANDS.items():
        add_arguments(sub.add_parser(name, help=help_line))
    return parser


# The parser of one command alone, built the first time that command runs
# in this process: a query then pays for one argparse pass over its own
# arguments, not for the whole tree and a second pass at the top level.
@cache
def _command_parser(name: str) -> argparse.ArgumentParser:
    import argparse

    parser = argparse.ArgumentParser(prog=f"powerdenom {name}")
    _COMMANDS[name][1](parser)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    query = _documented_seq(argv)
    if query is not None:
        command, inputs = _seq, query
    else:
        try:
            if argv and argv[0] in _COMMANDS:
                args = _command_parser(argv[0]).parse_args(argv[1:])
                args.command = argv[0]
            else:
                args = build_parser().parse_args(argv)
        except SystemExit as exc:
            return exc.code if isinstance(exc.code, int) else 2
        command, inputs = _COMMANDS[args.command][2], (args,)
    try:
        return command(*inputs)
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
