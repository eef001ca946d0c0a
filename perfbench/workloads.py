"""The benchmark's four workloads: seeded inputs, the timed pass, the checks.

Each workload stresses a different layer of the package:

bfile   ``cli.main(["seq", id, "--from", "1", "--to", N])`` for D, DD, DB,
        DDQ and DBQ in turn, stdout captured in memory: the common OEIS
        b-file use.  Only here are the ``denom`` memos reused heavily (DB,
        DDQ and DBQ reuse DD at the same and adjacent n); the digit-sum scan
        grows about quadratically and ``bernoulli`` is never touched.  An
        item is one line written, timed as the gap since the previous line.
        A b-file's input is fixed, so the seed is unused.
sparse  single-term ``cli.main`` queries at distinct indices of the band
        [10^5, 3*10^5).  The band is cut into one stratum per query, queries
        take the five ids in turn, and the seed draws the index inside each
        stratum, so every seed asks for the same mix of work.  Queries run
        from the top of the band down: the sieve cache grows by doubling,
        so a seeded order would make peak memory depend on the order of the
        first few queries.  There is almost no memo reuse; the sieve and the
        per-term scan at large n set latency and memory.  The band stops at
        3*10^5 because queries of several milliseconds each took their best
        times less reliably on a shared host than shorter ones.
oracle  formula against rational oracle for D, DD and DB at every n in
        1..N with a fresh ``BernoulliCache``; the seed sets the visiting
        order.  Grows the Bernoulli table and builds polynomials of large
        degree; the digit-sum scan is negligible at this n.
grid    one r in 0..3 for each m in 1..M, every r equally often, the seed
        choosing which m gets which r and the order of the pairs; each pair
        is checked at every n in 1..60, as the sweeps traverse their grids:
        polynomial denominator against ``power_sum_denominator``,
        ``is_integral`` against it, and ``am_integer`` at +r and -r.  Reads
        the cache ``oracle`` grows (``value_at`` memo hits, scaled numbers)
        with the table only at 61.

Correctness is checked outside the stopwatch.  ``oracle`` and ``grid``
compare two paths inside each item, since the comparison is the workload.
``bfile`` and ``sparse`` values are checked after the timed pass against
the unbounded prime scan, the two other closed forms of the full
denominator, von Staudt-Clausen by divisor enumeration, and, for the
b-file prefix, the printed OEIS terms and the rational oracle.  ``grid``'s
``am_integer`` values are checked after the timed pass against
m^n (B_n(+-r/m) - B_n) evaluated by Horner's rule in a fresh cache.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import random
import time
import traceback

IDS = ("D", "DD", "DB", "DDQ", "DBQ")

# Default size of one repetition: N for bfile and oracle, the query count
# for sparse, the number of (m, r) pairs for grid.  bfile's 8,000 lines put
# its tail at p99.5, the 41st slowest line, among the lines near n = N.
# From 10,000 lines on the tail moves to p99.9 and lands among the dozen or
# so exceptional lines (each sequence's first, those that grow the sieve),
# whose times moved by up to 25% between runs of the same code.
SIZES = {"bfile": 2000, "sparse": 100, "oracle": 300, "grid": 20}
WORKLOADS = tuple(SIZES)

SPARSE_BAND = (100_000, 300_000)
GRID_N_MAX = 60
GRID_R_MAX = 3
ORACLE_PREFIX = 60  # bfile terms also checked against the rational oracle

# (first n, step, printed terms): A027642, A195441, A144845, then A286516 at
# odd n and A286517 at even n; the same values the acceptance suite checks.
FIXTURES = {
    "D": (1, 1, [2, 6, 1, 30, 1, 42, 1, 30, 1, 66, 1, 2730, 1, 6, 1, 510, 1, 798, 1, 330]),
    "DD": (1, 1, [1, 1, 2, 1, 6, 2, 6, 3, 10, 2, 6, 2, 210, 30, 6, 3, 30, 10, 210, 42, 330]),
    "DB": (1, 1, [2, 6, 2, 30, 6, 42, 6, 30, 10, 66, 6, 2730, 210, 30, 6, 510, 30, 3990]),
    "DDQ": (1, 2, [1, 2, 3, 2, 5, 3, 7, 2, 3, 5, 11, 1, 13, 7, 15, 2, 17, 3, 19, 5, 7]),
    "DBQ": (2, 2, [3, 5, 7, 3, 11, 13, 5, 17, 19, 7, 23, 5, 3, 29, 31, 11, 35, 37]),
}


def indices(seq_id: str, lo: int, hi: int) -> range:
    """The n in lo..hi at which ``seq_id`` is defined (quotients: one parity)."""
    if seq_id == "DDQ":
        return range(lo | 1, hi + 1, 2)
    if seq_id == "DBQ":
        return range(max(lo + lo % 2, 2), hi + 1, 2)
    return range(lo, hi + 1)


def make_inputs(workload: str, seed: int, size: int | None = None) -> list[tuple]:
    """The generated input list of one workload; the same seed, the same list."""
    size = SIZES[workload] if size is None else size
    rng = random.Random(seed)
    if workload == "bfile":
        return [(seq_id, 1, size) for seq_id in IDS]
    if workload == "sparse":
        lo, hi = SPARSE_BAND
        width = (hi - lo) // size
        queries = []
        for i in range(size):
            seq_id = IDS[i % len(IDS)]
            n = lo + i * width + rng.randrange(width - 1)
            if seq_id == "DDQ" and n % 2 == 0 or seq_id == "DBQ" and n % 2:
                n += 1
            queries.append((seq_id, n))
        return queries[::-1]
    if workload == "oracle":
        order = [(n,) for n in range(1, size + 1)]
        rng.shuffle(order)
        return order
    if workload == "grid":
        # every r in 0..GRID_R_MAX equally often; the seed picks which m gets which
        rs = [m % (GRID_R_MAX + 1) for m in range(1, size + 1)]
        rng.shuffle(rs)
        pairs = list(zip(range(1, size + 1), rs))
        rng.shuffle(pairs)
        return [(m, r, n) for m, r in pairs for n in range(1, GRID_N_MAX + 1)]
    raise ValueError(f"unknown workload {workload!r}")


class Pass:
    """What one timed pass produced: per-item times, outputs and failures."""

    def __init__(self) -> None:
        self.item_ns: list[int] = []
        self.marks: list[int] = []  # gauge marks, one per item, when gauged
        self.outputs: list = []
        self.failures: list[tuple[object, str]] = []
        self.lines = 0  # lines cli.main wrote

    def digest(self) -> str:
        return hashlib.sha256(repr(self.outputs).encode()).hexdigest()


class _Lines:
    """Stand-in for stdout that keeps each line and the time it took.

    A line's time runs from the end of the previous write, or from
    ``start``, to this write.  ``gauge`` samples are taken inside the write,
    after the line's time is read, so they are in no line's time.
    """

    def __init__(self, clock, start=0, mark=None, gauge=None) -> None:
        self.clock = clock
        self.mark = mark
        self.gauge = gauge
        self.lines: list[str] = []
        self.item_ns: list[int] = []
        self.marks: list[int] = []
        self._since = start

    def write(self, text: str) -> int:
        now = self.clock()
        if self.mark is not None:
            self.mark(text, self._since, now)
        self.item_ns.append(now - self._since)
        self.lines.append(text)
        if self.gauge is not None:
            self.marks.append(self.gauge.between())
            now = self.clock()
        self._since = now
        return len(text)

    def flush(self) -> None:
        pass


def _parse_line(text: str) -> tuple[int, int]:
    n, value = text.split()
    return int(n), int(value)


def _call_cli(cli, argv: list[str], out: _Lines) -> int:
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(_Lines(out.clock)):
        return cli.main(argv)


def run_pass(workload: str, inputs: list[tuple], recorder=None, gauge=None) -> Pass:
    """Run the timed pass over ``inputs``; ``recorder`` adds item spans,
    ``gauge`` takes its samples between items.

    Program functions are looked up on their modules at call time, so a
    traced run calls the wrappers the recorder installed.
    """
    from powerdenom import bernoulli, cli, denom, powersum

    if workload == "bfile":
        return _bfile_pass(cli, inputs, recorder, gauge)
    if workload == "sparse":

        def item(seq_id, n):
            out = _Lines(time.perf_counter_ns)
            code = _call_cli(cli, ["seq", seq_id, "--from", str(n), "--to", str(n)], out)
            if code != 0 or len(out.lines) != 1:
                return (seq_id, n, None), f"exit {code}, {len(out.lines)} lines"
            got_n, value = _parse_line(out.lines[0])
            problem = None if got_n == n else f"line for n={got_n}"
            return (seq_id, n, value), problem

        done = _items_pass(inputs, item, recorder, gauge)
        done.lines = sum(1 for out in done.outputs if out is not None and out[2] is not None)
        return done
    if workload == "oracle":
        cache = bernoulli.BernoulliCache()

        def item(n):
            formula = (
                denom.number_denom(n).value,
                denom.nonconstant_denom(n).value,
                denom.full_denom(n).value,
            )
            oracle = (
                denom.number_denom_direct(cache, n),
                denom.nonconstant_denom_direct(cache, n),
                denom.full_denom_direct(cache, n),
            )
            problem = None if formula == oracle else f"formula {formula} != oracle {oracle}"
            return (n, *formula), problem

        return _items_pass(inputs, item, recorder, gauge)
    if workload == "grid":
        cache = bernoulli.BernoulliCache()

        def item(m, r, n):
            spec = powersum.ProgressionSpec(m, r, n)
            direct = powersum.power_sum_poly(cache, spec).denominator
            formula = powersum.power_sum_denominator(spec)
            integral = powersum.is_integral(spec)
            up = powersum.am_integer(cache, m, r, n).value
            down = powersum.am_integer(cache, m, -r, n).value
            problem = None
            if direct != formula:
                problem = f"denominator {formula} != polynomial's {direct}"
            elif integral != (direct == 1):
                problem = f"is_integral {integral} with denominator {direct}"
            return (m, r, n, direct, integral, up, down), problem

        return _items_pass(inputs, item, recorder, gauge)
    raise ValueError(f"unknown workload {workload!r}")


def _items_pass(inputs, item, recorder, gauge) -> Pass:
    clock = time.perf_counter_ns
    done = Pass()
    for index, args in enumerate(inputs):
        if recorder is not None:
            recorder.open_item(index)
        start = clock()
        try:
            output, problem = item(*args)
        except Exception:  # a raising item is a failed item; the pass goes on
            output, problem = None, traceback.format_exc(limit=-2)
        end = clock()
        if recorder is not None:
            recorder.close_item()
        done.item_ns.append(end - start)
        if gauge is not None:
            done.marks.append(gauge.between())
        done.outputs.append(output)
        if problem is not None:
            done.failures.append((args, problem))
    return done


def _bfile_pass(cli, inputs, recorder, gauge) -> Pass:
    clock = time.perf_counter_ns
    done = Pass()
    for seq_id, lo, hi in inputs:
        mark = None
        if recorder is not None:

            def mark(text, start, now, seq_id=seq_id):
                recorder.mark_item((seq_id, text.split(" ", 1)[0]), start, now)

        out = _Lines(clock, clock(), mark, gauge)
        try:
            code = _call_cli(cli, ["seq", seq_id, "--from", str(lo), "--to", str(hi)], out)
        except Exception:  # counted below as the lines it did not write
            code = traceback.format_exc(limit=-2)
        done.item_ns += out.item_ns
        done.marks += out.marks
        done.lines += len(out.lines)
        got = []
        for text in out.lines:
            try:
                n, value = _parse_line(text)
            except ValueError:
                done.failures.append(((seq_id, text), "malformed line"))
                continue
            got.append(n)
            done.outputs.append((seq_id, n, value))
        want = list(indices(seq_id, lo, hi))
        if code != 0 or got != want:
            seen = set(got)
            missing = [n for n in want if n not in seen] or [lo]
            reason = f"exit {code}, {len(got)} of {len(want)} lines"
            done.failures.extend(((seq_id, n), reason) for n in missing)
    return done


def attempted(workload: str, inputs: list[tuple]) -> int:
    """Items one pass attempts: lines expected, indices compared, cases checked."""
    if workload == "bfile":
        return sum(len(indices(seq_id, lo, hi)) for seq_id, lo, hi in inputs)
    return len(inputs)


# -- checks of bfile and sparse values, run after the timed pass ---------------


def _divisors(n: int) -> list[int]:
    small = [d for d in range(1, int(n**0.5) + 1) if n % d == 0]
    return small + [n // d for d in reversed(small) if d * d != n]


class References:
    """Independent values of the five sequences, memoized per index."""

    def __init__(self) -> None:
        from powerdenom import denom, digits

        denom.clear_formula_caches()
        self.is_prime = digits.is_prime
        self.dd = functools.cache(lambda n: denom.nonconstant_denom_all_primes(n).value)
        self.db_successor = functools.cache(lambda n: denom.full_denom_via_successor(n).value)
        self.db_split = functools.cache(lambda n: denom.full_denom_split_product(n).value)

    def number(self, n: int) -> int:
        """von Staudt-Clausen by divisor enumeration and trial division."""
        if n == 1:
            return 2
        if n % 2:
            return 1
        out = 1
        for d in _divisors(n):
            if self.is_prime(d + 1):
                out *= d + 1
        return out

    def values(self, seq_id: str, n: int) -> list:
        """Every independent value the program's output at n must equal."""
        if seq_id == "D":
            return [self.number(n)]
        if seq_id == "DD":
            return [self.dd(n)]
        if seq_id == "DB":
            return [self.db_successor(n), self.db_split(n)]
        if seq_id == "DDQ":
            return [_exact(self.dd(n), self.dd(n + 1))]
        if seq_id == "DBQ":
            return [
                _exact(self.db_successor(n), self.db_successor(n + 1)),
                _exact(self.db_split(n), self.db_split(n + 1)),
            ]
        raise ValueError(f"unknown sequence id {seq_id!r}")


def _exact(a: int, b: int):
    q, rem = divmod(a, b)
    return None if rem else q


def _oracle_value(seq_id: str, n: int, cache) -> int:
    from powerdenom import denom

    if seq_id == "D":
        return denom.number_denom_direct(cache, n)
    if seq_id == "DD":
        return denom.nonconstant_denom_direct(cache, n)
    if seq_id == "DB":
        return denom.full_denom_direct(cache, n)
    base = "DD" if seq_id == "DDQ" else "DB"
    return _exact(_oracle_value(base, n, cache), _oracle_value(base, n + 1, cache))


def check_values(workload: str, outputs: list) -> list[tuple[object, str]]:
    """Failures among the outputs of bfile, sparse or grid."""
    if workload == "grid":
        return _check_grid(outputs)
    if workload not in ("bfile", "sparse"):
        return []
    from powerdenom import bernoulli

    refs = References()
    cache = bernoulli.BernoulliCache()
    failures = []
    for out in outputs:
        if out is None or out[2] is None:
            continue  # already failed in the timed pass
        seq_id, n, value = out
        try:
            want = refs.values(seq_id, n)
            if n <= ORACLE_PREFIX:
                want.append(_oracle_value(seq_id, n, cache))
            start, step, terms = FIXTURES[seq_id]
            k, off = divmod(n - start, step)
            if off == 0 and 0 <= k < len(terms):
                want.append(terms[k])
        except Exception:  # a raising reference is reported, not fatal
            failures.append(((seq_id, n), traceback.format_exc(limit=-2)))
            continue
        if any(value != w for w in want):
            failures.append(((seq_id, n), f"value {value}, references {want}"))
    return failures


def _check_grid(outputs: list) -> list[tuple[object, str]]:
    """Failures among grid's am_integer values at +r and -r."""
    from fractions import Fraction

    from powerdenom import bernoulli

    cache = bernoulli.BernoulliCache()
    failures = []
    for out in outputs:
        if out is None:
            continue  # already failed in the timed pass
        m, r, n, _, _, up, down = out
        try:
            want = [m**n * (cache.value_at(n, Fraction(s, m)) - cache.number(n)) for s in (r, -r)]
        except Exception:  # a raising reference is reported, not fatal
            failures.append(((m, r, n), traceback.format_exc(limit=-2)))
            continue
        if [up, down] != want:
            failures.append(((m, r, n), f"am_integer {up}, {down}; by Horner {want}"))
    return failures
