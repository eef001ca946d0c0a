"""End-to-end CLI behavior: formats, exit codes, cross-checks."""

import ast
import concurrent.futures
import hashlib
import importlib
import os
import re
import subprocess
import sys
from collections import OrderedDict
from math import lcm, prod
from pathlib import Path
from types import SimpleNamespace

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

import powerdenom
from powerdenom import cli, denom, digits, verify
from powerdenom.bernoulli import BernoulliCache
from powerdenom.cli import main, run
from powerdenom.errors import TheoremViolationError

NONCONSTANT_1_21 = [1, 1, 2, 1, 6, 2, 6, 3, 10, 2, 6, 2, 210, 30, 6, 3, 30, 10, 210, 42, 330]
FULL_1_18 = [2, 6, 2, 30, 6, 42, 6, 30, 10, 66, 6, 2730, 210, 30, 6, 510, 30, 3990]
NUMBER_1_20 = [2, 6, 1, 30, 1, 42, 1, 30, 1, 66, 1, 2730, 1, 6, 1, 510, 1, 798, 1, 330]
NONCONSTANT_QUOT = [1, 2, 3, 2, 5, 3, 7, 2, 3, 5, 11, 1, 13, 7, 15, 2, 17, 3, 19, 5, 7]
FULL_QUOT = [3, 5, 7, 3, 11, 13, 5, 17, 19, 7, 23, 5, 3, 29, 31, 11, 35, 37]


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def bfile(pairs):
    return "".join(f"{n} {v}\n" for n, v in pairs)


def _number_value(n):
    # D(1) = 2, where B_1 = -1/2, and D(n) = 1 at odd n >= 3, where B_n = 0;
    # the per-index scan takes even n alone
    if n % 2:
        return 2 if n == 1 else 1
    return prod(denom._number_primes(n))


# each id's per-index closed form, DB's as the prime-set union of D's and DD's
PER_INDEX = {
    "D": lambda n: denom.number_denom(n).value,
    "DD": lambda n: denom.nonconstant_denom(n).value,
    "DB": lambda n: denom.full_denom(n).value,
    "DDQ": denom.nonconstant_quotient,
    "DBQ": denom.full_denom_quotient,
}


def csv(pairs):
    return "n,a_n\n" + "".join(f"{n},{v}\n" for n, v in pairs)


def test_seq_bfile_fixtures(capsys):
    code, out, _ = run_cli(capsys, "seq", "DD", "--from", "1", "--to", "21")
    assert code == 0
    assert out == bfile(enumerate(NONCONSTANT_1_21, start=1))

    code, out, _ = run_cli(capsys, "seq", "DB", "--from", "1", "--to", "18")
    assert code == 0
    assert out == bfile(enumerate(FULL_1_18, start=1))

    code, out, _ = run_cli(capsys, "seq", "D", "--from", "1", "--to", "20")
    assert code == 0
    assert out == bfile(enumerate(NUMBER_1_20, start=1))


def test_seq_bfile_example(capsys):
    code, out, _ = run_cli(capsys, "seq", "D", "--from", "1", "--to", "5")
    assert code == 0
    assert out == "1 2\n2 6\n3 1\n4 30\n5 1\n"


def test_seq_csv_format(capsys):
    code, out, _ = run_cli(capsys, "seq", "DD", "--from", "1", "--to", "10",
                           "--format", "csv")
    assert code == 0
    assert out == csv(enumerate(NONCONSTANT_1_21[:10], start=1))
    assert out.endswith("9,10\n10,2\n")


def test_seq_quotient_fixtures(capsys):
    pairs = list(zip(range(1, 42, 2), NONCONSTANT_QUOT))
    code, out, err = run_cli(capsys, "seq", "DDQ", "--from", "1", "--to", "41")
    assert code == 0
    assert out == bfile(pairs)
    assert "skipped 20" in err

    pairs = list(zip(range(2, 38, 2), FULL_QUOT))
    code, out, err = run_cli(capsys, "seq", "DBQ", "--from", "2", "--to", "37",
                             "--format", "csv")
    assert code == 0
    assert out == csv(pairs)
    assert "skipped 18" in err


def test_seq_quotient_full_parity_range_has_no_note(capsys):
    code, out, err = run_cli(capsys, "seq", "DDQ", "--from", "1", "--to", "1")
    assert code == 0
    assert out == "1 1\n"
    assert err == ""


@pytest.mark.parametrize(
    "seq_id, lo, hi, out, note",
    [
        ("DDQ", 2, 2, "", "odd n; skipped 1 other index"),
        ("DDQ", 2, 3, "3 2\n", "odd n; skipped 1 other index"),
        ("DBQ", 1, 4, "2 3\n4 5\n", "even n; skipped 2 other indices"),
    ],
    ids=("DDQ-2-2", "DDQ-2-3", "DBQ-1-4"),
)
def test_seq_notes_the_skipped_indices_in_the_singular_and_plural(
    capsys, seq_id, lo, hi, out, note
):
    got = run_cli(capsys, "seq", seq_id, "--from", str(lo), "--to", str(hi))
    assert got == (0, out, f"note: {seq_id} is defined for {note}\n")


def test_seq_round_trip(capsys):
    code, out, _ = run_cli(capsys, "seq", "DB", "--from", "3", "--to", "12")
    assert code == 0
    from powerdenom import full_denom

    for line in out.splitlines():
        n_text, value_text = line.split(" ")
        assert full_denom(int(n_text)).value == int(value_text)


def test_seq_db_prints_the_lcm_of_dd_and_d_without_a_prime_set_union(capsys, monkeypatch):
    # DB's closed form takes the lcm of DD's and D's values and builds no
    # SquarefreeProduct: over two segments, each filled before it is
    # printed, at the composite n where merging prime sets was slowest, at
    # one odd n, and in bench.  full_denom, which merges, is the reference.
    def refuse(*args):
        raise AssertionError("DB merged prime sets")

    hi, singles = 3000, (1260, 1680, 1800, 1001)
    assert cli.SEGMENT_TERMS < hi
    with monkeypatch.context() as barred:
        barred.setattr(digits.SquarefreeProduct, "merge", refuse)
        barred.setattr(cli, "full_denom", refuse, raising=False)
        denom.clear_formula_caches()
        ranged = run_cli(capsys, "seq", "DB", "--from", "1", "--to", str(hi))
        single = []
        for n in singles:
            denom.clear_formula_caches()
            single.append(run_cli(capsys, "seq", "DB", "--from", str(n), "--to", str(n)))
        assert run_cli(capsys, "bench", "DB", "1..300", "--reps", "1")[0] == 0
    denom.clear_formula_caches()
    want = {n: denom.full_denom(n).value for n in range(1, hi + 1)}
    assert ranged == (0, bfile(want.items()), "")
    assert ranged[1].startswith(bfile(enumerate(FULL_1_18, start=1)))
    assert single == [(0, bfile([(n, want[n])]), "") for n in singles]


def test_seq_usage_errors(capsys):
    code, _, err = run_cli(capsys, "seq", "D", "--from", "5", "--to", "2")
    assert code == 2
    assert "error" in err
    code, _, _ = run_cli(capsys, "seq", "D", "--from", "0", "--to", "2")
    assert code == 2
    code, _, _ = run_cli(capsys, "seq", "NOPE", "--from", "1", "--to", "2")
    assert code == 2
    code, _, _ = run_cli(capsys, "seq", "D", "--from", "1")
    assert code == 2


def test_seq_bound_is_refused_before_the_sieve_grows(capsys, monkeypatch):
    def no_sieve(bound):
        raise AssertionError(f"sieve asked for {bound}")

    for module in (denom, digits):
        for name in ("prime_flags", "primes_up_to"):
            monkeypatch.setattr(module, name, no_sieve)
    past = cli.MAX_SEQ_N + 1
    for argv in (
        ("seq", "D", "--from", str(past), "--to", str(past)),
        ("seq", "DBQ", "--from", str(past - 3), "--to", str(past), "--format", "csv"),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert f"n <= {cli.MAX_SEQ_N}" in err, argv


def test_seq_quotients_at_huge_n_use_no_sieve(capsys, monkeypatch):
    def refuse(*args):
        raise AssertionError(f"asked {args}")

    for name in ("prime_flags", "primes_up_to", "nonconstant_denom"):
        monkeypatch.setattr(denom, name, refuse)
    # from a fresh interpreter's sieve, whatever earlier tests grew it to:
    # factorize extends the prime list to sqrt(n + 1), a flag table of at
    # most 10**4 bytes for n + 1 <= 10**8 + 1
    monkeypatch.setattr(digits, "_sieve_limit", 0)
    monkeypatch.setattr(digits, "_sieve_flags", memoryview(b""))
    monkeypatch.setattr(digits, "_sieve_primes", [])
    for seq_id, n, want in (("DDQ", 99999999, 5), ("DBQ", 99999998, 73)):
        code, out, err = run_cli(capsys, "seq", seq_id, "--from", str(n), "--to", str(n))
        assert (code, out, err) == (0, f"{n} {want}\n", ""), seq_id
    assert digits._sieve_limit <= 10**4


def test_seq_help_states_the_bound(capsys):
    code, out, _ = run_cli(capsys, "seq", "--help")
    assert code == 0
    assert f"at most {cli.MAX_SEQ_N}" in out


def test_huge_n_query_needs_no_big_sieve():
    # one term of D or DD at n sieves to about n/2: the peak must stay well
    # below what a list of every prime that far would take
    if not os.path.exists("/proc/self/status"):
        pytest.skip("no /proc/self/status to read VmHWM from")
    result = _python("-c", (
        "import contextlib, io\n"
        "from powerdenom.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()) as out:\n"
        "    codes = [main(['seq', 'D', '--from', '10000000', '--to', '10000000']),\n"
        "             main(['seq', 'DD', '--from', '10000001', '--to', '10000001'])]\n"
        "print(codes, out.getvalue().split()[::2])\n"
        "with open('/proc/self/status') as f:\n"
        "    print(next(line.split()[1] for line in f if line.startswith('VmHWM:')))"
    ))
    assert result.returncode == 0, result.stderr
    verdict, vmhwm_kb = result.stdout.splitlines()
    assert verdict == "[0, 0] ['10000000', '10000001']"
    assert int(vmhwm_kb) < 40 * 1024


def test_seq_over_a_long_range_peaks_below_40_mb():
    # the two memos hold at most MEMO_BOUND indices each, so the peak stays
    # near a fresh interpreter's even after tens of thousands of terms
    if not os.path.exists("/proc/self/status"):
        pytest.skip("no /proc/self/status to read VmHWM from")
    result = _python("-c", (
        "import contextlib, io\n"
        "from powerdenom.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()) as out:\n"
        "    code = main(['seq', 'DD', '--from', '1', '--to', '50000'])\n"
        "print(code, out.getvalue().count('\\n'))\n"
        "with open('/proc/self/status') as f:\n"
        "    print(next(line.split()[1] for line in f if line.startswith('VmHWM:')))"
    ))
    assert result.returncode == 0, result.stderr
    verdict, vmhwm_kb = result.stdout.splitlines()
    assert verdict == "0 50000"
    assert int(vmhwm_kb) < 40 * 1024


def test_am_sweep_to_a_high_n_peaks_below_40_mb():
    # am_integer reads the rows and the table the cache keeps anyway, so a
    # sweep to n = 900 holds no copy of the table per n
    if not os.path.exists("/proc/self/status"):
        pytest.skip("no /proc/self/status to read VmHWM from")
    result = _python("-c", (
        "import contextlib, io\n"
        "from powerdenom.cli import main\n"
        "argv = 'verify AM-integrality --max 900 --m-max 1 --r-max 0 --jobs 1'\n"
        "with contextlib.redirect_stdout(io.StringIO()) as out:\n"
        "    code = main(argv.split())\n"
        "print(code, out.getvalue().splitlines()[-1])\n"
        "with open('/proc/self/status') as f:\n"
        "    print(next(line.split()[1] for line in f if line.startswith('VmHWM:')))"
    ))
    assert result.returncode == 0, result.stderr
    verdict, vmhwm_kb = result.stdout.splitlines()
    assert verdict.startswith("0 checked 900 cases") and verdict.endswith(": PASS"), verdict
    assert int(vmhwm_kb) < 40 * 1024


def test_seq_over_a_long_range_keeps_each_memo_at_its_bound(capsys):
    bound = denom.MEMO_BOUND
    denom.clear_formula_caches()
    code, out, _ = run_cli(capsys, "seq", "DB", "--from", "1", "--to", str(3 * bound))
    assert code == 0
    assert len(denom._nonconstant_memo) == len(denom._number_memo) == bound
    want = [
        (n, lcm(prod(denom._nonconstant_primes(n)), _number_value(n)))
        for n in range(1, 3 * bound + 1)
    ]
    assert out == bfile(want)


def test_seq_d_over_an_odd_to_odd_range_stores_the_even_n_alone(capsys):
    # two segments whose edges are odd: each fill rounds its first index up
    # to even, and the odd n print the shared D = 1 without a memo entry
    lo, hi = 999001, 1003095
    denom.clear_formula_caches()
    code, out, _ = run_cli(capsys, "seq", "D", "--from", str(lo), "--to", str(hi))
    assert code == 0
    assert list(denom._number_memo) == list(range(lo + 1, hi, 2))
    assert out == bfile((n, _number_value(n)) for n in range(lo, hi + 1))
    denom.clear_formula_caches()


def test_seq_d_from_1_stores_the_even_n_alone(capsys):
    # D(1) = 2 is a shared product, as D = 1 at odd n >= 3 is: no odd n is stored
    denom.clear_formula_caches()
    code, out, _ = run_cli(capsys, "seq", "D", "--from", "1", "--to", "2000")
    assert code == 0
    assert list(denom._number_memo) == list(range(2, 2001, 2))
    assert out == bfile((n, _number_value(n)) for n in range(1, 2001))
    denom.clear_formula_caches()


def test_seq_quotients_over_a_long_range_keep_their_memo_at_its_bound(capsys, monkeypatch):
    bound = denom.MEMO_BOUND

    class Bounded(OrderedDict):
        def __setitem__(self, n, value):
            assert n in self or len(self) < bound, len(self)
            super().__setitem__(n, value)

    denom.clear_formula_caches()
    # the per-index values, taken before any fill
    want = {n: denom.nonconstant_quotient(n) for n in range(1, 6 * bound, 2)}
    want.update((n, denom.full_denom_quotient(n)) for n in range(2, 6 * bound + 1, 2))
    monkeypatch.setattr(denom, "_quotient_memo", Bounded())
    for seq_id in ("DDQ", "DBQ"):
        # 3 * bound indices of one parity: six segments
        code, out, _ = run_cli(capsys, "seq", seq_id, "--from", "1", "--to", str(6 * bound))
        assert code == 0
        ns = denom.parity_indices(cli.SEQUENCES[seq_id][2], 1, 6 * bound)
        assert len(ns) == 3 * bound
        assert out == bfile((n, want[n]) for n in ns), seq_id
        assert len(denom._quotient_memo) <= bound


def test_a_dbq_range_after_a_ddq_range_scans_only_the_missing_index(capsys, monkeypatch):
    scans = []
    real = denom._quotient_segment

    def spy(lo, hi):
        scans.append((lo, hi))
        return real(lo, hi)

    monkeypatch.setattr(denom, "_quotient_segment", spy)
    denom.clear_formula_caches()
    assert run_cli(capsys, "seq", "DDQ", "--from", "1", "--to", "1999")[0] == 0
    code, out, _ = run_cli(capsys, "seq", "DBQ", "--from", "2", "--to", "2000")
    assert scans == [(1, 1999), (2000, 2000)]
    assert code == 0
    assert out.splitlines()[:3] == ["2 3", "4 5", "6 7"]


def test_short_seq_ranges_take_the_per_index_path(capsys, monkeypatch):
    scans = []
    segments = {
        denom.fill_nonconstant_memo: "_nonconstant_segment",
        denom.fill_number_memo: "_number_segment",
        denom.fill_quotient_memo: "_quotient_segment",
    }

    def counted(name, real):
        def scan(lo, hi):
            scans.append(name)
            return real(lo, hi)

        return scan

    for name in segments.values():
        monkeypatch.setattr(denom, name, counted(name, getattr(denom, name)))
    edges = cli.SEGMENT_MIN_TERMS
    # DB's D fill starts later than its DD fill, so a DB range between the
    # two fills DD's memo alone
    assert edges[denom.fill_nonconstant_memo] < edges[denom.fill_number_memo]
    for seq_id, (_, _, parity, fills) in cli.SEQUENCES.items():
        ns = denom.parity_indices(parity, 100000, 100000 + 2 * max(edges.values()))
        # one term, then each fill's edge R: R - 1 indices read that memo
        # per index, R indices scan one segment into it
        all_terms = sorted({1, *(edges[fill] + d for fill in fills for d in (-1, 0))})
        # the per-index values from cleared memos, DB's as the prime-set
        # union: a segment form that reads a neighbouring index or the wrong
        # memo, or a quotient fill at the other parity, prints other values
        denom.clear_formula_caches()
        values = [PER_INDEX[seq_id](n) for n in ns[: all_terms[-1]]]
        for terms in all_terms:
            denom.clear_formula_caches()
            scans.clear()
            code, out, _ = run_cli(
                capsys, "seq", seq_id, "--from", str(ns[0]), "--to", str(ns[terms - 1])
            )
            want = [segments[fill] for fill in fills if terms >= edges[fill]]
            assert (code, scans) == (0, want), (seq_id, terms)
            assert out == bfile(zip(ns[:terms], values)), (seq_id, terms)


def test_every_printed_value_is_cli_closed_form_called_at_print_time(capsys, monkeypatch):
    # each closed form seq calls is rebound on cli to a wrapper that records
    # its index and returns the real value times a prime of its own, so a
    # value read any other way (a memo, a function bound at import) prints
    # differently; DB asks both D's and DD's
    asks = {
        "D": ("number_denom",),
        "DD": ("nonconstant_denom",),
        "DB": ("number_denom", "nonconstant_denom"),
        "DDQ": ("nonconstant_quotient",),
        "DBQ": ("full_denom_quotient",),
    }
    assert set(asks) == set(cli.SEQUENCES)
    calls = {
        name: [] for name in
        ("number_denom", "nonconstant_denom", "nonconstant_quotient", "full_denom_quotient")
    }

    def recording(name, tag, real):
        def wrapper(n):
            value = real(n)
            tagged = getattr(value, "value", value) * tag
            calls[name].append((n, tagged))
            return tagged if isinstance(value, int) else SimpleNamespace(value=tagged)

        return wrapper

    for tag, name in zip((1000003, 1000033, 1000037, 1000039), calls):
        monkeypatch.setattr(cli, name, recording(name, tag, getattr(cli, name)))
    terms = max(cli.SEGMENT_MIN_TERMS.values())
    assert terms <= cli.SEGMENT_TERMS
    for seq_id, (_, _, parity, _) in cli.SEQUENCES.items():
        ns = denom.parity_indices(parity, 1000, 1000 + 2 * terms)[:terms]
        # one segment long enough for every fill, then one term
        for span in (ns, ns[:1]):
            denom.clear_formula_caches()
            for seen in calls.values():
                seen.clear()
            code, out, _ = run_cli(
                capsys, "seq", seq_id, "--from", str(span[0]), "--to", str(span[-1])
            )
            assert code == 0
            for name, seen in calls.items():
                asked = list(span) if name in asks[seq_id] else []
                assert [n for n, _ in seen] == asked, (seq_id, len(span), name)
            got = map(lcm, *([value for _, value in calls[name]] for name in asks[seq_id]))
            assert out == bfile(zip(span, got)), (seq_id, len(span))


def test_a_short_tail_segment_of_a_long_range_takes_the_per_index_path(capsys, monkeypatch):
    # one whole segment, scanned before any of it is printed, then a tail
    # of two indices, shorter than DD's fill edge and so read per index
    scans = []
    real = denom._nonconstant_segment

    def spy(lo, hi):
        scans.append((lo, hi))
        return real(lo, hi)

    monkeypatch.setattr(denom, "_nonconstant_segment", spy)
    denom.clear_formula_caches()
    lo, hi = 999000, 1001049
    assert hi - lo + 1 == cli.SEGMENT_TERMS + 2
    code, out, _ = run_cli(capsys, "seq", "DD", "--from", str(lo), "--to", str(hi))
    assert (code, len(out.splitlines())) == (0, hi - lo + 1)
    assert scans == [(lo, lo + cli.SEGMENT_TERMS - 1)]


def test_seq_past_the_digit_limit_names_the_id_and_index(capsys):
    # DD(999998) has 655 digits, DD(999991) 668, DD(999989) and DD(999990)
    # at most 640; the second range is long enough to be filled a segment
    # at a time
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        for lo, hi, first in ((999998, 1000000, 999998), (999989, 1000004, 999991)):
            code, out, err = run_cli(capsys, "seq", "DD", "--from", str(lo), "--to", str(hi))
            assert code == 2
            printed = range(lo, first)
            assert out == bfile((n, denom.nonconstant_denom(n).value) for n in printed)
            assert f"DD({first})" in err and "640-digit limit" in err
            assert "set_int_max_str_digits" not in err
    finally:
        sys.set_int_max_str_digits(limit)


def test_seq_range_whose_first_value_is_past_the_digit_limit_prints_nothing(capsys):
    # the segment is filled before its first line is formatted, so the
    # range stops after one segment scan, with nothing printed
    denom.clear_formula_caches()
    # long enough for both of DB's fills
    lo, hi = 999998, 999998 + max(cli.SEGMENT_MIN_TERMS.values()) - 1
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        # DB(999998) is a multiple of DD(999998), which has 655 digits
        code, out, err = run_cli(capsys, "seq", "DB", "--from", str(lo), "--to", str(hi))
    finally:
        sys.set_int_max_str_digits(limit)
    assert (code, out) == (2, "")
    assert f"DB({lo})" in err and "640-digit limit" in err


@pytest.mark.parametrize(
    "seq_id, lo, hi, size",
    [
        ("DD", 1000001, 1000400, 1000400 // 2 + 1),
        # DD's memo filled, D read per index inside DD's table
        ("DB", 1000000, 1000100, 1000100 // 2 + 1),
        ("D", 1000000, 1000400, 1000400 + 1),
        # D's fill first, DD's inside its table
        ("DB", 1000000, 1000400, 1000400 + 1),
        # D per index first, DD's per-index table inside it
        ("DB", 1000000, 1000000, 1000000 // 2 + 1),
    ],
)
def test_a_seq_query_builds_one_large_flag_table(
    capsys, monkeypatch, fresh_sieve, seq_id, lo, hi, size
):
    # a range's fills run before any of its terms is read per index, and DB
    # reads D before DD, so no smaller table is built first and then grown;
    # each table the sieve builds is noted by its limit
    builds = []
    real = digits.prime_flags

    def noted(bound):
        before = digits._sieve_limit
        flags = real(bound)
        if digits._sieve_limit != before:
            builds.append(digits._sieve_limit)
        return flags

    for module in (digits, denom):
        monkeypatch.setattr(module, "prime_flags", noted)
    denom.clear_formula_caches()
    code, out, _ = run_cli(capsys, "seq", seq_id, "--from", str(lo), "--to", str(hi))
    assert (code, len(out.splitlines())) == (0, hi - lo + 1)
    assert [limit for limit in builds if limit > 10**4] == [size]


def test_powersum_integral_case(capsys):
    code, out, _ = run_cli(capsys, "powersum", "--m", "2", "--r", "1", "--n", "1")
    assert code == 0
    assert "polynomial: x^2\n" in out
    assert "denominator: 1\n" in out
    assert "integral: yes\n" in out


def test_powersum_fractional_case(capsys):
    code, out, _ = run_cli(capsys, "powersum", "--m", "1", "--r", "0", "--n", "4")
    assert code == 0
    assert "polynomial: (6x^5 - 15x^4 + 10x^3 - x)/30\n" in out
    assert "coefficients: 0, -1/30, 0, 1/3, -1/2, 1/5\n" in out
    assert "denominator: 30\n" in out
    assert "integral: no\n" in out


def test_powersum_cross_check(capsys):
    code, out, _ = run_cli(capsys, "powersum", "--m", "6", "--r", "1", "--n", "2",
                           "--x", "3")
    assert code == 0
    assert "value at x=3: 219\n" in out
    assert "naive sum: 219\n" in out
    assert "cross-check: match\n" in out


def test_powersum_trivial_exponent(capsys):
    code, out, _ = run_cli(capsys, "powersum", "--m", "9", "--r", "4", "--n", "0",
                           "--x", "7")
    assert code == 0
    assert "polynomial: x\n" in out
    assert "integral: yes\n" in out
    assert "value at x=7: 7\n" in out


def test_powersum_usage_errors(capsys):
    code, _, _ = run_cli(capsys, "powersum", "--m", "0", "--r", "0", "--n", "2")
    assert code == 2
    code, _, _ = run_cli(capsys, "powersum", "--m", "2", "--r", "-1", "--n", "2")
    assert code == 2
    code, _, _ = run_cli(capsys, "powersum", "--m", "2", "--r", "0", "--n", "-1")
    assert code == 2
    code, _, _ = run_cli(capsys, "powersum", "--m", "2", "--r", "0", "--n", "2",
                         "--x", "-1")
    assert code == 2


def test_powersum_rejects_negative_x_before_any_output(capsys):
    code, out, err = run_cli(capsys, "powersum", "--m", "3", "--r", "1", "--n", "2",
                             "--x", "-1")
    assert code == 2
    assert out == ""
    assert "need x >= 0" in err


PINNED_POWERSUM = Path(__file__).with_name("powersum_stdout.txt")


def test_powersum_prints_the_pinned_text(capsys):
    # each block opens with "$ powerdenom powersum ARGS"; the lines after it
    # are that command's whole stdout
    blocks = {}
    for line in PINNED_POWERSUM.read_text().splitlines(keepends=True):
        if line.startswith("$ "):
            argv = tuple(line.split()[2:])
            blocks[argv] = ""
        else:
            blocks[argv] += line
    assert len(blocks) == 13
    for argv, text in blocks.items():
        assert run_cli(capsys, *argv) == (0, text, ""), argv


def test_powersum_at_a_million_prints_the_pinned_text(capsys):
    code, out, err = run_cli(capsys, "powersum", "--m", "1000000", "--r", "1",
                             "--n", "200")
    assert (code, err) == (0, "")
    # 537,749 bytes: pinned by their digest and the short lines
    lines = out.splitlines()
    assert lines[0] == "power sum: m=1000000 r=1 n=200"
    assert lines[3:] == ["denominator: 41423007175011", "integral: no"]
    digest = "e127955f0de4c1cf7786089c8b422864a2af3f54a3570fdf71004878b6c20db0"
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("argv, message", [
    (("bench", "DD", "1..x"), "range must look like LO..HI, got '1..x'"),
    (("powersum", "--n", "0", "--m", "0", "--r", "1"), "difference m must be >= 1, got 0"),
    (("powersum", "--n", "0", "--m", "1", "--r", "-1"), "start r must be >= 0, got -1"),
])
def test_refused_command_lines_print_nothing(capsys, argv, message):
    assert run_cli(capsys, *argv) == (2, "", f"error: {message}\n")


def test_unknown_ids_are_refused():
    known = ", ".join(verify.available_sweeps())
    message = f"unknown sweep id 'T9' (known: {known})"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        verify.run_sweep("T9", jobs=1)
    message = "unknown bench id 'DQ' (known: D, DD, DB, DDQ, DBQ)"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        cli.run_bench("DQ", 1, 5)


def test_powersum_naive_sum_disagreeing_exits_3_naming_x(capsys, monkeypatch):
    real = cli.power_sum_naive
    monkeypatch.setattr(cli, "power_sum_naive", lambda spec, x: real(spec, x) + 1)
    code, out, err = run_cli(capsys, "powersum", "--m", "3", "--r", "1", "--n", "5",
                             "--x", "4")
    assert (code, out) == (3, "")
    # the polynomial gives 1 + 4^5 + 7^5 + 10^5; the patched naive sum one more
    assert err == (
        "internal invariant violated: polynomial and naive sum disagree at "
        "m=3, r=1, n=5, x=4: 117832 vs 117833\n"
    )


def test_every_theorem_violation_formats_its_input():
    # exit 3 names the input: each raise in the package passes one f-string
    # with at least one formatted value
    raises = 0
    for path in sorted(Path(powerdenom.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(node, ast.Raise) or node.exc is None:
                continue
            exc = node.exc
            func = exc.func if isinstance(exc, ast.Call) else exc
            if getattr(func, "id", getattr(func, "attr", None)) != "TheoremViolationError":
                continue
            raises += 1
            where = f"{path.name}:{node.lineno}"
            assert isinstance(exc, ast.Call) and len(exc.args) == 1, where
            message = exc.args[0]
            assert isinstance(message, ast.JoinedStr), where
            assert any(isinstance(part, ast.FormattedValue) for part in message.values), where
    # two in cli, four in denom, one in powersum
    assert raises >= 7


def test_verify_pass_and_report(capsys):
    code, out, _ = run_cli(capsys, "verify", "T1-parity", "--max", "256",
                           "--jobs", "1")
    assert code == 0
    assert "T1-parity: n <= 256" in out
    assert "checked 256 cases" in out
    assert "PASS" in out


def test_verify_grid_flags(capsys):
    code, out, _ = run_cli(capsys, "verify", "T2-denominator", "--max", "12",
                           "--m-max", "4", "--r-max", "2", "--jobs", "1")
    assert code == 0
    assert "m <= 4, r <= 2, n <= 12" in out
    assert "PASS" in out


def test_verify_parallel_matches_inline(capsys):
    code, out_inline, _ = run_cli(capsys, "verify", "T4-quotients", "--max", "255",
                                  "--jobs", "1")
    assert code == 0
    code, out_par, _ = run_cli(capsys, "verify", "T4-quotients", "--max", "255",
                               "--jobs", "3")
    assert code == 0
    # identical except for the elapsed time
    strip = lambda s: [l for l in s.splitlines() if "checked" not in l]
    assert strip(out_inline) == strip(out_par)
    assert "checked 128 cases" in out_inline
    assert "checked 128 cases" in out_par


def test_am_grid_over_two_workers_matches_inline(monkeypatch):
    # the pool path, with Bounds pickled to each worker, even on one CPU
    monkeypatch.setattr(verify, "usable_cpus", lambda: 2)
    bounds = {"max_n": 12, "m_max": 6, "r_max": 4}
    inline = verify.run_sweep("AM-integrality", jobs=1, **bounds)
    pooled = verify.run_sweep("AM-integrality", jobs=2, **bounds)
    assert inline.ok and inline.checked == 6 * 9 * 12
    assert pooled._replace(elapsed=0) == inline._replace(elapsed=0)


def test_verify_usage_errors(capsys):
    code, _, _ = run_cli(capsys, "verify", "T9-unknown")
    assert code == 2
    code, _, _ = run_cli(capsys, "verify", "T1-parity", "--max", "0", "--jobs", "1")
    assert code == 2
    code, _, _ = run_cli(capsys, "verify", "T1-parity", "--jobs", "0")
    assert code == 2
    code, _, _ = run_cli(capsys, "verify", "T2-denominator", "--m-max", "0", "--jobs", "1")
    assert code == 2
    code, _, _ = run_cli(capsys, "verify", "AM-integrality", "--r-max", "-1", "--jobs", "1")
    assert code == 2
    # an m or r bound on a sweep over n alone, and bounds that hold no case
    for argv in (("T1-parity", "--m-max", "3"), ("C2-relations", "--r-max", "0"),
                 ("T5-quotients", "--max", "1"), ("L1-congruence", "--max", "1")):
        code, out, err = run_cli(capsys, "verify", *argv, "--jobs", "1")
        assert (code, out) == (2, "")
        assert argv[0] in err


def test_verify_relations_sweep(capsys):
    code, out, _ = run_cli(capsys, "verify", "C2-relations", "--max", "300",
                           "--jobs", "1")
    assert code == 0
    assert out.startswith("C2-relations: n <= 300\nchecked 300 cases in ")
    assert out.endswith(": PASS\n")


def test_verify_reports_each_failing_input(capsys, monkeypatch):
    real = verify.nonconstant_denom

    def odd_at_13(n):
        got = real(n)
        return SimpleNamespace(value=got.value + 1) if n == 13 else got

    monkeypatch.setattr(verify, "nonconstant_denom", odd_at_13)
    code, out, _ = run_cli(capsys, "verify", "T1-parity", "--max", "64", "--jobs", "1")
    assert code == 1
    assert "checked 64 cases" in out and "FAIL (1 failures)" in out
    assert out.endswith("  input=(13,) expected=odd=False actual=odd=True\n")


def test_verify_reports_a_bounded_sample_of_failures(capsys, monkeypatch):
    real = verify.nonconstant_quotient
    monkeypatch.setattr(verify, "nonconstant_quotient", lambda n: real(n) + 2)
    code, out, _ = run_cli(capsys, "verify", "T4-quotients", "--max", "2047",
                           "--jobs", "1")
    assert code == 1
    lines = out.splitlines()
    assert lines[1].endswith(": FAIL (1024 failures)")
    shown = [line for line in lines if line.startswith("  input=")]
    assert shown[0] == "  input=(1,) expected=1 by division actual=3"
    assert len(shown) == verify.MAX_REPORTED_FAILURES
    assert lines[-1] == f"  ... {1024 - verify.MAX_REPORTED_FAILURES} more"
    report = verify.run_sweep("T4-quotients", max_n=2047)
    assert (report.ok, report.failure_count) == (False, 1024)
    assert len(report.failures) == verify.MAX_REPORTED_FAILURES


def test_quotient_sweeps_report_a_failed_division(capsys, monkeypatch):
    def uneven_at_10(n):
        if n == 10:
            raise TheoremViolationError("full denominator at n+1 must divide value at n")
        return real(n)

    real = verify.full_denom_quotient_by_division
    monkeypatch.setattr(verify, "full_denom_quotient_by_division", uneven_at_10)
    code, out, _ = run_cli(capsys, "verify", "T5-quotients", "--max", "64", "--jobs", "1")
    assert code == 1
    assert "checked 32 cases" in out and "FAIL (1 failures)" in out
    assert "  input=(10,) expected=exact division actual=full denominator" in out


def _value_at(n0, value):
    # the closed form with .value replaced at n0 alone
    return lambda real: lambda n: SimpleNamespace(value=value) if n == n0 else real(n)


def _quotient_at(n0, q):
    # the quotient at n0 is q, and exact division agrees with it everywhere,
    # so only the structure checks after that comparison can fail
    return lambda real: lambda n, quotient, by_division: (
        q if n == n0 else quotient(n), None
    )


def _dividing_nothing(real):
    # rad(n+1) whose divisibility test is always false
    def radical(k):
        rad = real(k)
        return SimpleNamespace(primes=rad.primes, value=rad.value, divides=lambda n: False)

    return radical


# (sweep, bounds, the name in verify's namespace the branch reads, its fake
# made from the real binding, the failures the report must hold)
SWEEP_FAILURE_BRANCHES = [
    pytest.param(
        "T2-denominator", {"max_n": 1, "m_max": 1, "r_max": 1}, "power_sum_denominator",
        lambda real: lambda spec: 3 * real(spec) if spec.r else real(spec),
        [((1, 1, 1), "6", "2")], id="T2-denominator-mismatch",
    ),
    pytest.param(
        # the spec at r = 1 has difference m + 1: its denominator is right
        # for it, and not the one of r = 0
        "T2-denominator", {"max_n": 1, "m_max": 1, "r_max": 1}, "ProgressionSpec",
        lambda real: lambda m, r, n: real(m + r, r, n),
        [((1, 1, 1), "same for every r (2)", "1")], id="T2-same-for-every-r",
    ),
    pytest.param(
        "T2-denominator", {"max_n": 2, "m_max": 1, "r_max": 0}, "nonconstant_denom",
        lambda real: lambda n: SimpleNamespace(value=1),
        [((1, 0, 2), "divisor of 3", "6")], id="T2-envelope",
    ),
    pytest.param(
        "T3-integrality", {"max_n": 1, "m_max": 1, "r_max": 0}, "is_integral",
        lambda real: lambda spec: True,
        [((1, 0, 1), "integral=True", "integral=False")], id="T3-flag",
    ),
    pytest.param(
        "C2-relations", {"max_n": 6}, "nonconstant_denom", _value_at(5, 18),
        [((5,), "lcm(2, 6)", "18")], id="C2-odd-lcm",
    ),
    pytest.param(
        # at n = 1 the odd lcm law is not checked
        "C2-relations", {"max_n": 2}, "nonconstant_denom", _value_at(2, 3),
        [((1,), "multiple of 3", "1")], id="C2-odd-multiple",
    ),
    pytest.param(
        "C2-relations", {"max_n": 2}, "full_denom", _value_at(2, 30),
        [((2,), "lcm(2, 3)", "30")], id="C2-even-lcm",
    ),
    pytest.param(
        # a successor that does not divide DB(n) breaks the lcm law as well
        "C2-relations", {"max_n": 3}, "full_denom", _value_at(3, 10),
        [((2,), "lcm(10, 3)", "6"), ((2,), "multiple of 10", "6")], id="C2-even-multiple",
    ),
    pytest.param(
        "C2-relations", {"max_n": 4}, "radical", _dividing_nothing,
        [((3,), "divisible by rad(n+1)=2", "2")], id="C2-radical",
    ),
    pytest.param(
        "C2-relations", {"max_n": 1}, "full_denom", _value_at(1, 1),
        [((1,), "even full denominator", "1")], id="C2-even-full",
    ),
    pytest.param(
        "T4-quotients", {"max_n": 3}, "_quotient_against_division", _quotient_at(3, 4),
        [((3,), "2 at n = 2^k - 1", "4")], id="T4-two",
    ),
    pytest.param(
        "T4-quotients", {"max_n": 1}, "_quotient_against_division", _quotient_at(1, 2),
        [((1,), "odd quotient", "2")], id="T4-odd",
    ),
    pytest.param(
        "T4-quotients", {"max_n": 5}, "_quotient_against_division", _quotient_at(5, 9),
        [((5,), "in {1, 3}", "9")], id="T4-one-or-p",
    ),
    pytest.param(
        "T4-quotients", {"max_n": 5}, "_quotient_against_division", _quotient_at(5, 1),
        [((5,), "3 when 2^l < p", "1")], id="T4-p-above-power-of-two",
    ),
    pytest.param(
        # 105 = 3 * 5 * 7: no structure check after the parity
        "T5-quotients", {"max_n": 104}, "_quotient_against_division", _quotient_at(104, 2),
        [((104,), "odd quotient", "2")], id="T5-odd",
    ),
    pytest.param(
        "T5-quotients", {"max_n": 2}, "_quotient_against_division", _quotient_at(2, 1),
        [((2,), "3 at n = 3^k - 1", "1")], id="T5-prime-power",
    ),
    pytest.param(
        "T5-quotients", {"max_n": 14}, "_quotient_against_division", _quotient_at(14, 7),
        [((14,), "in {1, 3, 5, 15}", "7")], id="T5-two-primes",
    ),
]


@pytest.mark.parametrize("theorem_id, bounds, name, fake, failures", SWEEP_FAILURE_BRANCHES)
def test_each_sweep_failure_branch_reports(monkeypatch, theorem_id, bounds, name, fake,
                                           failures):
    # a sweep that cannot report a failure checks nothing
    monkeypatch.setattr(verify, name, fake(getattr(verify, name)))
    report = verify.run_sweep(theorem_id, **bounds, jobs=1)
    assert report.failure_count == len(failures)
    assert report.failures == tuple(failures)


def test_verify_jobs_are_clamped_to_usable_cpus(capsys, monkeypatch):
    pools = []

    class RecordingPool:
        def __init__(self, max_workers):
            pools.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, args):
            return map(fn, args)

    # run_sweep imports the pool on its parallel path, so it finds the fake
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(verify.os, "sched_getaffinity", lambda pid: {0, 1, 2})
    # a tree built now, not the cached one: the default is read when it is built
    assert cli.build_parser.__wrapped__("verify").parse_args(["verify", "T1-parity"]).jobs == 3
    code, out, _ = run_cli(capsys, "verify", "T1-parity", "--max", "64", "--jobs", "5000")
    assert code == 0
    assert "checked 64 cases" in out
    code, _, _ = run_cli(capsys, "verify", "T1-parity", "--max", "2", "--jobs", "5000")
    assert code == 0
    assert pools == [3, 2]  # the CPUs, then the two one-index spans
    monkeypatch.delattr(verify.os, "sched_getaffinity")  # not every OS has one
    assert verify.usable_cpus() == (os.cpu_count() or 1)


def test_bench_emits_csv_after_agreement(capsys):
    code, out, _ = run_cli(capsys, "bench", "DD", "1..50", "--reps", "1")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "id,lo,hi,formula_ns,oracle_ns,speedup"
    fields = lines[1].split(",")
    assert len(fields) == 6
    assert fields[:3] == ["DD", "1", "50"]
    formula_ns, oracle_ns = int(fields[3]), int(fields[4])
    assert formula_ns > 0 and oracle_ns > 0
    # the speedup, oracle over formula time, with two decimals
    assert re.fullmatch(r"\d+\.\d\d", fields[5])
    assert fields[5] == f"{oracle_ns / formula_ns:.2f}"


def test_bench_usage_errors(capsys):
    code, _, _ = run_cli(capsys, "bench", "DD", "nope")
    assert code == 2
    code, _, _ = run_cli(capsys, "bench", "DD", "9..2")
    assert code == 2
    code, _, _ = run_cli(capsys, "bench", "DD", "1..10", "--reps", "0")
    assert code == 2
    code, _, _ = run_cli(capsys, "bench", "DX", "1..10")
    assert code == 2
    code, _, _ = run_cli(capsys, "bench", "DBQ", "1..1")  # no even n in range
    assert code == 2


def test_table_bound_is_refused_before_any_table_fill(capsys, monkeypatch):
    def no_fill(self, n):
        raise AssertionError(f"table filled to {n}")

    monkeypatch.setattr(BernoulliCache, "_extend", no_fill)
    past = str(cli.MAX_TABLE_N + 1)
    for argv in (
        ("powersum", "--m", "3", "--r", "1", "--n", past),
        ("bench", "DD", f"1..{past}", "--reps", "1"),
        ("bench", "DBQ", f"2..{past}", "--reps", "1"),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert f"n <= {cli.MAX_TABLE_N}" in err, argv


def test_verify_bound_is_refused_before_any_table_fill_or_sieve(capsys, monkeypatch):
    # the m and r bounds themselves are accepted
    for argv in (("--m-max", str(cli.MAX_GRID_M), "--r-max", "0"),
                 ("--m-max", "1", "--r-max", str(cli.MAX_GRID_R))):
        code, out, _ = run_cli(capsys, "verify", "AM-integrality", "--max", "1", *argv,
                               "--jobs", "1")
        assert code == 0 and "PASS" in out, argv

    def no_fill(self, n):
        raise AssertionError(f"table filled to {n}")

    def no_sieve(bound):
        raise AssertionError(f"sieve grown to {bound}")

    monkeypatch.setattr(BernoulliCache, "_extend", no_fill)
    for module in (digits, denom):
        monkeypatch.setattr(module, "prime_flags", no_sieve)
    grids = ("T2-denominator", "T3-integrality", "L1-congruence", "AM-integrality")
    for theorem_id in verify.available_sweeps():
        if theorem_id in grids:
            top, extra = cli.MAX_TABLE_N, ("--m-max", "1", "--r-max", "1")
        else:
            top, extra = cli.MAX_SEQ_N, ()
        argv = ("verify", theorem_id, "--max", str(top + 1), *extra, "--jobs", "1")
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert f"n <= {top}" in err, argv
    # m or r past its bound, the other axes as small as they go, so that only
    # that bound stands between the argv and a sweep of bound + 1 values
    for theorem_id in grids:
        for option, axis, top in (
            ("--m-max", "m", cli.MAX_GRID_M), ("--r-max", "r", cli.MAX_GRID_R)
        ):
            argv = ("verify", theorem_id, "--max", "1", "--m-max", "1", "--r-max", "0",
                    option, str(top + 1), "--jobs", "1")
            code, out, err = run_cli(capsys, *argv)
            assert (code, out) == (2, ""), argv
            assert f"{axis} <= {top}" in err, argv
    code, out, _ = run_cli(capsys, "verify", "--help")
    assert code == 0
    help_text = " ".join(out.split())
    assert f"at most {cli.MAX_TABLE_N} for a grid sweep" in help_text
    assert f"{cli.MAX_SEQ_N} for a sweep over n" in help_text
    assert f"largest m (grid sweeps), at most {cli.MAX_GRID_M}" in help_text
    assert f"largest r (grid sweeps), at most {cli.MAX_GRID_R}" in help_text


def test_run_sweep_refuses_each_bound_before_any_work(monkeypatch):
    # a library caller is refused as the command line is, with no table
    # fill, no sieve and no chunk of the sweep run
    def refuse(*args):
        raise AssertionError(f"work started for {args[1:]}")

    monkeypatch.setattr(BernoulliCache, "_extend", refuse)
    for module in (digits, denom):
        monkeypatch.setattr(module, "prime_flags", refuse)
    monkeypatch.setattr(verify, "_chunk_entry", refuse)
    grids = ("T2-denominator", "T3-integrality", "L1-congruence", "AM-integrality")
    for theorem_id in verify.available_sweeps():
        if theorem_id in grids:
            pasts = (
                ({"max_n": cli.MAX_TABLE_N + 1}, f"n <= {cli.MAX_TABLE_N}"),
                ({"m_max": cli.MAX_GRID_M + 1}, f"m <= {cli.MAX_GRID_M}"),
                ({"r_max": cli.MAX_GRID_R + 1}, f"r <= {cli.MAX_GRID_R}"),
            )
            small = {"max_n": 1, "m_max": 1, "r_max": 0}
        else:
            pasts = (({"max_n": cli.MAX_SEQ_N + 1}, f"n <= {cli.MAX_SEQ_N}"),)
            small = {}
        for past, message in pasts:
            with pytest.raises(ValueError, match=re.escape(message)):
                verify.run_sweep(theorem_id, **{**small, **past}, jobs=1)


def test_run_sweep_refuses_a_grid_past_the_case_bound_before_any_work(monkeypatch):
    def refuse(*args):
        raise AssertionError(f"work started for {args[1:]}")

    monkeypatch.setattr(BernoulliCache, "_extend", refuse)
    for module in (digits, denom):
        monkeypatch.setattr(module, "prime_flags", refuse)
    monkeypatch.setattr(verify, "_chunk_entry", refuse)
    grids = ("T2-denominator", "T3-integrality", "L1-congruence", "AM-integrality")
    every_axis_at_its_bound = {
        "max_n": cli.MAX_TABLE_N, "m_max": cli.MAX_GRID_M, "r_max": cli.MAX_GRID_R
    }
    # m and r at their bounds, and the largest n that keeps the cases in bound
    rows = cli.MAX_GRID_M * (cli.MAX_GRID_R + 1)
    last_n = cli.MAX_GRID_CASES // rows
    edge = {"m_max": cli.MAX_GRID_M, "r_max": cli.MAX_GRID_R, "max_n": last_n}
    message = f"m*(r+1)*n <= {cli.MAX_GRID_CASES} cases"
    for theorem_id in grids:
        for bounds in (every_axis_at_its_bound, {**edge, "max_n": last_n + 1}):
            with pytest.raises(ValueError, match=re.escape(message)):
                verify.run_sweep(theorem_id, **bounds, jobs=1)

    # accepted: every default grid, the edge, and each axis at its own bound
    # with the others at 1 and 0 (the chunks are stubbed out: nothing runs)
    monkeypatch.setattr(verify, "_chunk_entry", lambda args: (1, 0, []))
    small = {"max_n": 1, "m_max": 1, "r_max": 0}
    alone = [{**small, k: v} for k, v in every_axis_at_its_bound.items()]
    for theorem_id in grids:
        for bounds in ({}, edge, *alone):
            assert verify.run_sweep(theorem_id, **bounds, jobs=1).ok, (theorem_id, bounds)


def test_run_sweep_refuses_a_grid_past_the_work_bound_before_any_work(monkeypatch):
    def refuse(*args):
        raise AssertionError(f"work started for {args[1:]}")

    monkeypatch.setattr(BernoulliCache, "_extend", refuse)
    for module in (digits, denom):
        monkeypatch.setattr(module, "prime_flags", refuse)
    monkeypatch.setattr(verify, "_chunk_entry", refuse)
    grids = ("T2-denominator", "T3-integrality", "L1-congruence", "AM-integrality")
    # m = 40 and r = 99, and the largest n that keeps the work in bound
    rows = 40 * 100
    last_n = max(n for n in range(1, cli.MAX_TABLE_N) if rows * n**3 <= cli.MAX_GRID_WORK)
    edge = {"m_max": 40, "r_max": 99, "max_n": last_n}
    assert rows * (last_n + 1) <= cli.MAX_GRID_CASES
    # inside the case bound, each of these took a minute or more
    slow = ({"max_n": 300, "m_max": 60, "r_max": 10}, {"max_n": 300, "m_max": 40, "r_max": 40})
    message = f"m*(r+1)*n^3 <= {cli.MAX_GRID_WORK} work"
    for theorem_id in grids:
        for bounds in (*slow, {**edge, "max_n": last_n + 1}):
            with pytest.raises(ValueError, match=re.escape(message)):
                verify.run_sweep(theorem_id, **bounds, jobs=1)

    # the edge is accepted (the chunks are stubbed out: nothing runs); every
    # default grid and each axis at its own bound alone are accepted in
    # test_run_sweep_refuses_a_grid_past_the_case_bound_before_any_work
    monkeypatch.setattr(verify, "_chunk_entry", lambda args: (1, 0, []))
    for theorem_id in grids:
        assert verify.run_sweep(theorem_id, **edge, jobs=1).ok, theorem_id


def test_each_sweep_labels_its_report_with_its_bounds(monkeypatch):
    # the report's first line after the id, at the defaults and at one
    # override, and the same label in the refusal of bounds that hold no
    # case (the chunks are stubbed out: nothing runs)
    cases = (
        ("T1-parity", "n <= 4096", {"max_n": 7}, "n <= 7"),
        ("T2-denominator", "m <= 30, r <= 3, n <= 60", {"m_max": 2}, "m <= 2, r <= 3, n <= 60"),
        ("T3-integrality", "m <= 60, r <= 3, n <= 60", {"r_max": 0}, "m <= 60, r <= 0, n <= 60"),
        ("C2-relations", "n <= 2000", {"max_n": 9}, "n <= 9"),
        ("T4-quotients", "n <= 8191", {"max_n": 1}, "n <= 1"),
        ("T5-quotients", "n <= 8192", {"max_n": 2}, "n <= 2"),
        (
            "L1-congruence",
            "m <= 20, |r| <= 20, n <= 60, p <= 13",
            {"max_n": 4, "r_max": 2},
            "m <= 20, |r| <= 2, n <= 4, p <= 13",
        ),
        (
            "AM-integrality",
            "m <= 40, |r| <= 40, n <= 80",
            {"max_n": 9, "m_max": 3, "r_max": 1},
            "m <= 3, |r| <= 1, n <= 9",
        ),
    )
    assert [case[0] for case in cases] == list(verify.available_sweeps())
    for theorem_id, default, override, label in cases:
        monkeypatch.setattr(verify, "_chunk_entry", lambda args: (1, 0, []))
        assert verify.run_sweep(theorem_id, jobs=1).range_label == default
        assert verify.run_sweep(theorem_id, **override, jobs=1).range_label == label
        monkeypatch.setattr(verify, "_chunk_entry", lambda args: (0, 0, []))
        message = f"^{re.escape(f'{theorem_id} has no case with {label}')}$"
        with pytest.raises(ValueError, match=message):
            verify.run_sweep(theorem_id, **override, jobs=1)


def test_term_count_bound_is_refused_before_any_work(capsys, monkeypatch):
    def refuse(*args):
        raise AssertionError(f"work started for {args[1:]}")

    monkeypatch.setattr(BernoulliCache, "_extend", refuse)
    monkeypatch.setattr(cli, "power_sum_naive", refuse)
    past = str(cli.MAX_POWERSUM_X + 1)
    for n in ("0", "5", str(cli.MAX_TABLE_N)):
        argv = ("powersum", "--m", "3", "--r", "1", "--n", n, "--x", past)
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert f"x <= {cli.MAX_POWERSUM_X}" in err, argv
    code, out, _ = run_cli(capsys, "powersum", "--help")
    assert code == 0
    assert f"x <= {cli.MAX_POWERSUM_X}" in " ".join(out.split())


def test_bench_repetition_bound_is_refused_before_any_work(capsys, monkeypatch):
    # the bound itself runs
    code, out, _ = run_cli(capsys, "bench", "DD", "1..3", "--reps", str(cli.MAX_BENCH_REPS))
    assert code == 0 and out.startswith("id,lo,hi,")

    def refuse(*args):
        raise AssertionError(f"work started for {args[1:]}")

    monkeypatch.setattr(BernoulliCache, "_extend", refuse)
    for name in ("number_denom", "nonconstant_denom"):
        monkeypatch.setattr(cli, name, refuse)
    past = str(cli.MAX_BENCH_REPS + 1)
    for span in ("1..3", f"1..{cli.MAX_TABLE_N}"):
        argv = ("bench", "DB", span, "--reps", past)
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert f"reps must be 1..{cli.MAX_BENCH_REPS}, got {past}" in err, argv
    code, out, _ = run_cli(capsys, "bench", "--help")
    assert code == 0
    assert f"at most {cli.MAX_BENCH_REPS}" in " ".join(out.split())


def test_bench_quotient_oracle_divides_exactly(capsys, monkeypatch):
    real = cli.full_denom_direct

    def off_at_4(cache, n):
        # 31 // 6 == 5 == DBQ(4): only exact division sees the fault
        return real(cache, n) + (n == 4)

    monkeypatch.setattr(cli, "full_denom_direct", off_at_4)
    code, _, err = run_cli(capsys, "bench", "DBQ", "1..10", "--reps", "1")
    assert code == 3
    assert "n=4" in err


def run_tree(capsys, *argv):
    """What main gives when the command tree parses ``argv``."""
    command = argv[0] if argv and argv[0] in cli._COMMANDS else None
    try:
        args = cli.build_parser(command).parse_args(list(argv))
    except SystemExit as exc:
        code = exc.code
    else:
        try:
            code = cli._COMMANDS[args.command][2](args)
        except ValueError as exc:  # as main reports it
            print(f"error: {exc}", file=sys.stderr)
            code = 2
    captured = capsys.readouterr()
    return code, captured.out, captured.err


PARSE_CASES = [
    ("--help",),
    *((name, "--help") for name in ("seq", "powersum", "verify", "bench")),
    ("seq", "D", "--from", "1"),  # a missing required argument
    ("seq",),
    ("powersum", "--m", "2", "--r", "1"),
    ("seq", "DX", "--from", "1", "--to", "2"),  # a bad choice
    ("seq", "D", "--from", "1", "--to", "2", "--format", "xml"),
    ("verify", "T9-unknown"),
    ("seq", "D", "--from", "one", "--to", "2"),  # a bad int
    ("bench", "DD", "1..3", "--reps", "z"),
    ("seq", "D", "--fr", "1", "--to", "3"),  # an abbreviated option
    ("seq", "D", "--from", "1", "--to", "3", "--bogus"),  # unrecognized arguments
    ("seq", "D", "--from", "1", "--to", "3", "extra"),
    ("--bogus", "seq", "D"),  # an option before the command
    (),  # no command
    ("nope",),  # an unknown command
    ("nope", "--from", "1"),
    # the documented seq form, which main reads without argparse
    ("seq", "DD", "--from", "3", "--to", "5"),
    ("seq", "DD", "--from", "3", "--to", "5", "--format", "csv"),
    ("seq", "DD", "--from", "007", "--to", "9"),  # leading zeros are digits too
    ("seq", "DD", "--from", "0", "--to", "5"),  # read, then refused by seq
    # near misses, each left to argparse
    ("seq", "DD", "--from", "+3", "--to", "5"),
    ("seq", "DD", "--from", "-1", "--to", "5"),
    ("seq", "DD", "--from", "-1_0", "--to", "5"),  # int() takes it, argparse reads an option
    ("seq", "DD", "--from", "\u0663", "--to", "5"),  # ARABIC-INDIC DIGIT THREE
    ("seq", "DD", "--from", "3_0", "--to", "35"),
    ("seq", "DD", "--from", "", "--to", "5"),
    ("seq", "DD", "--from", "3", "--to", "9" * 5000),  # past int()'s digit limit
    ("seq", "DD", "--to", "5", "--from", "3"),
    ("seq", "DD", "--from=3", "--to", "5"),
    ("seq", "DD", "--from", "3", "--to", "5", "--format", "xml"),
    ("seq", "DD", "--from", "3", "--to", "5", "--format"),
    ("seq", "DD", "--from", "3", "--to", "5", "-h"),
]


def _argv_id(argv):
    # an empty token shown as '', one too long to read in a test id by its length
    def show(token):
        if not token:
            return "''"
        return token if len(token) <= 20 else f"<{len(token)} chars>"

    return " ".join(map(show, argv)) or "no argv"


@pytest.mark.parametrize("argv", PARSE_CASES, ids=_argv_id)
def test_each_command_parses_as_under_the_whole_tree(capsys, argv):
    assert run_cli(capsys, *argv) == run_tree(capsys, *argv)


def _either(right, wrong):
    # a documented token or a near miss, each drawn about half the time
    return st.one_of(st.sampled_from(right), st.sampled_from(wrong))


_SEQ_VALUES = st.one_of(
    st.from_regex(r"[0-9]{1,30}", fullmatch=True),
    st.sampled_from(["+3", "-1", "-1_0", "\u0663", "3_0", "", " 3", "3 ", "9" * 5000, "csv", "x"]),
)


def test_the_seq_reader_declines_or_reads_what_argparse_reads():
    read = []

    @settings(max_examples=200, deadline=None)
    @given(
        _either(tuple(cli.SEQUENCES), ["DX", "dd", "-h"]),
        _either(["--from"], ["--to", "--fr", "--from=3", "--format", "-h"]),
        _SEQ_VALUES,
        _either(["--to"], ["--from", "--t", "--format", "--help"]),
        _SEQ_VALUES,
        _either([(), ("--format", "csv"), ("--format", "bfile")],
                [("--format", "xml"), ("--format",), ("--format=csv",), ("extra",), ("-h",),
                 ("--format", "csv", "--format", "bfile")]),
    )
    def check(seq_id, from_flag, lo, to_flag, hi, tail):
        argv = ["seq", seq_id, from_flag, lo, to_flag, hi, *tail]
        query = cli._documented_seq(argv)
        if query is None:  # left to argparse, as every argv was before
            return
        try:
            args = cli.build_parser("seq").parse_args(argv)
        except SystemExit:
            raise AssertionError(f"read {argv}, which argparse refuses") from None
        assert query == (args.seq_id, args.start, args.stop, args.format), argv
        read.append(argv)

    check()
    assert read  # the documented form itself was drawn


def test_unrecognized_arguments_are_reported_under_the_tree_usage(capsys):
    # one parser reads every argv but the documented seq form, so argparse
    # reports them under the usage line of powerdenom itself; an option
    # before the command leaves the command's subparser bare
    for argv, unread in (
        (("seq", "D", "--from", "1", "--to", "3", "--bogus"), "--bogus"),
        (("seq", "D", "--from", "1", "--to", "3", "extra"), "extra"),
        (("--bogus", "seq", "D"), "--bogus D"),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert err.startswith("usage: powerdenom [-h]"), argv
        assert err.splitlines()[-1] == f"powerdenom: error: unrecognized arguments: {unread}"


def test_a_seq_query_builds_only_the_seq_parser_once(capsys, monkeypatch):
    # the documented form builds and runs no parser; any other seq argv
    # builds one tree, once, with seq's arguments alone added
    import argparse

    built, parsed = [], []

    def recording(name, add_arguments):
        def add(parser):
            built.append((name, parser.prog))
            add_arguments(parser)

        return add

    def counted(self, *args, **kwargs):
        parsed.append(self.prog)
        return parse_args(self, *args, **kwargs)

    for name, (help_line, add_arguments, command) in list(cli._COMMANDS.items()):
        monkeypatch.setitem(
            cli._COMMANDS, name, (help_line, recording(name, add_arguments), command)
        )
    parse_args = argparse.ArgumentParser.parse_args
    monkeypatch.setattr(argparse.ArgumentParser, "parse_args", counted)
    cli.build_parser.cache_clear()
    try:
        for n in ("3", "5"):
            assert run_cli(capsys, "seq", "D", "--from", n, "--to", n)[:2] == (0, f"{n} 1\n")
            assert run_cli(capsys, "seq", "D", "--from", n, "--to", n, "--format", "csv")[:2] == (
                0, f"n,a_n\n{n},1\n"
            )
        assert (built, parsed) == ([], [])
        for n in ("3", "5"):
            assert run_cli(capsys, "seq", "D", "--to", n, "--from", n)[:2] == (0, f"{n} 1\n")
        assert cli.build_parser.cache_info().currsize == 1
    finally:
        cli.build_parser.cache_clear()
    assert built == [("seq", "powerdenom seq")]
    assert parsed == ["powerdenom"] * 2


def test_missing_subcommand_is_usage_error(capsys):
    assert run_cli(capsys, )[0] == 2


def test_run_raises_system_exit(capsys):
    with pytest.raises(SystemExit) as info:
        import sys

        original = sys.argv
        sys.argv = ["powerdenom", "seq", "D", "--from", "1", "--to", "3"]
        try:
            run()
        finally:
            sys.argv = original
    assert info.value.code == 0


def test_powersum_past_the_digit_limit_prints_nothing(capsys):
    code, out, err = run_cli(capsys, "powersum", "--m", "1000000", "--r", "1",
                             "--n", "800")
    assert (code, out) == (2, "")
    assert "m=1000000 r=1 n=800" in err
    assert f"{sys.get_int_max_str_digits()}-digit limit" in err


# powersum inputs whose output holds an int past the default digit limit:
# r^n, m^n and S(x) >= ((x - 1) m + r)^n are each too long, and the last is
# just past where the refusal starts at n = 50
TOO_LONG_POWERSUMS = (
    ("--m", "1", "--r", str(10**50), "--n", "1500"),
    ("--m", str(10**200 + 7), "--r", "1", "--n", "600"),
    ("--m", "1000000", "--r", "1", "--n", "1500"),
    ("--m", "2", "--r", "1", "--n", "1500", "--x", "10000"),
    ("--m", "1", "--r", str(2**286), "--n", "50"),
)


def test_powersum_past_the_digit_limit_is_refused_before_any_work(capsys, monkeypatch):
    # some printed int is at least max(m, r, (x - 1) m + r)^n / (n + 1), so
    # these exit before the polynomial is built (64 s at r = 10^50 when it
    # was built first); just below the last one, the output still prints
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        code, out, err = run_cli(capsys, "powersum", "--m", "1", "--r", str(2**285),
                                 "--n", "50")
        assert (code, err) == (0, "")
        assert max(map(len, re.findall(r"\d+", out))) > 4280

        def refuse(*args):
            raise AssertionError(f"work started for {args[1:]}")

        monkeypatch.setattr(BernoulliCache, "_extend", refuse)
        monkeypatch.setattr(cli, "power_sum_naive", refuse)
        for args in TOO_LONG_POWERSUMS:
            m, r, n = args[1:6:2]
            assert run_cli(capsys, "powersum", *args) == (2, "", (
                f"error: powersum output for m={m} r={r} n={n} holds an integer "
                "longer than Python's 4300-digit limit for int-to-str conversion\n"
            )), args
        # a limit of 0 is no limit, and the work starts
        sys.set_int_max_str_digits(0)
        with pytest.raises(AssertionError, match="work started"):
            main(["powersum", *TOO_LONG_POWERSUMS[0]])
    finally:
        sys.set_int_max_str_digits(limit)


def test_powersum_past_the_digit_limit_after_the_bit_length_check_prints_nothing(
    capsys, monkeypatch
):
    # 100 * 21 bits stay below the early refusal's 2134 at a limit of 640,
    # yet the polynomial holds an int of about 660 digits: the refusal comes
    # from str() of the built output, and the limit is left as it was
    built = []
    real = cli.power_sum_poly

    def spy(*args):
        built.append(args[1])
        return real(*args)

    monkeypatch.setattr(cli, "power_sum_poly", spy)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        assert run_cli(capsys, "powersum", "--m", "4194303", "--r", "1", "--n", "100") == (
            2, "", (
                "error: powersum output for m=4194303 r=1 n=100 holds an integer "
                "longer than Python's 640-digit limit for int-to-str conversion\n"
            ),
        )
        assert sys.get_int_max_str_digits() == 640
    finally:
        sys.set_int_max_str_digits(limit)
    assert [(s.m, s.r, s.n) for s in built] == [(4194303, 1, 100)]


def _python(*argv: str, timeout: float = 60, **extra: str) -> subprocess.CompletedProcess:
    src = str(Path(powerdenom.__file__).parents[1])
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, **extra, "PYTHONPATH": src + (os.pathsep + path if path else "")}
    return subprocess.run(
        [sys.executable, *argv], capture_output=True, text=True, env=env, timeout=timeout,
    )


def _run_module(module: str, *flags: str) -> subprocess.CompletedProcess:
    return _python(*flags, "-m", module, "seq", "D", "--from", "1", "--to", "3")


def test_python_m_powerdenom():
    result = _run_module("powerdenom")
    assert result.returncode == 0
    assert result.stdout == "1 2\n2 6\n3 1\n"


def test_python_m_powerdenom_cli():
    # the root does not import cli, so runpy has nothing to warn about
    result = _run_module("powerdenom.cli", "-W", "error")
    assert result.returncode == 0
    assert result.stdout == "1 2\n2 6\n3 1\n"


def test_powersum_at_a_raised_digit_limit_starts_at_once():
    # the early refusal counts the bits of 10^limit without building it,
    # which takes minutes at a limit of 10^8
    argv = ("--m", "30", "--r", "1", "--n", "4", "--x", "20")
    result = _python("-m", "powerdenom", "powersum", *argv, timeout=10,
                     PYTHONINTMAXSTRDIGITS="100000000")
    pinned = PINNED_POWERSUM.read_text().split(f"$ powerdenom powersum {' '.join(argv)}\n")
    assert (result.returncode, result.stderr) == (0, "")
    assert result.stdout == pinned[1].split("$ ")[0]


def test_cli_import_loads_no_process_pool():
    # only a parallel sweep needs the pool and the multiprocessing behind it
    result = _python("-W", "error", "-c", (
        "import sys\n"
        "import powerdenom.cli\n"
        "print(*[name for name in ('concurrent.futures', 'multiprocessing') "
        "if name in sys.modules])"
    ))
    assert result.returncode == 0, result.stderr
    assert result.stdout == "\n"


def test_cli_import_loads_only_what_its_queries_run():
    # -S: a site can import typing itself; unlike -I, it keeps PYTHONPATH
    result = _python("-S", "-W", "error", "-c", (
        "import contextlib, io, sys\n"
        "import powerdenom\n"
        "from powerdenom.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [main(['seq', 'DD', '--from', '1', '--to', '40'])]\n"
        "    read = 'argparse' in sys.modules\n"
        "    exact = [name for name in ('fractions', 'decimal', 'numbers', 're') "
        "if name in sys.modules]\n"
        "    codes += [main(['--help']),\n"
        "              main(['powersum', '--m', '3', '--r', '1', '--n', '5', '--x', '4']),\n"
        "              main(['bench', 'DB', '1..20', '--reps', '1'])]\n"
        "heavy = ('dataclasses', 'inspect', 'typing', 'powerdenom.verify')\n"
        "print(codes, read, exact, 'argparse' in sys.modules,\n"
        "      *[name for name in heavy if name in sys.modules])\n"
        "print(main(['verify', 'T1-parity', '--max', '64', '--jobs', '1']))\n"
        "print('dataclasses' in sys.modules)\n"
        "print(main(['verify', '--help']))"
    ))
    assert result.returncode == 0, result.stderr
    lines = result.stdout.splitlines()
    # argparse is loaded by the first query that needs a parser, not by a
    # documented seq query, and fractions (with decimal, numbers and re
    # behind it) only where a Fraction is built, which that query never does;
    # --help lists the commands alone, so it needs no verify for their ids
    assert lines[0] == "[0, 0, 0, 0] False [] True"
    assert lines[1] == "T1-parity: n <= 64"
    assert lines[2].startswith("checked 64 cases in ") and lines[2].endswith(": PASS")
    assert lines[3] == "0"
    # verify's records are named tuples: no command loads dataclasses
    assert lines[4] == "False"
    assert lines[5].startswith("usage: powerdenom verify ") and lines[-1] == "0"
    usage = "\n".join(lines[5:])
    for theorem_id in verify.available_sweeps():
        assert theorem_id in usage, theorem_id
    assert len(verify.available_sweeps()) == 8


LIBRARY = (
    "BernoulliCache RationalPoly ProgressionSpec TheoremViolationError "
    "number_denom nonconstant_denom full_denom nonconstant_quotient full_denom_quotient "
    "number_denom_direct nonconstant_denom_direct full_denom_direct "
    "power_sum_poly power_sum_denominator is_integral am_integer"
).split()
# each name that left the package root, by the module that defines it
MOVED = {
    "cli": ("run_bench",),
    "denom": ("full_denom_quotient_by_division", "full_denom_split_product",
              "full_denom_via_successor", "nonconstant_denom_all_primes",
              "nonconstant_quotient_by_division"),
    "digits": ("SquarefreeProduct", "digit_sum", "is_prime", "p_valuation",
               "primes_up_to", "radical"),
    "powersum": ("AMInteger", "power_sum_naive"),
    "verify": ("SweepReport", "available_sweeps", "run_sweep"),
}


def test_package_root_is_the_library_only():
    # a star import fails if any __all__ name does not resolve
    result = _python("-W", "error", "-c", (
        "import sys\n"
        "from powerdenom import *\n"
        "import powerdenom\n"
        "front = ('powerdenom.cli', 'powerdenom.verify', 'argparse', 'concurrent.futures')\n"
        "print(*[name for name in front if name in sys.modules])\n"
        "print(*sorted(powerdenom.__all__))"
    ))
    assert result.returncode == 0, result.stderr
    assert result.stdout == "\n" + " ".join(sorted(LIBRARY)) + "\n"
    for module, names in MOVED.items():
        owner = importlib.import_module(f"powerdenom.{module}")
        for name in names:
            assert hasattr(owner, name) and not hasattr(powerdenom, name), name
