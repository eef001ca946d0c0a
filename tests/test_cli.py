"""End-to-end CLI behavior: formats, exit codes, cross-checks."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import powerdenom
from powerdenom import cli, verify
from powerdenom.cli import main, run

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


def test_seq_round_trip(capsys):
    code, out, _ = run_cli(capsys, "seq", "DB", "--from", "3", "--to", "12")
    assert code == 0
    from powerdenom import full_denom

    for line in out.splitlines():
        n_text, value_text = line.split(" ")
        assert full_denom(int(n_text)).value == int(value_text)


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

    monkeypatch.setattr(verify, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(verify.os, "sched_getaffinity", lambda pid: {0, 1, 2})
    assert cli.build_parser().parse_args(["verify", "T1-parity"]).jobs == 3
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
    assert fields[:3] == ["DD", "1", "50"]
    assert int(fields[3]) > 0 and int(fields[4]) > 0


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


def test_bench_quotient_oracle_divides_exactly(capsys, monkeypatch):
    real = cli.full_denom_direct

    def off_at_4(cache, n):
        # 31 // 6 == 5 == DBQ(4): only exact division sees the fault
        return real(cache, n) + (n == 4)

    monkeypatch.setattr(cli, "full_denom_direct", off_at_4)
    code, _, err = run_cli(capsys, "bench", "DBQ", "1..10", "--reps", "1")
    assert code == 3
    assert "n=4" in err


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


def _run_module(module: str) -> subprocess.CompletedProcess:
    src = str(Path(powerdenom.__file__).parents[1])
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}
    return subprocess.run(
        [sys.executable, "-m", module, "seq", "D", "--from", "1", "--to", "3"],
        capture_output=True, text=True, env=env, timeout=60,
    )


def test_python_m_powerdenom():
    result = _run_module("powerdenom")
    assert result.returncode == 0
    assert result.stdout == "1 2\n2 6\n3 1\n"


def test_python_m_powerdenom_cli():
    # runpy may warn on stderr that the package imported cli first; harmless
    result = _run_module("powerdenom.cli")
    assert result.returncode == 0
    assert result.stdout == "1 2\n2 6\n3 1\n"
