"""Tests of the benchmark itself: ``python3 -m pytest perfbench -q``.

Repetitions run in-process here, at small sizes, through the same
``run.main`` the command uses; only the interpreter-per-repetition runner is
swapped out.
"""

import json
import os
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if os.path.join(ROOT, "src") not in sys.path:
    sys.path.insert(0, os.path.join(ROOT, "src"))

import powerdenom  # noqa: E402
import powerdenom.bernoulli  # noqa: E402
import powerdenom.cli  # noqa: E402
import powerdenom.denom  # noqa: E402
import powerdenom.digits  # noqa: E402
import powerdenom.powersum  # noqa: E402
from powerdenom.digits import SquarefreeProduct  # noqa: E402

from perfbench import gauge, rep, run, trace, workloads  # noqa: E402

SMALL = {"bfile": 40, "sparse": 10, "oracle": 25, "grid": 3}


def in_process(workload, seed, traced, check, spans_path, timeout):
    # start from what a fresh interpreter has: empty denom memos and sieve
    powerdenom.denom.clear_formula_caches()
    powerdenom.digits._sieve_limit = 0
    powerdenom.digits._sieve_primes = []
    return rep.run_rep(
        workload, seed, traced=traced, check=check, spans_path=spans_path, size=SMALL[workload]
    )


def last_json(text):
    return json.loads(text.strip().splitlines()[-1])


@pytest.fixture
def out_dir(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT", str(tmp_path))
    return tmp_path


class FakeClock:
    def __init__(self):
        self.now = 0

    def __call__(self):
        return self.now


def test_self_time_is_busy_minus_children_on_a_synthetic_nest():
    clock = FakeClock()
    rec = trace.Recorder("synthetic", clock=clock)

    def work(ticks):
        clock.now += ticks

    leaf = rec.wrap("bernoulli.scaled", lambda: work(7))  # hot: aggregate only
    inner = rec.wrap("denom.number", lambda: work(5))

    def outer_body():
        work(3)
        inner()
        work(2)
        inner()
        leaf()

    outer = rec.wrap("denom.full", outer_body)
    rec.open_item("case-1")
    work(1)
    outer()
    rec.close_item()

    assert rec.stats["denom.full"] == [1, 22, 22 - (5 + 5 + 7)]
    assert rec.stats["denom.number"] == [2, 10, 10]
    assert rec.stats["bernoulli.scaled"] == [1, 7, 7]
    spans = {span[2]: span for span in rec.spans}  # name -> last span of that name
    item, full = spans["item"], spans["denom.full"]
    assert item[1] is None and item[3:5] == ("synthetic", "case-1")
    assert item[7] == 23 - 22  # the item's own tick
    assert full[1] == item[0] and full[7] == 5
    assert spans["denom.number"][1] == full[0]
    assert "bernoulli.scaled" not in spans


def _bindings():
    """Every function, class and property the package's modules and traced
    classes bind, by identity (data such as the sieve cache may change)."""
    found = {}
    owners = [(name, mod) for name, mod in list(sys.modules.items())
              if name == "powerdenom" or name.startswith("powerdenom.")]
    owners += [(cls.__name__, cls) for cls in
               (powerdenom.bernoulli.BernoulliCache, powerdenom.bernoulli.RationalPoly)]
    for name, owner in owners:
        for attr, value in vars(owner).items():
            if callable(value) or isinstance(value, property):
                found[(name, attr)] = value
    return found


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_run_removes_its_wrappers(workload, tmp_path):
    before = _bindings()
    record = rep.run_rep(
        workload, 1, traced=True, spans_path=str(tmp_path / "spans.jsonl"), size=SMALL[workload]
    )
    after = _bindings()
    assert after.keys() == before.keys()
    assert [key for key in before if after[key] is not before[key]] == []
    assert record["failed"] == 0
    assert record["layers"]["denom.nonconstant_calls"] > 0  # the wrappers did run
    lines = (tmp_path / "spans.jsonl").read_text().splitlines()
    assert json.loads(lines[0])["span_fields"][0] == "id"


def test_wrappers_are_removed_when_the_traced_body_raises():
    before = _bindings()
    with pytest.raises(RuntimeError):
        with trace.tracing(trace.Recorder()):
            assert powerdenom.cli.main is not before[("powerdenom.cli", "main")]
            raise RuntimeError("boom")
    after = _bindings()
    assert [key for key in before if after[key] is not before[key]] == []


def test_all_workloads_pass_and_print_every_declared_metric(out_dir, capsys):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    for trace_flag, key in ((0, "end_to_end"), (1, "per_layer")):
        declared = {m["name"]: m["unit"] for m in spec[key]}
        for workload in workloads.WORKLOADS:
            argv = ["--workload", workload, "--seconds", "0", "--trace", str(trace_flag)]
            assert run.main(argv, runner=in_process) == 0
            result = last_json(capsys.readouterr().out)
            assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
            got = {name: entry["unit"] for name, entry in result["metrics"].items()}
            assert got == declared
            if not trace_flag:
                assert all(entry["value"] > 0 for entry in result["metrics"].values())


def test_a_wrong_value_raises_failure_ratio_and_the_exit_code(out_dir, capsys, monkeypatch):
    real = powerdenom.cli.nonconstant_denom

    def wrong_at_13(n):
        return SquarefreeProduct.of(()) if n == 13 else real(n)

    monkeypatch.setattr(powerdenom.cli, "nonconstant_denom", wrong_at_13)
    code = run.main(["--workload", "bfile", "--seconds", "0"], runner=in_process)
    printed = capsys.readouterr().out
    result = last_json(printed)
    assert code != 0
    assert result["correct"] is False
    assert 0 < result["failed"] < result["attempted"]
    ratio_line = next(line for line in printed.splitlines() if "failure_ratio" in line)
    assert float(ratio_line.split()[2]) > 0
    assert "('DD', 13)" in printed


def test_a_wrong_am_integer_fails_the_grid_check(out_dir, capsys, monkeypatch):
    real = powerdenom.powersum.am_integer

    def off_by_one_at_n5(cache, m, r, n):
        got = real(cache, m, r, n)
        return powerdenom.powersum.AMInteger(m, r, n, got.value + (n == 5))

    monkeypatch.setattr(powerdenom.powersum, "am_integer", off_by_one_at_n5)
    code = run.main(["--workload", "grid", "--seconds", "0"], runner=in_process)
    result = last_json(capsys.readouterr().out)
    assert code != 0
    assert result["correct"] is False and result["failed"] > 0


def test_a_count_that_differs_between_traced_repetitions_fails_the_run(out_dir, capsys):
    traced_seen = []

    def drifting(**kwargs):
        record = in_process(**kwargs)
        if record["traced"]:
            traced_seen.append(record)
            record["layers"]["digits.digit_sum_calls"] += len(traced_seen) == 2
        return record

    code = run.main(["--workload", "bfile", "--seconds", "0", "--trace", "1"], runner=drifting)
    printed = capsys.readouterr().out
    assert len(traced_seen) >= 2
    assert code != 0
    assert last_json(printed)["correct"] is False
    assert "digits.digit_sum_calls differ between traced repetitions" in printed


def test_repetition_count_comes_from_seconds_not_from_speed(out_dir, capsys):
    calls = []

    def counting(**kwargs):
        calls.append(kwargs["workload"])
        return in_process(**kwargs)

    want = run.repetitions("bfile", 6, traced=False)
    assert want == int(6 / run.REP_COST_S["bfile"]) > run.MIN_REPS
    assert run.main(["--workload", "bfile", "--seconds", "6"], runner=counting) == 0
    assert len(calls) == want
    assert run.repetitions("bfile", 0, traced=False) == run.MIN_REPS
    assert run.repetitions("bfile", 0, traced=True) == run.MIN_TRACED_REPS


def test_missing_sources_exit_nonzero_without_a_result(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(run, "SRC", str(tmp_path))
    assert run.main(["--workload", "grid"]) == 2
    assert capsys.readouterr().out == ""


def test_inputs_are_seeded_and_sparse_indices_are_distinct():
    for workload in workloads.WORKLOADS:
        assert workloads.make_inputs(workload, 7) == workloads.make_inputs(workload, 7)
    queries = workloads.make_inputs("sparse", 7)
    assert queries != workloads.make_inputs("sparse", 8)
    lo, hi = workloads.SPARSE_BAND
    assert len({n for _, n in queries}) == len(queries)
    assert all(lo <= n < hi for _, n in queries)
    assert all(n % 2 for seq_id, n in queries if seq_id == "DDQ")
    assert all(n % 2 == 0 for seq_id, n in queries if seq_id == "DBQ")


def test_tail_takes_the_highest_percentile_with_ten_samples_beyond():
    assert run.tail(list(range(1, 1001))) == (99, 990, 10)
    assert run.tail(list(range(1, 200))) == (90, 180, 19)
    assert run.tail([5, 1, 3]) == (100, 5, 0)


class StepClock:
    """Advances by ``step`` at every reading, so each gauge sample takes ``step``."""

    def __init__(self, step):
        self.now = 0
        self.step = step

    def __call__(self):
        self.now += self.step
        return self.now


def test_gauge_scales_items_by_the_reference_time_next_to_them():
    nominal = gauge.NOMINAL_NS
    clock = StepClock(nominal)  # the host at the reference's nominal speed
    g = gauge.Gauge(clock)
    assert g.setup_scale() == 1.0
    marks = [g.between() for _ in range(4)]  # no sample due yet
    for _ in range(gauge.WINDOW):
        g.sample()
    clock.step = 2 * nominal  # then the host runs at half speed
    for _ in range(2 * gauge.WINDOW):
        g.sample()
    marks.append(g.between())
    scales = g.scales(marks)
    assert scales[:4] == [1.0] * 4
    assert scales[4] == 0.5
    assert g.spent_ns == sum(g.samples)
