"""Layered benchmark of powerdenom: end-to-end metrics, or per-layer ones.

    python3 perfbench/run.py                       # all four workloads
    python3 perfbench/run.py --workload sparse --seed 3 --seconds 10 --trace 0

Each repetition of a workload runs in a fresh interpreter (``rep.py``), one
at a time, with no pool.  The number of repetitions is fixed before the
first one starts: ``--seconds`` divided by the workload's nominal cost in
``REP_COST_S``, and at least ``MIN_REPS``.  It never depends on how fast the
repetitions turn out to be, so a faster program takes its medians from as
many samples as a slower one.  The first repetition also checks every value
after its timed pass; the others must produce byte-identical outputs.

``--trace 0`` prints the end-to-end metrics.  Timings and set-up time are
scaled to a nominal host speed by a reference computation timed between the
items (``gauge.py``), then taken as medians over the repetitions, as is peak
RSS.  ``--trace 1`` alternates untraced and traced repetitions and prints the
per-layer metrics plus ``trace.overhead_ratio``; a count or ratio that
differs between traced repetitions fails the run.  With one ``--workload``
the last stdout line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is 0
only when every item passed its checks, 1 when one did not, and 2 when the
program's sources are missing.  Results, with python version, nproc and
commit, also go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import compileall
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

if __name__ == "__main__":
    sys.path.insert(0, ROOT)

from perfbench.workloads import WORKLOADS  # noqa: E402

MIN_REPS = 5
MIN_TRACED_REPS = 6  # three untraced, three traced
# Nominal set-up plus timed-pass seconds of one untraced repetition, as
# measured in the slower periods of a shared 2-vCPU host with Python 3.11
# when the benchmark was defined, gauge samples included.  Only the
# repetition count is derived from it; no timing is scaled by it.
REP_COST_S = {"bfile": 0.42, "sparse": 0.9, "oracle": 1.0, "grid": 0.9}
WALL_LIMIT_S = 150  # stop starting repetitions after this; the run must end within 180 s

UNITS = {
    "setup_s": "s",
    "items_per_s": "1/s",
    "item_p50_us": "us",
    "item_tail_us": "us",
    "peak_rss_mb": "MB",
}

PERCENTILES = (50, 90, 95, 99, 99.5, 99.9, 99.95, 99.99)

def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def tail(samples: list[int]) -> tuple[float, int, int]:
    """(percentile, value, samples beyond it) at the highest percentile of
    ``PERCENTILES`` with at least ten samples beyond it, by nearest rank.

    With fewer than eleven samples no percentile qualifies; the maximum is
    returned as percentile 100 with nothing beyond.
    """
    ordered = sorted(samples)
    count = len(ordered)
    best = (100, ordered[-1], 0)
    for pct in PERCENTILES:
        rank = math.ceil(pct / 100 * count)
        if count - rank >= 10:
            best = (pct, ordered[rank - 1], count - rank)
    return best


def spawn_rep(workload, seed, traced, check, spans_path, timeout) -> dict:
    """Run one repetition in a fresh interpreter and return its record."""
    cmd = [
        sys.executable,
        "-I",
        os.path.join(HERE, "rep.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--traced", str(int(traced)),
        "--check", str(int(check)),
    ]
    if spans_path:
        cmd += ["--spans", spans_path]
    cmd += ["--started", repr(time.monotonic())]
    proc = subprocess.run(
        cmd, cwd=ROOT, capture_output=True, text=True, timeout=timeout
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(
            f"{workload} repetition exited {proc.returncode}: "
            f"{proc.stderr.strip()[-2000:]}"
        )
    return json.loads(lines[-1])


def repetitions(workload: str, seconds: float, traced: bool) -> int:
    """How many repetitions a run of ``seconds`` makes, fixed in advance."""
    least = MIN_TRACED_REPS if traced else MIN_REPS
    return max(least, int(seconds / REP_COST_S[workload]))


def run_workload(workload: str, seed: int, count: int, traced: bool, runner, deadline):
    """``count`` repetitions of one workload, fewer only past ``deadline``."""
    reps: list[dict] = []
    spans_path = os.path.join(OUT, f"{workload}.spans.jsonl") if traced else None
    least = MIN_TRACED_REPS if traced else MIN_REPS
    while len(reps) < count and (len(reps) < least or time.monotonic() < deadline):
        traced_rep = traced and len(reps) % 2 == 1
        rec = runner(
            workload=workload,
            seed=seed,
            traced=traced_rep,
            check=not reps,
            spans_path=spans_path if traced_rep and len(reps) == 1 else None,
            timeout=max(deadline + 25 - time.monotonic(), 5),
        )
        reps.append(rec)
    return reps


def summarize(workload: str, reps: list[dict], traced: bool) -> dict:
    """Correctness totals and the metrics of one workload's repetitions."""
    first = reps[0]
    failed = sum(rec["failed"] for rec in reps)
    problems = [f for rec in reps for f in rec["failures"]]
    for rec in reps[1:]:
        if rec["digest"] != first["digest"]:
            # outputs differ from the checked ones: every item is suspect
            failed += rec["attempted"]
            problems.append(f"repetition output differs from the checked one (seed {rec['seed']})")
    traced_reps = [rec for rec in reps if rec["traced"]]
    for rec in traced_reps[1:]:
        differing = [
            name
            for name, value in rec["layers"].items()
            if layer_unit(name) != "s" and value != traced_reps[0]["layers"][name]
        ]
        if differing:
            # the same seed must make the same calls; this pass did other work
            failed += rec["attempted"]
            problems.append(f"{', '.join(differing)} differ between traced repetitions")
    attempted = sum(rec["attempted"] for rec in reps)
    summary = {
        "workload": workload,
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "failure_ratio": failed / attempted,
        "reps": len(reps),
        "check_s": first["check_s"],
    }
    plain = [rec for rec in reps if not rec["traced"]]
    if not traced:
        # Every repetition times the same items in the same state, scaled to
        # the gauge's nominal host speed (gauge.py).  Each item's time is its
        # median over the repetitions, and set-up is the median set-up.  A
        # minimum would pick the items whose gauge samples read slow.
        item_ns = [statistics.median(times) for times in zip(*(rec["item_ns"] for rec in plain))]
        pct, tail_ns, beyond = tail(item_ns)
        summary.update(tail_percentile=pct, tail_beyond=beyond, timed_items=len(item_ns))
        summary["host_speed"] = statistics.median(rec["host_speed"] for rec in plain)
        summary["metrics"] = {
            "setup_s": statistics.median(rec["setup_s"] for rec in plain),
            "items_per_s": len(item_ns) / (sum(item_ns) / 1e9),
            "item_p50_us": statistics.median(item_ns) / 1000,
            "item_tail_us": tail_ns / 1000,
            "peak_rss_mb": statistics.median(rec["peak_rss_mb"] for rec in plain),
        }
    else:
        metrics = {
            name: min(rec["layers"][name] for rec in traced_reps)
            for name in traced_reps[0]["layers"]
        }
        metrics["trace.overhead_ratio"] = min(rec["pass_s"] for rec in traced_reps) / min(
            rec["pass_s"] for rec in plain
        )
        summary["metrics"] = metrics
    summary["units"] = {
        name: UNITS.get(name) or layer_unit(name) for name in summary["metrics"]
    }
    summary["problems"] = problems[:5]
    return summary


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": _commit(),
    }


def _commit() -> str:
    """HEAD of the checkout, or "unknown" outside a git work tree."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def report(summary: dict, env: dict) -> None:
    """Print every metric by name and unit, one per line."""
    name = summary["workload"]
    for metric, value in summary["metrics"].items():
        note = ""
        if metric == "item_tail_us":
            note = (
                f"  (p{summary['tail_percentile']:g}: {summary['tail_beyond']} of "
                f"{summary['timed_items']} items, each its median over the repetitions)"
            )
        elif metric == "items_per_s":
            note = f"  ({summary['timed_items']} items, each its median over the repetitions)"
        elif metric == "setup_s":
            note = f"  (host ran at {summary['host_speed']:.3g}x the gauge's nominal speed)"
        print(f"{name:7} {metric:30} {value:<14.6g} {summary['units'][metric]}{note}")
    print(
        f"{name:7} {'failure_ratio':30} {summary['failure_ratio']:<14.6g} ratio"
        f"  ({summary['failed']} of {summary['attempted']} items, {summary['reps']} repetitions)"
    )
    for problem in summary["problems"]:
        print(f"{name:7} problem: {problem}")
    print(
        f"{name:7} env python={env['python']} nproc={env['nproc']} commit={env['commit']}"
    )


def main(argv: list[str] | None = None, runner=None) -> int:
    parser = argparse.ArgumentParser(description="Layered benchmark of powerdenom.")
    parser.add_argument("--workload", choices=WORKLOADS, default=None,
                        help="one workload (default: all four, one after another)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0,
                        help="nominal set-up plus timed-pass time per workload; "
                             "fixes the number of repetitions")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from a traced run")
    args = parser.parse_args(argv)

    package = os.path.join(SRC, "powerdenom")
    if not os.path.isfile(os.path.join(package, "__init__.py")):
        print(f"error: program sources not found at {package}", file=sys.stderr)
        return 2
    if runner is None:
        # byte-compile once, so no repetition's set-up pays for it
        compileall.compile_dir(package, quiet=1)
        runner = spawn_rep
    os.makedirs(OUT, exist_ok=True)

    env = environment()
    workloads = [args.workload] if args.workload else list(WORKLOADS)
    summaries = []
    for name in workloads:
        deadline = time.monotonic() + WALL_LIMIT_S
        count = repetitions(name, args.seconds, bool(args.trace))
        reps = run_workload(name, args.seed, count, bool(args.trace), runner, deadline)
        summary = summarize(name, reps, bool(args.trace))
        summaries.append(summary)
        report(summary, env)
        suffix = "trace" if args.trace else "e2e"
        with open(os.path.join(OUT, f"{name}.{suffix}.json"), "w", encoding="utf-8") as f:
            saved = [{k: v for k, v in rec.items() if not k.endswith("item_ns")} for rec in reps]
            json.dump({"env": env, "seed": args.seed, "summary": summary, "reps": saved}, f, indent=1)

    correct = all(s["correct"] for s in summaries)
    if args.workload:
        only = summaries[0]
        print(json.dumps({
            "correct": only["correct"],
            "attempted": only["attempted"],
            "failed": only["failed"],
            "metrics": {
                name: {"value": value, "unit": only["units"][name]}
                for name, value in only["metrics"].items()
            },
        }))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
