"""One repetition of one workload, run in a fresh interpreter.

The package keeps module-level state that never shrinks (the sieve cache in
``digits``, the unbounded ``lru_cache`` scans in ``denom``), so a second
repetition in the same process would time memo hits and inherit the first
one's peak RSS.  ``run.py`` therefore starts this script once per
repetition.  It prints one JSON record on its last line of stdout:

    python3 perfbench/rep.py --workload bfile --seed 1 --started <monotonic>

``--started`` is the parent's ``time.monotonic()`` just before it started
this interpreter (the clock is system-wide), so ``setup_s`` covers the
interpreter start, the package import and the input generation.
"""

from __future__ import annotations

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if __name__ == "__main__":
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import time  # noqa: E402

FAILURE_SAMPLE = 5


def peak_rss_mb() -> float:
    """Peak resident set size of this interpreter, in MiB.

    Read from ``VmHWM`` where Linux provides it: Linux carries
    ``ru_maxrss`` across ``execve``, so a child started from a larger
    parent would report the parent's size instead of its own.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def run_rep(
    workload: str,
    seed: int,
    traced: bool = False,
    check: bool = False,
    spans_path: str | None = None,
    started: float | None = None,
    size: int | None = None,
) -> dict:
    """Set up, run the timed pass, optionally check; return the record."""
    if started is None:
        started = time.monotonic()
    import powerdenom  # noqa: F401  (the package and its command line, as a user runs it)
    import powerdenom.cli  # noqa: F401

    from perfbench import gauge as gauges
    from perfbench import trace, workloads

    inputs = workloads.make_inputs(workload, seed, size)
    setup_s = time.monotonic() - started

    recorder = trace.Recorder(workload) if traced else None
    if recorder is None:
        gauge = gauges.Gauge()
        start = time.perf_counter()
        done = workloads.run_pass(workload, inputs, gauge=gauge)
        pass_s = time.perf_counter() - start - gauge.spent_ns / 1e9
    else:
        start = time.perf_counter()
        with trace.tracing(recorder):
            done = workloads.run_pass(workload, inputs, recorder)
        pass_s = time.perf_counter() - start
    rss_mb = peak_rss_mb()

    failures = list(done.failures)
    check_s = 0.0
    if check:
        start = time.perf_counter()
        failures += workloads.check_values(workload, done.outputs)
        check_s = time.perf_counter() - start

    record = {
        "workload": workload,
        "seed": seed,
        "traced": traced,
        "checked": check,
        "setup_s": setup_s,
        "pass_s": pass_s,  # without the gauge's samples
        "check_s": check_s,
        "attempted": workloads.attempted(workload, inputs),
        "item_ns": done.item_ns,
        "failed": len(failures),
        "failures": [f"{item}: {reason}" for item, reason in failures[:FAILURE_SAMPLE]],
        "peak_rss_mb": rss_mb,
        "digest": done.digest(),
    }
    if recorder is None:
        # times as at the gauge's nominal host speed; raw ones kept for reference
        scales = gauge.scales(done.marks)
        record["raw_item_ns"] = done.item_ns
        record["item_ns"] = [ns * k for ns, k in zip(done.item_ns, scales)]
        record["raw_setup_s"] = setup_s
        record["setup_s"] = setup_s * gauge.setup_scale()
        record["host_speed"] = gauge.host_speed()
    else:
        record["layers"] = recorder.layer_metrics(done.lines)
        if spans_path:
            recorder.write_spans(spans_path)
    return record


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--traced", type=int, choices=(0, 1), default=0)
    parser.add_argument("--check", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", default=None, help="write the traced spans here")
    parser.add_argument("--started", type=float, default=None)
    args = parser.parse_args(argv)
    record = run_rep(
        args.workload,
        args.seed,
        traced=bool(args.traced),
        check=bool(args.check),
        spans_path=args.spans,
        started=args.started,
    )
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
