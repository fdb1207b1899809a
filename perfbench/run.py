"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload fresh-mine --seed 1 --seconds 30 \
        --trace 0

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  A traced run
measures the workload twice, untraced and then traced on a fresh
set-up, so it can also report the tracing overhead.  Every answer is
checked against a reference computed outside the timed region; a
mismatch, or a missing program tree, exits non-zero.
``--corrupt-answer`` corrupts one copied answer before it is checked,
which must make the run fail.  Spans and the run's stamp are written
under ``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(HERE))

if not (SRC / "repro" / "__init__.py").is_file():
    sys.exit(f"perfbench: no program tree at {SRC}")
sys.path.insert(0, str(SRC))

from common import (  # noqa: E402
    OUT_DIR,
    SETUP_REPEATS,
    AnswerLog,
    GcMonitor,
    base_stamp,
    cpu_steal_s,
    metric,
)
from layers import empty_layer_metrics, set_metrics  # noqa: E402
from tracer import Tracer  # noqa: E402

#: The program runs on one CPU.  Its serving threads share the GIL, so a
#: second CPU bought mostly cross-CPU thread wake-ups; on a 2-vCPU virtual
#: machine, keeping both busy made the hypervisor steal 25-35% of the
#: CPU time in bursts and moved millisecond latencies up to 3x between
#: runs of the same seed.  Pinned, steal stays near 2%.
PIN_CPUS = 1

#: End-to-end metrics and their units (the ``--trace 0`` output).
END_TO_END = (
    ("setup_s", "s"),
    ("query_p50_ms", "ms"),
    ("query_tail_ms", "ms"),
    ("query_qps", "1/s"),
    ("sustained_qps", "1/s"),
    ("rss_mb", "MB"),
)


def workloads() -> dict:
    import fresh_mine
    import warm_zipf

    return {wl.NAME: wl for wl in (fresh_mine, warm_zipf)}


def one_pass(wl, args, tracer, gcm, n_setups: int) -> dict:
    """Set up ``n_setups`` times (keeping the last), measure, check."""
    setups = []
    state = None
    for _ in range(n_setups):
        if state is not None:
            wl.teardown(state)
            state = None
            gc.collect()
        state, parts = wl.setup(args.seed, tracer)
        state["fit"] = parts.pop("fit")
        setups.append(parts)
    gc.collect()
    answers = AnswerLog(corrupt=args.corrupt_answer)
    steal = cpu_steal_s()
    try:
        out = wl.measure(state, args.seed, args.seconds, tracer, answers, gcm)
    finally:
        wl.teardown(state)
    out["stamp"]["cpu_steal_s"] = cpu_steal_s() - steal
    out["mismatches"] = answers.check(out.pop("reference"))
    out["checked"] = len(answers.records)
    out["setups"] = setups
    out["e2e"]["setup_s"] = statistics.median(p["setup_s"] for p in setups)
    return out


def main(argv=None) -> int:
    table = workloads()
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(table))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--corrupt-answer", action="store_true",
                        help="corrupt one copied answer (self-test: must fail)")
    args = parser.parse_args(argv)
    wl = table[args.workload]
    stamp = base_stamp(args.workload, args.seed, args.seconds,
                       bool(args.trace))
    cpus = sorted(os.sched_getaffinity(0))[:PIN_CPUS]
    os.sched_setaffinity(0, cpus)
    stamp["pinned_cpus"] = cpus

    with GcMonitor() as gcm:
        main_pass = one_pass(wl, args, None, gcm, SETUP_REPEATS)
        gc_metrics = gcm.metrics()
        passes = [main_pass]
        if args.trace:
            gcm.pauses.clear()
            tracer = Tracer()
            traced = one_pass(wl, args, tracer, gcm, 1)
            gc_metrics = gcm.metrics()
            passes.append(traced)
            tracer.dump(OUT_DIR / f"spans-{args.workload}-{args.seed}.jsonl")

    mismatches = [m for p in passes for m in p["mismatches"]]
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    stamp.update(main_pass["stamp"])
    stamp["setups"] = main_pass["setups"]
    stamp["checked_answers"] = sum(p["checked"] for p in passes)
    stamp["mismatches"] = mismatches[:10]

    if args.trace:
        traced = passes[1]
        metrics = empty_layer_metrics()
        values = dict(traced["layers"])
        for key in ("mipindex.build_s", "calibration.calibrate_s",
                    "cache.warm_s"):
            parts = [p[key] for p in main_pass["setups"] if key in p]
            if parts:
                values[key] = statistics.median(parts)
        untraced_p50 = main_pass["e2e"]["query_p50_ms"]
        values["trace.overhead_frac"] = (
            traced["e2e"]["query_p50_ms"] / untraced_p50 - 1.0
            if untraced_p50 else 0.0
        )
        values["failed_frac"] = failed / max(attempted, 1)
        set_metrics(metrics, values)
        metrics.update(gc_metrics)
        stamp["traced_e2e"] = traced["e2e"]
    else:
        metrics = {
            name: metric(main_pass["e2e"][name], unit)
            for name, unit in END_TO_END
        }
    stamp["e2e"] = main_pass["e2e"]

    OUT_DIR.mkdir(parents=True, exist_ok=True)
    (OUT_DIR / f"stamp-{args.workload}-{args.seed}-t{args.trace}.json"
     ).write_text(json.dumps(stamp, indent=2, default=str) + "\n")
    print(json.dumps({"stamp": stamp}, default=str))
    correct = not mismatches
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    if not correct:
        print(f"perfbench: {len(mismatches)} answers differ from their "
              f"reference: {mismatches[:3]}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
