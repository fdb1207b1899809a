"""Pieces every workload shares: statistics, answer checks, GC and memory
probes, and the stamp written beside every result."""

from __future__ import annotations

import gc
import os
import platform
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
#: Where runs leave their span dumps and stamps (inside the checkout).
OUT_DIR = ROOT / ".perfbench"

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: Probe queries for ``Colarm.calibrate`` (fixed seed: calibration is
#: part of the program's set-up, not of the workload's inputs).
CALIBRATION_PROBES = 4
CALIBRATION_SEED = 0


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile; 0.0 for an empty sample."""
    if len(values) == 0:
        return 0.0
    return float(np.percentile(np.asarray(values, dtype=float), q))


def beyond(n_samples: int, q: float) -> int:
    """How many of ``n_samples`` lie beyond the ``q``-th percentile."""
    return int(n_samples * (100.0 - q) / 100.0)


def metric(value, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


class AnswerLog:
    """Digests of served answers, checked against references afterwards.

    A digest is ``(len, hash(tuple(rules)))``: equal digests mean equal
    rule lists in equal order (``Rule`` is a frozen dataclass), so the
    check is byte-identity up to hash collisions.

    With ``memo`` set, lists made of rule objects already digested, in
    the same order, reuse the earlier digest — an in-process cache hit
    returns a shallow copy of the stored list, and re-hashing it on the
    event loop would bill the check to the requests behind it.  The memo
    keeps those lists alive so object ids stay unique, and is dropped
    wholesale once it holds too many rules.  Workloads whose answers are
    always new objects leave it off: it would only keep old answers alive
    for the collector to traverse.

    With ``corrupt`` set the first recorded answer is copied and one
    rule removed (or one bogus rule added) before it is digested: the
    self-test that the check can fail.
    """

    MEMO_MAX_RULES = 100_000

    def __init__(self, corrupt: bool = False):
        self.corrupt = corrupt
        self.memo = False
        self.records: list[tuple] = []
        self._memo: dict[tuple, tuple] = {}
        self._memo_rules = 0

    def record(self, key, family: str, rules) -> None:
        if self.corrupt and not self.records:
            rules = list(rules)
            if rules:
                rules.pop()
            else:
                rules.append(None)
        self.records.append((key, family, self.digest(rules)))

    def digest(self, rules) -> tuple:
        if not self.memo:
            return _content(rules)
        ids = (len(rules), hash(tuple(map(id, rules))))
        hit = self._memo.get(ids)
        if hit is not None:
            return hit[1]
        value = _content(rules)
        if self._memo_rules + len(rules) > self.MEMO_MAX_RULES:
            self._memo.clear()
            self._memo_rules = 0
        self._memo[ids] = (rules, value)
        self._memo_rules += len(rules)
        return value

    def check(self, reference) -> list[str]:
        """Compare every record with ``reference(key, family)``, the
        expected rule list, computed once per distinct pair.  Returns the
        mismatch descriptions (empty: every answer matched).
        """
        self._memo.clear()
        expected: dict[tuple, tuple] = {}
        mismatches = []
        for key, family, got in self.records:
            if (key, family) not in expected:
                expected[key, family] = _content(reference(key, family))
            want = expected[key, family]
            if want != got:
                mismatches.append(
                    f"query {key} ({family}): got {got[0]} rules, "
                    f"reference {want[0]}"
                )
        return mismatches


def _content(rules) -> tuple:
    return (len(rules), hash(tuple(rules)))


class GcMonitor:
    """Collector pauses seen through ``gc.callbacks`` while active."""

    def __init__(self):
        self.pauses: list[tuple[int, float]] = []   # (generation, seconds)
        self.active = False
        self._start: float | None = None

    def _callback(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._start = time.perf_counter()
        elif self._start is not None:
            if self.active:
                self.pauses.append(
                    (info["generation"], time.perf_counter() - self._start)
                )
            self._start = None

    def __enter__(self) -> "GcMonitor":
        gc.enable()
        gc.callbacks.append(self._callback)
        return self

    def __exit__(self, *exc_info) -> None:
        gc.callbacks.remove(self._callback)

    def metrics(self) -> dict:
        durations = [d for _, d in self.pauses]
        return {
            "gc.pauses": metric(len(durations), "count"),
            "gc.gen2_pauses": metric(
                sum(1 for g, _ in self.pauses if g == 2), "count"
            ),
            "gc.pause_max_ms": metric(
                max(durations, default=0.0) * 1e3, "ms"
            ),
            "gc.pause_total_ms": metric(sum(durations) * 1e3, "ms"),
        }


def rss_mb() -> float:
    """This process's resident set (``VmRSS``) in MB."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmRSS:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmRSS not found in /proc/self/status")


def cpu_steal_s() -> float:
    """Seconds of CPU time the hypervisor took from this host's CPUs so
    far (``/proc/stat`` steal column; 0 where not virtualised)."""
    with open("/proc/stat") as fh:
        fields = fh.readline().split()
    return int(fields[8]) / os.sysconf("SC_CLK_TCK")


def git_sha() -> str:
    """The checked-out commit, read from ``.git`` without running git
    (the benchmark may run from a plain copy of the tree)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.exists():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def base_stamp(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_sha": git_sha(),
    }


def calibrated_engine(spec, reference_weights: dict, tracer=None):
    """Generate ``spec``'s table, build a ``Colarm`` over it, calibrate
    it and install ``reference_weights`` over the fit: the set-up every
    workload starts with.

    The optimizer prices with the reference weights, not with the run's
    own fit.  One fit prices from one timing of each probe plan, and on
    a shared host the fits of two set-ups of the same program differ by
    ~10% per weight; that flipped the pick on a third of the fresh-mine
    queries, some between a 10 ms and a 200 ms plan, and moved a run's
    figures by up to 50%.  The reference weights are the median of nine
    fits on the reference host; features they do not name keep the
    fitted value.  Calibration still runs and is timed here, and
    :func:`pick_flips` reports how far this run's fit would have moved
    the picks.

    Returns the engine and the timed parts, with the ``fit``.
    """
    from repro.core.costs import CostWeights
    from repro.core.engine import Colarm

    start = time.perf_counter()
    table = spec.make_table()
    engine, build_s = timed(
        Colarm, table, primary_support=spec.primary_support
    )
    if tracer is not None:
        tracer.wrap(engine, "calibrate", "calibrate")
    report, calibrate_s = timed(
        engine.calibrate, n_probes=CALIBRATION_PROBES, seed=CALIBRATION_SEED
    )
    engine.optimizer.set_weights(
        CostWeights({**report.weights.weights, **reference_weights})
    )
    return engine, {
        "setup_s": time.perf_counter() - start,
        "mipindex.build_s": build_s,
        "calibration.calibrate_s": calibrate_s,
        "fit": report.weights,
    }


def pick_flips(engine, fit, queries) -> int:
    """How many of ``queries`` the optimizer would send to another plan
    if it priced with the run's own calibration ``fit`` instead of the
    installed weights (uncached picks; called outside timed regions)."""
    optimizer = engine.optimizer
    installed = optimizer.cost_model.weights

    def picks():
        return [optimizer.choose(q, use_cache=False).kind for q in queries]

    pinned = picks()
    optimizer.set_weights(fit)
    try:
        own = picks()
    finally:
        optimizer.set_weights(installed)
    return sum(a is not b for a, b in zip(pinned, own))


def timed(fn, *args, **kwargs):
    """``(result, seconds)`` of one call."""
    start = time.perf_counter()
    out = fn(*args, **kwargs)
    return out, time.perf_counter() - start
