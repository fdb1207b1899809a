"""Smoke tests for the benchmark itself (not the program).

    python -m pytest -q perfbench/tests

The end-to-end cases run the real command on a short timed region, so
this file takes about a minute.
"""

from __future__ import annotations

import asyncio
import json
import re
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

from common import AnswerLog  # noqa: E402
from layers import PER_LAYER  # noqa: E402
from loadgen import Rung, Sample, open_loop, poisson_offsets, sustained_qps  # noqa: E402
from tracer import Tracer  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def bench_json() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(*args, cwd=ROOT, timeout=170):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=timeout,
    )


# -- BENCHMARK.json -------------------------------------------------------


def test_benchmark_json_matches_the_code():
    import run

    spec = bench_json()
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert spec["paths"] == ["perfbench"]
    assert 1 <= spec["run_seconds"] <= 60
    assert {w["name"] for w in spec["workloads"]} == set(run.workloads())
    e2e = [(m["name"], m["unit"]) for m in spec["end_to_end"]]
    assert e2e == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(
        PER_LAYER
    )
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    names += [w["name"] for w in spec["workloads"]]
    assert len(names) == len(set(names))
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert NAME.match(m["name"]) and UNIT.match(m["unit"]), m
        assert m["better"] in ("lower", "higher")
    for m in spec["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
    for w in spec["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200
        assert "\n" not in w["why"]


# -- the tracer -----------------------------------------------------------


class _Layered:
    def outer(self, q):
        time.sleep(0.002)
        return self.inner(q)

    def inner(self, q):
        time.sleep(0.003)
        return q


def test_self_time_excludes_children():
    tracer = Tracer()
    obj = _Layered()
    tracer.wrap(obj, "inner", "inner")
    tracer.wrap(obj, "outer", "outer")
    with tracer.span("request", req=7):
        obj.outer("x")
    selfs = tracer.self_times()
    spans = {name: (sid, parent, req)
             for sid, name, _s, _e, parent, req in tracer.spans}
    assert spans["inner"][1] == spans["outer"][0]
    assert spans["outer"][1] == spans["request"][0]
    assert {req for _, _, req in spans.values()} == {7}
    total = sum(tracer.durations("request"))
    assert sum(selfs.values()) == pytest.approx(total, rel=1e-9)
    assert selfs[spans["inner"][0]] >= 0.003
    assert selfs[spans["outer"][0]] < tracer.durations("outer")[0]


def test_calls_on_another_thread_link_through_the_bound_object():
    tracer = Tracer()
    obj = _Layered()
    tracer.wrap(obj, "inner", "inner", key_arg=0)
    key = object()
    sid = tracer.new_id()
    prev = tracer.bind(key, 3, sid)
    worker = threading.Thread(target=obj.inner, args=(key,))
    worker.start()
    worker.join(timeout=10)
    assert not worker.is_alive()
    tracer.restore(key, prev)
    (_, name, _s, _e, parent, req), = tracer.spans
    assert (name, parent, req) == ("inner", sid, 3)


# -- answer checks --------------------------------------------------------


def test_answer_log_passes_equal_and_fails_corrupted_answers():
    rules = [("a", i) for i in range(5)]
    clean = AnswerLog()
    clean.memo = True
    clean.record(0, "MIP", list(rules))
    clean.record(0, "MIP", list(rules))          # memo: same objects
    assert clean.check(lambda *_: list(rules)) == []
    bad = AnswerLog(corrupt=True)
    bad.record(0, "MIP", list(rules))
    bad.record(1, "MIP", [])
    assert len(bad.check(lambda k, *_: list(rules) if k == 0 else [])) == 1


# -- the load generator ---------------------------------------------------


def test_poisson_schedule_is_seeded_and_counted():
    a = poisson_offsets(50.0, 2.0, np.random.default_rng(1))
    b = poisson_offsets(50.0, 2.0, np.random.default_rng(1))
    assert len(a) == 100 and np.array_equal(a, b)
    assert np.all(np.diff(a) >= 0) and a[-1] < 2.0


def test_open_loop_times_from_due_and_counts_failures():
    async def fire(item, _due):
        await asyncio.sleep(0.01)
        if item == "bad":
            raise RuntimeError("boom")
        return item

    samples = asyncio.run(open_loop([0.0, 0.005, 0.01], ["a", "bad", "c"],
                                    fire))
    assert [s.ok for s in samples] == [True, False, True]
    assert all(s.latency >= 0.01 and s.late >= 0 for s in samples)


def test_rung_verdicts_and_sustained_rate():
    def rung(rate, latency, n=100, ok=True):
        samples = [Sample(i / rate, i / rate, i / rate + latency, ok, None)
                   for i in range(n)]
        return Rung(rate, n / rate, samples, 90.0, 50.0)

    fast, slow = rung(10.0, 0.01), rung(20.0, 0.2)
    assert fast.passed and not slow.passed
    assert not rung(5.0, 0.01, ok=False).passed
    assert sustained_qps([fast, slow]) == pytest.approx(fast.achieved_qps)
    assert sustained_qps([slow]) == 0.0


def test_windowed_latency_ignores_one_stalled_window():
    # 10 req/s for 10 s; every request of the fourth second is stalled.
    samples = [Sample(i / 10, i / 10, i / 10 + (1.0 if 30 <= i < 40
                                                else 0.01), True, None)
               for i in range(100)]
    rung = Rung(10.0, 10.0, samples, 75.0, 50.0)
    per_window = rung.window_ms(50, 1.0)
    assert len(per_window) == 10
    assert per_window[3] == pytest.approx(1000.0)
    assert rung.windowed_ms(50, 1.0) == pytest.approx(10.0)
    assert rung.windowed_ms(75, 1.0) == pytest.approx(10.0)


# -- the command ----------------------------------------------------------


def test_traced_run_prints_every_per_layer_metric():
    proc = run_bench("--workload", "fresh-mine", "--seed", "3",
                     "--seconds", "1", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
    assert [(k, v["unit"]) for k, v in out["metrics"].items()] == list(
        PER_LAYER
    )
    assert out["metrics"]["operators.executions"]["value"] >= 1
    assert 0.0 <= out["metrics"]["trace.residual_frac"]["value"] < 0.2


def test_corrupted_answer_fails_the_run():
    proc = run_bench("--workload", "fresh-mine", "--seed", "3",
                     "--seconds", "1", "--trace", "0", "--corrupt-answer")
    assert proc.returncode != 0
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert out["correct"] is False


def test_bare_benchmark_directory_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", "fresh-mine", "--seed", "1",
                     "--seconds", "1", "--trace", "0", cwd=tmp_path,
                     timeout=60)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
