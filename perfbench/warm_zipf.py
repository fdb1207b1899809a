"""warm-zipf: open-loop traffic into one ``QueryService`` over a warm cache.

Poisson arrivals at each rate of a fixed ladder go into an in-process
service over a chess-like table, with the cache on and warmed on a hot
pool.  Focal keys are Zipf-distributed over the hot pool plus a cold
minority drawn from a fresh pool per rung (the first request of a cold
key mines; its repeats coalesce or hit).  Hits short-circuit to the
cache, so cache serves, queueing, coalescing and the collector set
latency, and operators run only for the colds.
"""

from __future__ import annotations

import asyncio
import threading
import time

import numpy as np

from repro.core.plans import PlanKind
from repro.serving import QueryService, ServingConfig
from repro.workloads.experiments import EXPERIMENTS

from common import (
    beyond,
    calibrated_engine,
    percentile,
    pick_flips,
    rss_mb,
)
from inputs import focal_queries, fresh_copy, grid, pool_rng, zipf_draws
from layers import OperatorTally, trace_metrics
from loadgen import Rung, open_loop, poisson_offsets, sustained_qps

NAME = "warm-zipf"
SPEC = EXPERIMENTS["chess"]
CELLS = grid((0.7, 0.5), SPEC.minsupps, SPEC.minconfs)
#: The optimizer's weights (see :func:`common.calibrated_engine`): the
#: median of nine calibrations of this table on the reference host.
REFERENCE_WEIGHTS = {
    "search": 4.65e-07, "eliminate": 9.85e-09, "verify": 1.7e-07,
    "rulegen": 1.14e-06, "select": 9.3e-08, "arm": 1.24e-07,
}
CACHE_BUDGET = 64 << 20
N_HOT = 24
ZIPF_S = 1.1
#: bench_serving's mix: 15% of requests go to cold keys, but about one in
#: a hundred is a key's first, fresh-mined occurrence; the rest of its
#: requests coalesce or hit.
COLD_FRACTION = 0.15
COLD_KEYS = 0.01
#: Offered rates (requests per second); the nominal one gets
#: ``NOMINAL_SHARE`` of the timed region, the others split the rest, and
#: its latencies are the end-to-end ones.
LADDER = (40.0, 160.0, 1280.0)
NOMINAL = 1
NOMINAL_SHARE = 0.75
#: Latency limit on the tail for ``sustained_qps``.
LIMIT_MS = 50.0
#: p75, not the p99 that ~1,200 samples would support: from p90 up the
#: tail of these ~3 ms cache serves moved 36-130% between runs of the
#: same seed with the host's CPU steal (GIL hand-offs and thread
#: wake-ups, not work); p75 moved ~11%.  Pauses: the gc layer.
TAIL_Q = 75.0
#: The nominal rung's latencies are reported as the median over windows
#: of this length of each window's p50 and tail.
WINDOW_S = 1.0
#: Untimed traffic on hot keys before the ladder: the first second after
#: set-up runs measurably slower (executor threads start, code and
#: allocator paths warm), and that is set-up, not serving.
WARMUP_S = 1.0


def setup(seed: int, tracer=None):
    engine, parts = calibrated_engine(SPEC, REFERENCE_WEIGHTS, tracer)
    start = time.perf_counter()
    engine.enable_cache(budget_bytes=CACHE_BUDGET)
    enable_s = time.perf_counter() - start
    hot = focal_queries(engine.table, CELLS, pool_rng(0), N_HOT)
    warm_start = time.perf_counter()
    hot_arm = sum(engine.query(q).plan is PlanKind.ARM for q in hot)
    warm_s = time.perf_counter() - warm_start
    state = {"engine": engine, "hot": hot, "rng": np.random.default_rng(seed)}
    parts["setup_s"] += enable_s + warm_s
    parts["cache.warm_s"] = warm_s
    parts["hot_arm_picks"] = hot_arm
    return state, parts


def teardown(state) -> None:
    state["engine"].close()


def _schedule(engine, pool, seconds, rng) -> list:
    """Per rung: rate, duration, arrival offsets and the pool index each
    arrival asks for (extending ``pool`` with the rung's cold keys)."""
    schedule = []
    for rung, rate in enumerate(LADDER, start=1):
        rung_s = seconds * (
            NOMINAL_SHARE if rung - 1 == NOMINAL
            else (1 - NOMINAL_SHARE) / (len(LADDER) - 1)
        )
        offsets = poisson_offsets(rate, rung_s, rng)
        n = len(offsets)
        # Every seed sends the rung's whole cold pool, spread evenly over
        # seeded positions: the fresh work is the same, the traffic
        # around it is not.
        n_cold_pool = max(2, round(n * COLD_KEYS))
        cold = focal_queries(
            engine.table, CELLS, pool_rng(rung), n_cold_pool, exclude=pool
        )
        first_cold = len(pool)
        pool += cold
        idx = zipf_draws(N_HOT, n, ZIPF_S, rng)
        slots = rng.choice(n, size=max(n_cold_pool, round(n * COLD_FRACTION)),
                           replace=False)
        idx[slots] = first_cold + np.arange(len(slots)) % n_cold_pool
        schedule.append((rate, rung_s, offsets, idx.tolist()))
    return schedule


def measure(state, seed, seconds, tracer, answers, gcm) -> dict:
    engine, rng = state["engine"], state["rng"]
    answers.memo = True
    pool = list(state["hot"])
    schedule = _schedule(engine, pool, seconds, rng)
    warm_rate = LADDER[NOMINAL]
    warmup = (
        poisson_offsets(warm_rate, WARMUP_S, rng),
        zipf_draws(N_HOT, round(warm_rate * WARMUP_S), ZIPF_S, rng).tolist(),
    )
    # One executor thread: the process runs on one CPU (``run.PIN_CPUS``).
    service = QueryService(
        engine,
        ServingConfig(max_pending=1_000_000, workers=1),
        engine_lock=threading.Lock(),
    )

    def instrument() -> None:
        tracer.wrap(service, "submit", "submit", key_arg=0)
        tracer.wrap(engine.optimizer, "choose", "choose", key_arg=0)
        tracer.wrap(engine, "query", "query", key_arg=0)
        for method in ("probe", "get_rules", "get_lattice"):
            tracer.wrap(engine.cache, method, f"cache.{method}")

    tally = OperatorTally()
    request_traces = []
    req_ids = iter(range(1 << 62))

    async def plain(item, _due):
        return await service.submit(fresh_copy(pool[item]))

    async def fire(item, due):
        q = fresh_copy(pool[item])
        if tracer is None:
            return await service.submit(q)
        req = next(req_ids)
        sid = tracer.new_id()
        prev = tracer.bind(q, req, sid)
        try:
            return await service.submit(q)
        finally:
            tracer.add(sid, "request", due, time.perf_counter(), None, req)
            tracer.restore(q, prev)

    def on_done(sample, item):
        if not sample.ok:
            return
        served = sample.result
        outcome = served.outcome
        family = "ARM" if served.plan is PlanKind.ARM else "MIP"
        answers.record(item, family, served.rules)
        trace = served.trace
        if trace.leader:    # coalesced waiters share the execution
            tally.add(outcome)
        request_traces.append((
            trace.queue_wait_s, trace.execute_s, trace.plan,
            outcome.result.elapsed if outcome.cached else None,
        ))

    rungs: list[Rung] = []
    rss = []

    # drive() returns nothing: asyncio.run's SIGINT handler holds the main
    # task, and restoring the handler formats its repr — with every
    # response in it, that took tens of seconds.
    async def drive():
        async with service:
            await open_loop(*warmup, plain)
            if tracer is not None:
                instrument()
            gcm.active = True
            for rate, rung_s, offsets, items in schedule:
                samples = await open_loop(offsets, items, fire, on_done)
                rungs.append(Rung(rate, rung_s, samples, TAIL_Q, LIMIT_MS))
            rss.append(rss_mb())
            gcm.active = False

    asyncio.run(drive())

    nominal = rungs[NOMINAL]
    lats = nominal.ok_latencies
    all_samples = [s for r in rungs for s in r.samples]
    n_ok = sum(1 for s in all_samples if s.ok)
    active_s = sum(
        max(s.done for s in r.samples) - min(s.due for s in r.samples)
        for r in rungs
    )
    layers = tally.metrics()
    layers.update(_serving_layers(service, engine, request_traces,
                                  all_samples))
    if tracer is not None:
        layers.update(trace_metrics(tracer, tally, TAIL_Q))
    # After the span metrics: its ``choose`` calls are not requests.
    layers["calibration.pick_flips"] = pick_flips(engine, state["fit"], pool)

    def reference(key, family):
        plan = PlanKind.ARM if family == "ARM" else PlanKind.SSVS
        return engine.query(pool[key], plan=plan, use_cache=False).rules

    return {
        "e2e": {
            "query_p50_ms": nominal.windowed_ms(50, WINDOW_S),
            "query_tail_ms": nominal.windowed_ms(TAIL_Q, WINDOW_S),
            "query_qps": n_ok / active_s,
            "sustained_qps": sustained_qps(rungs),
            "rss_mb": rss[0],
        },
        "layers": layers,
        "attempted": len(all_samples),
        "failed": len(all_samples) - n_ok,
        "reference": reference,
        "stamp": {
            "table": [engine.table.n_records, engine.table.n_attributes],
            "n_mips": engine.n_mips,
            "loop": "open, Poisson, one asyncio loop",
            "ladder_qps": list(LADDER),
            "nominal_qps": LADDER[NOMINAL],
            "latency_limit_ms": LIMIT_MS,
            "tail_q": TAIL_Q,
            "samples": len(lats),
            "beyond_tail_per_window": beyond(
                round(LADDER[NOMINAL] * WINDOW_S), TAIL_Q
            ),
            "window_s": WINDOW_S,
            "window_p50_ms": nominal.window_ms(50, WINDOW_S),
            "window_tail_ms": nominal.window_ms(TAIL_Q, WINDOW_S),
            "rungs": [r.summary() for r in rungs],
            "cache_budget_bytes": CACHE_BUDGET,
            "cache_bytes_end": engine.cache.stats.current_bytes,
            "working_set_bytes": _working_set(engine),
        },
    }


def _serving_layers(service, engine, request_traces, samples) -> dict:
    stats = service.stats
    cstats = engine.cache.stats
    served = max(stats.served, 1)
    waits = [t[0] for t in request_traces]
    execs = [t[1] for t in request_traces]
    cache_serves = [t[3] for t in request_traces if t[3] is not None]
    probes = cstats.rule_hits + cstats.lattice_hits + cstats.misses
    return {
        "optimizer.picks.ARM": sum(
            1 for t in request_traces if t[2] is PlanKind.ARM
        ),
        "optimizer.picks.cached": engine.optimizer.cache_ledger[
            "cached_picks"
        ],
        "cache.hit_ratio": (
            (cstats.rule_hits + cstats.lattice_hits) / probes
            if probes else 0.0
        ),
        "cache.evictions": cstats.evictions,
        "cache.stale_drops": cstats.stale_drops,
        "cache.bytes": cstats.current_bytes,
        "cache.serve_ms": (
            float(np.mean(cache_serves)) * 1e3 if cache_serves else 0.0
        ),
        "serving.queue_wait_p50_ms": percentile(waits, 50) * 1e3,
        "serving.queue_wait_tail_ms": percentile(waits, TAIL_Q) * 1e3,
        "serving.execute_p50_ms": percentile(execs, 50) * 1e3,
        "serving.execute_tail_ms": percentile(execs, TAIL_Q) * 1e3,
        "serving.coalesced_frac": stats.coalesced / served,
        "serving.short_circuit_frac": stats.cache_short_circuits / served,
        "serving.shed": stats.shed,
        "loadgen.late_ms": percentile([s.late for s in samples], TAIL_Q) * 1e3,
    }


def _working_set(engine) -> int:
    """Cache bytes the run's answers would need if nothing were evicted:
    the bytes cached now plus every eviction's share (an estimate from
    the mean entry size)."""
    stats = engine.cache.stats
    n = max(len(engine.cache), 1)
    return int(stats.current_bytes + stats.evictions
               * stats.current_bytes / n)
