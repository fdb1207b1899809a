"""The per-layer metric catalogue and the tallies that fill it.

Every traced run prints every name in :data:`PER_LAYER`; a layer a
workload does not exercise reads 0.  Operator numbers are summed from the
``PlanResult.trace`` the engine already returns with each answer.
"""

from __future__ import annotations

from collections import defaultdict

from common import metric, percentile

#: ``(name, unit)`` of every per-layer metric, in print order.
PER_LAYER: tuple[tuple[str, str], ...] = (
    # set-up: core.mipindex / core.calibration / cache
    ("mipindex.build_s", "s"),
    ("calibration.calibrate_s", "s"),
    ("cache.warm_s", "s"),
    # core.optimizer
    ("optimizer.choose_p50_ms", "ms"),
    ("optimizer.choose_tail_ms", "ms"),
    ("optimizer.choose_share", "1"),
    ("optimizer.picks.ARM", "count"),
    ("optimizer.picks.cached", "count"),
    ("calibration.pick_flips", "count"),
    # core.plans / core.operators (rtree.flat and kernels underneath);
    # means per fresh execution
    ("operators.executions", "count"),
    ("operators.focus_ms", "ms"),
    ("operators.search_ms", "ms"),
    ("operators.eliminate_ms", "ms"),
    ("operators.verify_ms", "ms"),
    ("operators.select_ms", "ms"),
    ("operators.arm_ms", "ms"),
    ("operators.verify.rulegen_ms", "ms"),
    ("operators.verify.kernel_ms", "ms"),
    ("operators.verify.projection_ms", "ms"),
    ("rtree.nodes_visited", "count"),
    ("operators.record_checks", "count"),
    ("operators.support_lookups", "count"),
    ("rules.emitted", "count"),
    ("engine.other_ms", "ms"),
    # cache
    ("cache.hit_ratio", "1"),
    ("cache.evictions", "count"),
    ("cache.stale_drops", "count"),
    ("cache.bytes", "B"),
    ("cache.serve_ms", "ms"),
    # serving
    ("serving.queue_wait_p50_ms", "ms"),
    ("serving.queue_wait_tail_ms", "ms"),
    ("serving.execute_p50_ms", "ms"),
    ("serving.execute_tail_ms", "ms"),
    ("serving.coalesced_frac", "1"),
    ("serving.short_circuit_frac", "1"),
    ("serving.shed", "count"),
    # the interpreter's collector
    ("gc.pauses", "count"),
    ("gc.gen2_pauses", "count"),
    ("gc.pause_max_ms", "ms"),
    ("gc.pause_total_ms", "ms"),
    # where request wall time went: self time per layer, per request
    ("trace.request_ms", "ms"),
    ("trace.self.loadgen_ms", "ms"),
    ("trace.self.serving_ms", "ms"),
    ("trace.self.optimizer_ms", "ms"),
    ("trace.self.cache_ms", "ms"),
    ("trace.self.engine_ms", "ms"),
    ("trace.self.operators_ms", "ms"),
    # health of the run itself
    ("loadgen.late_ms", "ms"),
    ("trace.residual_frac", "1"),
    ("trace.overhead_frac", "1"),
    ("failed_frac", "1"),
)

_UNITS = dict(PER_LAYER)

#: Operator trace names -> the metric group they are summed into.
#: UNION merges the two ELIMINATE outputs of SS-E-U-V, so it counts there.
OPERATOR_GROUP = {
    "FOCUS": "focus",
    "SEARCH": "search",
    "SUPPORTED-SEARCH": "search",
    "ELIMINATE": "eliminate",
    "UNION": "eliminate",
    "VERIFY": "verify",
    "SUPPORTED-VERIFY": "verify",
    "SELECT": "select",
    "ARM": "arm",
}


def empty_layer_metrics() -> dict:
    return {name: metric(0.0, unit) for name, unit in PER_LAYER}


def set_metrics(out: dict, values: dict) -> None:
    """Store ``name -> value`` pairs under their catalogue units."""
    for name, value in values.items():
        out[name] = metric(value, _UNITS[name])


class OperatorTally:
    """Sums of operator traces over the fresh executions of a run."""

    def __init__(self):
        self.n = 0
        self.elapsed_s = 0.0
        self.sums: dict[str, float] = defaultdict(float)

    def add(self, outcome) -> None:
        """Count one answer; cache serves carry no operator trace."""
        if outcome.cached:
            return
        self.n += 1
        result = outcome.result
        self.elapsed_s += result.elapsed
        self.sums["rules"] += len(outcome.rules)
        for op in result.trace.operators:
            group = OPERATOR_GROUP.get(op.name)
            if group is not None:
                self.sums[group] += op.elapsed
            detail = op.detail
            self.sums["nodes_visited"] += detail.get("nodes_visited", 0)
            self.sums["record_checks"] += detail.get("record_checks", 0)
            self.sums["support_lookups"] += detail.get("support_lookups", 0)
            if group == "verify":
                self.sums["rulegen"] += detail.get("rulegen_s", 0.0)
                self.sums["kernel"] += detail.get("kernel_s", 0.0)
                self.sums["projection"] += detail.get("projection_s", 0.0)

    def metrics(self) -> dict:
        n = max(self.n, 1)
        s = self.sums
        values = {"operators.executions": self.n}
        for group in ("focus", "search", "eliminate", "verify", "select",
                      "arm"):
            values[f"operators.{group}_ms"] = s[group] / n * 1e3
        for part in ("rulegen", "kernel", "projection"):
            values[f"operators.verify.{part}_ms"] = s[part] / n * 1e3
        values["rtree.nodes_visited"] = s["nodes_visited"] / n
        values["operators.record_checks"] = s["record_checks"] / n
        values["operators.support_lookups"] = s["support_lookups"] / n
        values["rules.emitted"] = s["rules"] / n
        return values


#: Request-path span names -> the layer their self time belongs to
#: (writes and set-up spans are not part of any request).
SPAN_LAYER = {
    "request": "loadgen",
    "submit": "serving",
    "choose": "optimizer",
    "cache.probe": "cache",
    "cache.get_rules": "cache",
    "cache.get_lattice": "cache",
    "query": "engine",
}


def trace_metrics(tracer, tally: OperatorTally, tail_q: float) -> dict:
    """The span-derived metrics: choose times and the self-time split.

    Operator time runs inside ``query`` spans, so it is moved from the
    engine's self time into its own layer; what remains of ``query`` is
    ``engine.other_ms``.
    """
    selfs = tracer.self_times()
    by_layer: dict[str, float] = defaultdict(float)
    request_wall = 0.0
    n_requests = 0
    n_queries = 0
    for sid, name, start, end, _parent, _req in tracer.spans:
        layer = SPAN_LAYER.get(name)
        if name == "request":
            request_wall += end - start
            n_requests += 1
        if name == "query":
            n_queries += 1
        if layer is not None:
            by_layer[layer] += selfs[sid]
    by_layer["engine"] -= tally.elapsed_s
    by_layer["operators"] += tally.elapsed_s
    choose = tracer.durations("choose")
    accounted = sum(v for k, v in by_layer.items() if k != "loadgen")
    n = max(n_requests, 1)
    values = {
        "optimizer.choose_p50_ms": percentile(choose, 50) * 1e3,
        "optimizer.choose_tail_ms": percentile(choose, tail_q) * 1e3,
        "optimizer.choose_share": (
            sum(choose) / request_wall if request_wall else 0.0
        ),
        "engine.other_ms": by_layer["engine"] / max(n_queries, 1) * 1e3,
        "trace.request_ms": request_wall / n * 1e3,
        "trace.residual_frac": (
            1.0 - accounted / request_wall if request_wall else 0.0
        ),
    }
    for layer in ("loadgen", "serving", "optimizer", "cache", "engine",
                  "operators"):
        values[f"trace.self.{layer}_ms"] = by_layer[layer] / n * 1e3
    return values
