"""The open-loop request generator and the rate ladder's verdicts.

The open loop runs on one asyncio loop.  Each request is timed from its
*due* time, not from when the generator got round to sending it, so a
stall that delays later sends is billed to them; the generator's own
lateness (send time minus due time) is reported beside the latencies so
a run with a late generator can be recognised as invalid rather than
slow.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass

import numpy as np

from common import percentile


@dataclass
class Sample:
    """One request: when it was due, sent and done, and what came back."""

    due: float
    sent: float
    done: float
    ok: bool
    result: object   # the response, or the exception when not ``ok``

    @property
    def latency(self) -> float:
        return self.done - self.due

    @property
    def late(self) -> float:
        return self.sent - self.due


def poisson_offsets(rate: float, seconds: float, rng) -> np.ndarray:
    """Arrival offsets of a Poisson process over ``[0, seconds)``,
    conditioned on its expected count ``rate * seconds`` (uniform order
    statistics): every seed offers the same number of requests."""
    n = max(1, int(round(rate * seconds)))
    return np.sort(rng.uniform(0.0, seconds, size=n))


async def open_loop(offsets, items, fire, on_done=None) -> list[Sample]:
    """Send ``fire(item)`` at each offset (seconds after start).

    ``on_done(sample, item)`` runs on the loop as each request finishes
    (answer checks, per-request accounting); the response is dropped from
    the sample afterwards, so the run does not keep every answer alive
    for the collector to traverse.  Exceptions from ``fire`` are failures
    of the request, never of the run.
    """
    samples: list[Sample | None] = [None] * len(items)
    tasks = []

    async def one(i: int, due: float, item) -> None:
        sent = time.perf_counter()
        try:
            result = await fire(item, due)
            ok = True
        except Exception as exc:  # noqa: BLE001 — counted as a failure
            result, ok = exc, False
        sample = Sample(due, sent, time.perf_counter(), ok, result)
        samples[i] = sample
        if on_done is not None:
            on_done(sample, item)
        if ok:
            sample.result = None

    t0 = time.perf_counter() + 0.002
    for i, (offset, item) in enumerate(zip(offsets, items)):
        due = t0 + float(offset)
        delay = due - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        tasks.append(asyncio.ensure_future(one(i, due, item)))
    await asyncio.gather(*tasks)
    return samples


@dataclass
class Rung:
    """One rate of a ladder, with its samples and verdict."""

    rate: float
    seconds: float
    samples: list
    tail_q: float
    limit_ms: float

    @property
    def ok_latencies(self) -> list[float]:
        return [s.latency for s in self.samples if s.ok]

    @property
    def n_failed(self) -> int:
        return sum(1 for s in self.samples if not s.ok)

    @property
    def tail_ms(self) -> float:
        # A failed request misses any latency limit.
        lats = [s.latency if s.ok else float("inf") for s in self.samples]
        return float(np.percentile(lats, self.tail_q)) * 1e3

    def window_ms(self, q: float, window_s: float) -> list[float]:
        """The ``q``-th percentile latency (ms) of each ``window_s`` slice
        of the rung, slicing by due time; a failure counts as infinite."""
        start = min(s.due for s in self.samples)
        windows: dict[int, list[float]] = {}
        for s in self.samples:
            windows.setdefault(int((s.due - start) / window_s), []).append(
                s.latency if s.ok else float("inf")
            )
        return [float(np.percentile(lats, q)) * 1e3
                for _, lats in sorted(windows.items())]

    def windowed_ms(self, q: float, window_s: float) -> float:
        """Median over the rung's windows of their ``q``-th percentile
        latency (ms): a collector pause or a burst of host noise moves
        the one or two windows it falls in, not the figure."""
        return float(np.median(self.window_ms(q, window_s)))

    @property
    def achieved_qps(self) -> float:
        start = min(s.due for s in self.samples)
        end = max(s.done for s in self.samples)
        n_ok = len(self.samples) - self.n_failed
        return n_ok / (end - start)

    @property
    def passed(self) -> bool:
        # A backlog that grows shows as completions falling behind
        # arrivals: the rung then takes longer than its schedule.
        return (
            self.n_failed == 0
            and self.tail_ms <= self.limit_ms
            and self.achieved_qps >= 0.95 * self.rate
        )

    def summary(self) -> dict:
        lats = self.ok_latencies
        return {
            "rate": self.rate,
            "n": len(self.samples),
            "failed": self.n_failed,
            "p50_ms": percentile(lats, 50) * 1e3,
            "tail_ms": self.tail_ms,
            "achieved_qps": self.achieved_qps,
            "passed": self.passed,
        }


def sustained_qps(rungs: list[Rung]) -> float:
    """Achieved rate at the highest rung that met the latency limit
    without a growing backlog; 0.0 when none did."""
    passing = [r for r in rungs if r.passed]
    return max(passing, key=lambda r: r.rate).achieved_qps if passing else 0.0
