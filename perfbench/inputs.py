"""Workload inputs: focal query pools, Zipf draws, arrival times.

The tables are the repository's fixed synthetic stand-ins, and each
workload's query pools are drawn once from :data:`POOL_SEED`: what a
query costs varies over two orders of magnitude between focal regions
of one grid cell, so letting ``--seed`` pick the regions made the
seed-to-seed spread of a 10 s run 15-100%.  ``--seed`` drives the
traffic instead: query order, Zipf draws and arrival times.
"""

from __future__ import annotations

import numpy as np

from repro.core.query import LocalizedQuery
from repro.workloads.queries import random_focal_query


def focal_queries(table, cells, rng, n: int, exclude=()) -> list:
    """``n`` distinct focal queries cycling through ``cells``.

    ``cells`` is a list of ``(focal fraction, minsupp, minconf)``; each
    pass visits every cell once in a seeded order, so every seed gets
    the same mix of sizes and thresholds.
    """
    seen = set(exclude)
    out: list[LocalizedQuery] = []
    while len(out) < n:
        for c in rng.permutation(len(cells)):
            if len(out) >= n:
                break
            fraction, minsupp, minconf = cells[int(c)]
            for _ in range(20):
                q = random_focal_query(
                    table, fraction, minsupp, minconf, rng
                ).query
                if q not in seen:
                    break
            seen.add(q)
            out.append(q)
    return out


#: Seed of every workload's query pools (see the module docstring).
POOL_SEED = 20140324


def pool_rng(*tags: int):
    """The generator for one fixed pool, named by integer ``tags``."""
    return np.random.default_rng([POOL_SEED, *tags])


def grid(fractions, minsupps, minconfs) -> list[tuple]:
    return [
        (f, s, c) for f in fractions for s in minsupps for c in minconfs
    ]


def zipf_draws(n_items: int, n_draws: int, s: float, rng) -> np.ndarray:
    weights = 1.0 / np.arange(1, n_items + 1) ** s
    return rng.choice(n_items, size=n_draws, p=weights / weights.sum())


def fresh_copy(q: LocalizedQuery) -> LocalizedQuery:
    """An equal query object of its own (see :mod:`tracer`)."""
    return LocalizedQuery(
        q.range_selections, q.minsupp, q.minconf, q.item_attributes
    )
