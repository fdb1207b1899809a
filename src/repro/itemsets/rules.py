"""Association-rule generation with confidence pruning.

Two generators live here.  :func:`generate_rules` /
:func:`rules_from_itemsets` are the classic Agrawal-Srikant consequent
growth: for an itemset ``I``, confidence of ``X => I\\X`` only drops as
the antecedent ``X`` shrinks (its support grows), so once a consequent
fails ``minconf`` all of its supersets can be pruned.  Support lookups
sit behind a ``support_fn``; the analysis modules use them, and they are
the scalar reference the fast path is tested against.

:func:`rules_from_subset_lattices` is the fast path every plan's rules
come out of (see :func:`repro.core.operators.rules_from_sources`): it
reads supports from mask-indexed subset-lattice counts and checks every
split in one vectorized pass.
"""

from __future__ import annotations

import operator
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass

import numpy as np

from repro.dataset.schema import Schema
from repro.errors import DataError
from repro.itemsets.itemset import Itemset, make_itemset

__all__ = [
    "Rule",
    "generate_rules",
    "rules_from_itemsets",
    "rules_from_counts",
    "rules_from_subset_lattices",
]

#: Returns the support count of an itemset within the current universe, or
#: ``None`` when the count is unavailable (below the index's primary floor).
SupportFn = Callable[[Itemset], "int | None"]


@dataclass(frozen=True)
class Rule:
    """An association rule ``antecedent => consequent`` with its stats.

    ``support`` and ``confidence`` are relative to the universe the rule was
    mined in — the full dataset for global rules, the focal subset ``D^Q``
    for localized rules (the paper's ``Supp^Q`` and ``Conf^Q``).
    """

    antecedent: Itemset
    consequent: Itemset
    support_count: int
    support: float
    confidence: float

    @property
    def items(self) -> Itemset:
        """The underlying itemset ``antecedent ∪ consequent``."""
        return make_itemset((*self.antecedent, *self.consequent))

    def render(self, schema: Schema) -> str:
        """Human-readable form, e.g. ``{Age=20-30} => {Salary=90K-120K}``."""
        return (
            f"{schema.render_itemset(self.antecedent)} => "
            f"{schema.render_itemset(self.consequent)} "
            f"(supp={self.support:.3f}, conf={self.confidence:.3f})"
        )


def generate_rules(
    itemset: Itemset,
    support_fn: SupportFn,
    universe_count: int,
    minconf: float,
) -> list[Rule]:
    """All rules from one itemset whose confidence reaches ``minconf``.

    The itemset's own support is obtained through ``support_fn``; when it or
    an antecedent's support is unreported (``None``) the corresponding rules
    are skipped — the caller guarantees candidates sit above the primary
    floor, so this only happens for deliberately truncated indexes.
    """
    if not 0.0 <= minconf <= 1.0:
        raise DataError(f"minconf must be in [0, 1], got {minconf}")
    if len(itemset) < 2:
        return []
    itemset_count = support_fn(itemset)
    if itemset_count is None or itemset_count == 0:
        return []
    support = itemset_count / universe_count if universe_count else 0.0

    rules: list[Rule] = []
    # Consequent growth: level k holds consequents of size k that passed.
    consequents: list[Itemset] = [(item,) for item in itemset]
    while consequents:
        passed: list[Itemset] = []
        for consequent in consequents:
            antecedent = tuple(i for i in itemset if i not in set(consequent))
            if not antecedent:
                continue
            antecedent_count = support_fn(antecedent)
            if antecedent_count is None or antecedent_count == 0:
                continue
            confidence = itemset_count / antecedent_count
            if confidence >= minconf:
                rules.append(
                    Rule(antecedent, consequent, itemset_count, support, confidence)
                )
                passed.append(consequent)
        consequents = _grow_consequents(passed)
    rules.sort(key=lambda r: (r.antecedent, r.consequent))
    return rules


def _grow_consequents(passed: Sequence[Itemset]) -> list[Itemset]:
    """Join passing size-k consequents sharing a (k-1)-prefix into size k+1.

    Mirrors Apriori candidate generation: a consequent of size k+1 can only
    pass if all its size-k subsets did, and joining sorted same-prefix pairs
    enumerates each candidate exactly once.
    """
    passed_set = set(passed)
    grown: list[Itemset] = []
    ordered = sorted(passed)
    for i, left in enumerate(ordered):
        for right in ordered[i + 1:]:
            if left[:-1] != right[:-1]:
                break
            candidate = left + (right[-1],)
            if all(
                candidate[:k] + candidate[k + 1:] in passed_set
                for k in range(len(candidate) - 2)
            ):
                grown.append(candidate)
    return grown


def rules_from_itemsets(
    itemsets: Iterable[Itemset],
    support_fn: SupportFn,
    universe_count: int,
    minsupp: float,
    minconf: float,
) -> list[Rule]:
    """Rules from many itemsets, filtering itemsets below ``minsupp`` first.

    Deduplicates rules that arise from several source itemsets (e.g. when a
    candidate list contains both an itemset and its superset).
    """
    from repro.itemsets.apriori import min_count_for

    min_count = min_count_for(minsupp, universe_count) if universe_count else 1
    seen: set[tuple[Itemset, Itemset]] = set()
    out: list[Rule] = []
    for itemset in itemsets:
        count_ = support_fn(itemset)
        if count_ is None or count_ < min_count:
            continue
        for rule in generate_rules(itemset, support_fn, universe_count, minconf):
            key = (rule.antecedent, rule.consequent)
            if key not in seen:
                seen.add(key)
                out.append(rule)
    out.sort(key=lambda r: (r.antecedent, r.consequent))
    return out


def rules_from_counts(
    itemsets: Iterable[Itemset],
    count_of: Callable[[Itemset], int],
    universe_count: int,
    minconf: float,
    min_count: int | None = None,
) -> list[Rule]:
    """Batched rule extraction from pre-computed support counts.

    The array-native sibling of :func:`rules_from_itemsets`: ``count_of``
    must return an exact support count for every source itemset *and every
    proper non-empty sub-itemset* of the sources (a
    :class:`repro.kernels.FocalKernel` whose family has been evaluated
    satisfies this).  All antecedent/consequent splits are enumerated
    eagerly and confidences are evaluated in one vectorized pass.

    This produces *exactly* the same rule set as the consequent-growth
    generator: pruning there is lossless (dropping a consequent only skips
    supersets whose confidence is provably lower, never a passing rule),
    deduplication is a no-op because ``antecedent ∪ consequent`` uniquely
    determines the source itemset, and the float64 division here matches
    Python int division for any counts below ``2**53``.

    ``min_count`` filters *source* itemsets below the support floor (the
    expanded-mode caller passes the focal minimum count); sub-itemsets are
    never filtered — they only serve as antecedents.
    """
    if not 0.0 <= minconf <= 1.0:
        raise DataError(f"minconf must be in [0, 1], got {minconf}")
    antecedents: list[Itemset] = []
    consequents: list[Itemset] = []
    i_counts: list[int] = []
    a_counts: list[int] = []
    seen: set[tuple[Itemset, Itemset]] = set()
    for itemset in itemsets:
        if len(itemset) < 2:
            continue
        itemset_count = count_of(itemset)
        if itemset_count is None or itemset_count == 0:
            continue
        if min_count is not None and itemset_count < min_count:
            continue
        n = len(itemset)
        for mask in range(1, (1 << n) - 1):
            antecedent = tuple(
                itemset[k] for k in range(n) if mask >> k & 1
            )
            consequent = tuple(
                itemset[k] for k in range(n) if not mask >> k & 1
            )
            key = (antecedent, consequent)
            if key in seen:
                continue
            seen.add(key)
            antecedents.append(antecedent)
            consequents.append(consequent)
            i_counts.append(itemset_count)
            a_counts.append(count_of(antecedent))
    if not antecedents:
        return []
    ic = np.asarray(i_counts, dtype=np.int64)
    ac = np.asarray(a_counts, dtype=np.int64)
    ok = ac > 0
    conf = np.zeros(len(ic), dtype=np.float64)
    np.divide(ic, ac, out=conf, where=ok)
    keep = ok & (conf >= minconf)
    supp = (
        ic / universe_count
        if universe_count
        else np.zeros(len(ic), dtype=np.float64)
    )
    out = [
        Rule(
            antecedents[i],
            consequents[i],
            int(ic[i]),
            float(supp[i]),
            float(conf[i]),
        )
        for i in np.flatnonzero(keep)
    ]
    out.sort(key=lambda r: (r.antecedent, r.consequent))
    return out



# ---------------------------------------------------------------------------
# Mask-indexed extraction over whole subset lattices
# ---------------------------------------------------------------------------

#: Kept splits per slice when building sort keys and rules: bounds the
#: extraction's temporaries independently of the answer size.
_EMIT_CHUNK = 1 << 16

#: Cached per-width split accessors: for width ``n``, entry ``p`` describes
#: the split whose antecedent is submask ``p + 1`` of the full itemset —
#: C-speed ``itemgetter``s building the antecedent/consequent tuples.
_SPLIT_GETTERS: dict[int, tuple[list, list]] = {}


def _tuple_getter(positions: list[int]):
    """A callable mapping an itemset tuple to the sub-tuple at positions."""
    if len(positions) == 1:
        pos = positions[0]
        return lambda s: (s[pos],)
    return operator.itemgetter(*positions)


def _split_getters(n: int) -> tuple[list, list]:
    """Antecedent/consequent getters for every proper non-empty split of a
    width-``n`` itemset, indexed by ``antecedent_mask - 1`` (built once)."""
    cached = _SPLIT_GETTERS.get(n)
    if cached is not None:
        return cached
    ants: list = []
    cons: list = []
    for mask in range(1, (1 << n) - 1):
        ants.append(_tuple_getter([b for b in range(n) if mask >> b & 1]))
        cons.append(
            _tuple_getter([b for b in range(n) if not mask >> b & 1])
        )
    table = (ants, cons)
    _SPLIT_GETTERS[n] = table
    return table


def rules_from_subset_lattices(
    groups: "Sequence[tuple[Sequence[Itemset], np.ndarray]]",
    universe_count: int,
    minconf: float,
    *,
    min_count: int | None = None,
) -> list[Rule]:
    """Globally sorted rule extraction across several subset-lattice groups.

    ``groups`` pairs each same-width source batch with its
    :meth:`~repro.kernels.FocalKernel.count_subset_lattice` matrix (sources
    must be distinct across *all* groups): ``counts[j, mask]`` is the
    support of the sub-itemset of ``itemsets[j]`` selected by ``mask``'s
    bits.  Every proper non-empty antecedent/consequent split is checked
    in one vectorized confidence pass per group, and Python objects (two
    cached ``itemgetter`` calls and one :class:`Rule`) materialize only
    for splits that pass ``minconf``.  ``min_count`` (floored at 1)
    filters source supports.

    The canonical ``(antecedent, consequent)`` output order is produced
    *numerically*: every kept split's antecedent/consequent item ranks are
    compacted into fixed-width packed integer keys (pad rank 0 sorts
    shorter tuples first, exactly like tuple comparison) and one
    ``np.lexsort`` replaces the comparison sort over Python tuple keys —
    so :class:`Rule` objects are built once, already in final order.
    """
    if not 0.0 <= minconf <= 1.0:
        raise DataError(f"minconf must be in [0, 1], got {minconf}")
    live = [
        (list(itemsets), counts)
        for itemsets, counts in groups
        if len(itemsets) and len(itemsets[0]) >= 2
    ]
    if not live:
        return []
    distinct = sorted({item for itemsets, _ in live for s in itemsets for item in s})
    rank_of = {item: r + 1 for r, item in enumerate(distinct)}
    floor = max(min_count if min_count is not None else 1, 1)
    n_pad = max(len(itemsets[0]) for itemsets, _ in live)
    # As many rank fields per int64 word as fit below the sign bit.
    bits = len(distinct).bit_length()
    per_word = 63 // bits
    n_words = -(-2 * n_pad // per_word)
    shifts = bits * np.arange(per_word - 1, -1, -1, dtype=np.int64)

    kept_keys: list[np.ndarray] = []
    kept_gid: list[int] = []
    kept_js: list[np.ndarray] = []
    kept_ps: list[np.ndarray] = []
    kept_ic: list[np.ndarray] = []
    kept_supp: list[np.ndarray] = []
    kept_conf: list[np.ndarray] = []
    getters_by_group: list[tuple[list, list]] = []
    pad = np.int64(1) << np.int64(40)  # sorts after every real rank

    for gid, (itemsets, counts) in enumerate(live):
        m = len(itemsets)
        n = len(itemsets[0])
        full = (1 << n) - 1
        getters_by_group.append(_split_getters(n))
        ranks = np.array(
            [[rank_of[item] for item in s] for s in itemsets], dtype=np.int64
        )
        masks = np.arange(1, full, dtype=np.int64)
        ant_table = ((masks[:, None] >> np.arange(n)) & 1).astype(bool)
        chunk = max(1, (4 << 20) // max(1, full - 1))
        for lo in range(0, m, chunk):
            hi = min(m, lo + chunk)
            source_counts = counts[lo:hi, full]
            ac = counts[lo:hi, 1:full]
            ok = (source_counts[:, None] >= floor) & (ac > 0)
            conf = np.zeros(ac.shape, dtype=np.float64)
            np.divide(source_counts[:, None], ac, out=conf, where=ok)
            keep = ok & (conf >= minconf)
            js_chunk, ps_chunk = np.nonzero(keep)
            # The per-split key temporaries are (K, n) wide: build them a
            # bounded slice of kept splits at a time.
            for at in range(0, len(js_chunk), _EMIT_CHUNK):
                js = js_chunk[at:at + _EMIT_CHUNK]
                ps = ps_chunk[at:at + _EMIT_CHUNK]
                ic = source_counts[js]
                # True division: bit-identical to the scalar reference's
                # ``count / universe`` for counts below 2**53.
                supp = (
                    ic / universe_count
                    if universe_count
                    else np.zeros(len(js), dtype=np.float64)
                )
                sel = ant_table[ps]  # (K, n) — bits of antecedent mask p + 1
                src_ranks = ranks[lo + js]
                # Compact selected ranks to the left, in order: sources are
                # sorted so their ranks ascend, and an ascending sort with
                # an oversized placeholder both compacts and preserves
                # order.
                ant = np.where(sel, src_ranks, pad)
                ant.sort(axis=1)
                ant[ant == pad] = 0
                con = np.where(sel, pad, src_ranks)
                con.sort(axis=1)
                con[con == pad] = 0
                padded = np.zeros((len(js), n_words * per_word), dtype=np.int64)
                padded[:, :n] = ant
                padded[:, n_pad:n_pad + n] = con
                words = np.bitwise_or.reduce(
                    padded.reshape(len(js), n_words, per_word) << shifts,
                    axis=2,
                )
                kept_keys.append(words)
                kept_gid.append(gid)
                kept_js.append(js + lo)
                kept_ps.append(ps)
                kept_ic.append(ic)
                kept_supp.append(supp)
                kept_conf.append(conf[js, ps])

    if not kept_keys:
        return []
    order = np.lexsort(np.concatenate(kept_keys, axis=0).T[::-1])
    del kept_keys
    gids = np.concatenate(
        [np.full(len(a), g, dtype=np.int64) for g, a in zip(kept_gid, kept_js)]
    )[order]
    columns = [gids]
    for kept in (kept_js, kept_ps, kept_ic, kept_supp, kept_conf):
        columns.append(np.concatenate(kept)[order])
        kept.clear()
    itemsets_by_group = [itemsets for itemsets, _ in live]
    rules: list[Rule] = []
    append = rules.append
    # Python scalars exist only for one slice at a time; the kept floats
    # and counts live on inside the rules.
    for at in range(0, len(order), _EMIT_CHUNK):
        for g, j, p, count_, supp_, conf_ in zip(
            *(column[at:at + _EMIT_CHUNK].tolist() for column in columns)
        ):
            source = itemsets_by_group[g][j]
            ant_getters, cons_getters = getters_by_group[g]
            append(
                Rule(
                    ant_getters[p](source),
                    cons_getters[p](source),
                    count_,
                    supp_,
                    conf_,
                )
            )
    return rules
