"""Forced ARM against a brute-force oracle.

On tiny tables the oracle enumerates *every* itemset over the focal
records (at most one value per attribute, Aitem attributes only), counts
its support by scanning the records, and derives from that enumeration
alone the local frequent and closed itemsets and their rules.  It shares
no code with the engine beyond the ``Item`` and ``Rule`` types, so the
forced ARM plan is checked against first principles — not against
another plan — in closed and expanded mode, with and without an Aitem
restriction, and after appends and deletes through the delta store.
"""

import itertools
import math

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core.engine import Colarm
from repro.core.plans import PlanKind
from repro.core.query import LocalizedQuery
from repro.dataset.schema import Attribute, Item, Schema
from repro.dataset.table import RelationalTable
from repro.itemsets.rules import Rule

CARDS = (3, 3, 2, 3)
#: Base records draw attribute 0 from its first two values only, so
#: appended records can carry an item the main table never saw.
BASE_CARDS = (2, 3, 2, 3)


def _schema() -> Schema:
    return Schema(tuple(
        Attribute(f"a{i}", tuple(f"v{v}" for v in range(card)))
        for i, card in enumerate(CARDS)
    ))


def oracle_rules(records, attributes, minsupp, minconf, expand):
    """Every rule of the focal ``records``, from a full enumeration."""
    n = len(records)
    min_count = max(1, math.ceil(minsupp * n))
    support: dict[tuple, int] = {}
    choices = [[None, *range(CARDS[a])] for a in attributes]
    for values in itertools.product(*choices):
        itemset = tuple(
            Item(a, v) for a, v in zip(attributes, values) if v is not None
        )
        if itemset:
            support[itemset] = sum(
                all(r[item.attribute] == item.value for item in itemset)
                for r in records
            )
    frequent = {s for s, c in support.items() if c >= min_count}
    closed = {
        s for s in frequent
        if not any(
            len(t) > len(s) and set(s) <= set(t) and support[t] == support[s]
            for t in frequent
        )
    }
    sources = frequent if expand else closed
    rules = []
    for source in sources:
        if len(source) < 2:
            continue
        count = support[source]
        for k in range(1, len(source)):
            for antecedent in itertools.combinations(source, k):
                confidence = count / support[antecedent]
                if confidence >= minconf:
                    consequent = tuple(i for i in source if i not in antecedent)
                    rules.append(
                        Rule(antecedent, consequent, count, count / n,
                             confidence)
                    )
    rules.sort(key=lambda r: (r.antecedent, r.consequent))
    return rules


def as_tuples(rules):
    return [
        (r.antecedent, r.consequent, r.support_count, r.support, r.confidence)
        for r in rules
    ]


@st.composite
def scenarios(draw):
    seed = draw(st.integers(0, 2**16))
    n_base = draw(st.integers(20, 40))
    ops = draw(st.lists(
        st.one_of(
            st.tuples(st.just("append"), st.integers(1, 4),
                      st.integers(0, 2**16)),
            st.tuples(st.just("delete"), st.integers(1, 3),
                      st.integers(0, 2**16)),
        ),
        max_size=3,
    ))
    attr = draw(st.integers(1, len(CARDS) - 1))
    values = draw(st.sets(st.integers(0, CARDS[attr] - 1),
                          min_size=1, max_size=2))
    aitem = draw(st.one_of(
        st.none(),
        st.sets(st.integers(0, len(CARDS) - 1), min_size=2, max_size=3)
        .map(frozenset),
    ))
    minsupp = draw(st.sampled_from([0.2, 0.35, 0.5]))
    minconf = draw(st.sampled_from([0.0, 0.5, 0.8]))
    expand = draw(st.booleans())
    return (seed, n_base, ops, {attr: frozenset(values)}, aitem, minsupp,
            minconf, expand)


def _run(scenario):
    (seed, n_base, ops, selections, aitem, minsupp, minconf,
     expand) = scenario
    rng = np.random.default_rng(seed)
    base = np.column_stack(
        [rng.integers(0, c, size=n_base) for c in BASE_CARDS]
    ).astype(np.int32)
    engine = Colarm(
        RelationalTable(_schema(), base), primary_support=0.3, expand=expand
    )
    rows = [tuple(map(int, r)) for r in base]
    alive = [True] * n_base
    if ops:
        # Never folds: at most 12 pending mutations against >= 20 records.
        engine.enable_maintenance(max_delta_fraction=0.9, calibrate=False)
    for kind, n, op_seed in ops:
        op_rng = np.random.default_rng(op_seed)
        if kind == "append":
            batch = [tuple(int(op_rng.integers(0, c)) for c in CARDS)
                     for _ in range(n)]
            engine.append(batch)
            rows.extend(batch)
            alive.extend([True] * n)
        else:
            tids = sorted({int(op_rng.integers(0, len(rows)))
                           for _ in range(n)})
            engine.delete(tids)
            for tid in tids:
                alive[tid] = False
    focal = [
        r for r, ok in zip(rows, alive)
        if ok and all(r[a] in vs for a, vs in selections.items())
    ]
    assume(focal)
    query = LocalizedQuery(selections, minsupp, minconf, aitem)
    attributes = sorted(aitem) if aitem is not None else list(range(len(CARDS)))
    expected = oracle_rules(focal, attributes, minsupp, minconf, expand)
    got = engine.query(query, plan=PlanKind.ARM, use_cache=False).rules
    assert as_tuples(got) == as_tuples(expected)


@settings(max_examples=60, deadline=None)
@given(scenarios())
def test_forced_arm_matches_enumeration(scenario):
    _run(scenario)


def test_delta_only_items_reach_the_rules():
    """An itemset supported only by appended records — with an item the
    main table never saw — is still mined when it clears the floor, also
    when no main record is in the focal subset at all."""
    base = np.array(
        [[0, 0, 0, 0], [1, 1, 1, 1], [0, 1, 0, 2], [1, 1, 1, 0]] * 5,
        dtype=np.int32,
    )
    appended = [(2, 2, 0, 1)] * 4
    for expand in (False, True):
        engine = Colarm(
            RelationalTable(_schema(), base), primary_support=0.3,
            expand=expand,
        )
        engine.enable_maintenance(max_delta_fraction=0.9, calibrate=False)
        engine.append(appended)
        for values in ({2}, {1, 2}):
            query = LocalizedQuery({1: frozenset(values)}, 0.2, 0.5)
            focal = [tuple(map(int, r)) for r in base if r[1] in values]
            expected = oracle_rules(
                focal + appended, [0, 1, 2, 3], 0.2, 0.5, expand
            )
            rules = engine.query(
                query, plan=PlanKind.ARM, use_cache=False
            ).rules
            assert as_tuples(rules) == as_tuples(expected)
            assert any(
                Item(0, 2) in r.antecedent + r.consequent for r in rules
            )
