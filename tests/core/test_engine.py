"""The Colarm engine facade."""

import time

import pytest

from repro import Colarm, LocalizedQuery, PlanKind
from repro.errors import DataError, QueryError
from repro.itemsets.apriori import min_count_for
from repro.itemsets.rules import rules_from_itemsets
from tests.conftest import make_random_table


@pytest.fixture(scope="module")
def engine():
    table = make_random_table(seed=41, n_records=100,
                              cardinalities=(4, 3, 3, 2, 3))
    return Colarm(table, primary_support=0.05)


def test_construction_validates():
    table = make_random_table(seed=1, n_records=10)
    with pytest.raises(DataError):
        Colarm(table, primary_support=0.0)
    with pytest.raises(DataError):
        Colarm(table, primary_support=1.5)


def test_query_with_optimizer(engine):
    query = LocalizedQuery({0: frozenset({1})}, 0.3, 0.6)
    outcome = engine.query(query)
    assert outcome.chosen_by == "optimizer"
    assert outcome.choice is not None
    assert outcome.plan is outcome.choice.kind
    assert outcome.n_rules == len(outcome.rules)
    assert outcome.elapsed > 0
    assert outcome.dq_size > 0


def test_query_with_forced_plan(engine):
    query = LocalizedQuery({0: frozenset({1})}, 0.3, 0.6)
    for plan in (PlanKind.ARM, "SS-E-U-V", "sev"):
        outcome = engine.query(query, plan=plan)
        assert outcome.chosen_by == "forced"
        assert outcome.choice is None


def test_query_from_text(engine):
    text = (
        "REPORT LOCALIZED ASSOCIATION RULES FROM t "
        "WHERE RANGE a0 = (v1) "
        "HAVING minsupport = 0.3 AND minconfidence = 0.6;"
    )
    outcome = engine.query(text)
    structured = engine.query(LocalizedQuery({0: frozenset({1})}, 0.3, 0.6),
                              plan=outcome.plan)
    key = lambda rs: [(r.antecedent, r.consequent) for r in rs]
    assert key(outcome.rules) == key(structured.rules)


def test_compare_plans_runs_all_six(engine):
    query = LocalizedQuery({0: frozenset({1, 2})}, 0.35, 0.7)
    results = engine.compare_plans(query)
    assert set(results) == set(PlanKind)
    key = lambda rs: sorted((r.antecedent, r.consequent) for r in rs)
    mip = [k for k in PlanKind if k is not PlanKind.ARM]
    base = key(results[mip[0]].rules)
    for kind in mip[1:]:
        assert key(results[kind].rules) == base


def test_choose_plan_without_execution(engine):
    query = LocalizedQuery({0: frozenset({1})}, 0.3, 0.6)
    choice = engine.choose_plan(query)
    assert choice.kind in PlanKind


def test_calibrate_updates_optimizer(engine):
    before = engine.optimizer.weights
    report = engine.calibrate(n_probes=3, seed=5)
    assert engine.optimizer.weights is report.weights
    assert report.n_runs == 18


def test_global_rules(engine):
    rules = engine.global_rules(minsupp=0.3, minconf=0.5)
    table = engine.table
    for rule in rules:
        count = table.support_count(rule.items)
        assert count / table.n_records >= 0.3
        assert count / table.support_count(rule.antecedent) >= 0.5


@pytest.mark.parametrize("minsupp,minconf", [(0.05, 0.0), (0.1, 0.5), (0.2, 0.3)])
def test_global_rules_identical_to_consequent_growth(engine, minsupp, minconf):
    """The lattice emitter over the full table returns exactly the rules
    consequent growth over the stored closed sets returns."""
    def global_count(items):
        return engine.table.support_count(items)

    expected = rules_from_itemsets(
        [mip.itemset for mip in engine.index.mips],
        global_count,
        engine.table.n_records,
        minsupp,
        minconf,
    )
    got = engine.global_rules(minsupp, minconf)
    assert expected
    assert [
        (r.antecedent, r.consequent, r.support_count, r.support, r.confidence)
        for r in got
    ] == [
        (r.antecedent, r.consequent, r.support_count, r.support, r.confidence)
        for r in expected
    ]
    assert min_count_for(minsupp, engine.table.n_records) <= min(
        r.support_count for r in got
    )


def test_first_fold_priced_at_measured_build(monkeypatch):
    """Before any fold, a fold is priced at the measured index build, not
    at the size guess (a 50 ms floor let a few appends trigger the fold
    of a ~1 s build)."""
    table = make_random_table(seed=7, n_records=200,
                              cardinalities=(4, 3, 3, 2, 3))
    start = time.perf_counter()
    engine = Colarm(table, primary_support=0.05)
    outer = time.perf_counter() - start
    engine.enable_maintenance(calibrate=False)
    build_s = engine.maintenance.last_build_s
    assert 0.0 < build_s <= outer

    priced = []
    advise = engine.optimizer.recompaction_advice

    def spy(query, build_cost_s, horizon=100):
        priced.append(build_cost_s)
        return advise(query, build_cost_s, horizon=horizon)

    monkeypatch.setattr(engine.optimizer, "recompaction_advice", spy)
    engine.append([[0, 0, 0, 0, 0]])
    engine.query(LocalizedQuery({0: frozenset({1})}, 0.3, 0.6))
    assert priced == [build_s]

    # An engine around a prebuilt index has no build to measure.
    adopted = Colarm.from_index(engine.index)
    adopted.enable_maintenance(calibrate=False)
    assert adopted.maintenance.last_build_s == 0.0


def test_engine_introspection(engine):
    assert engine.n_mips == len(engine.index.mips)
    assert engine.schema is engine.table.schema


def test_bad_query_raises(engine):
    with pytest.raises(QueryError):
        engine.query(LocalizedQuery({99: frozenset({0})}, 0.3, 0.5))


def test_query_reuses_priced_choice(engine):
    """A caller that already priced the request (the serving layer) can
    hand its PlanChoice back and skip the second choose()."""
    query = LocalizedQuery({0: frozenset({1})}, 0.3, 0.6)
    choice = engine.choose_plan(query)
    outcome = engine.query(query, choice=choice)
    assert outcome.choice is choice  # reused verbatim, not re-chosen
    assert outcome.plan is choice.kind


def test_query_rechooses_stale_choice():
    table = make_random_table(seed=43, n_records=80,
                              cardinalities=(4, 3, 3, 2))
    engine = Colarm(table, primary_support=0.05)
    query = LocalizedQuery({0: frozenset({1})}, 0.3, 0.6)
    choice = engine.choose_plan(query)
    assert choice.generation == engine.index.generation
    engine.index.rtree.tree.mutations += 1  # simulate index maintenance
    outcome = engine.query(query, choice=choice)
    assert outcome.choice is not choice  # stale generation: re-chosen
    assert outcome.choice.generation == engine.index.generation


def test_query_drops_cached_choice_without_consult():
    """A CACHE-variant choice must not survive into a use_cache=False
    call: the engine re-chooses instead of serving from the cache."""
    table = make_random_table(seed=44, n_records=80,
                              cardinalities=(4, 3, 3, 2))
    engine = Colarm(table, primary_support=0.05)
    engine.enable_cache(calibrate=False)
    query = LocalizedQuery({0: frozenset({1})}, 0.3, 0.6)
    warm_rules = engine.query(query).rules  # populate
    choice = engine.optimizer.choose(query, use_cache=True)
    assert choice.cached  # precondition: repeat would be a cache serve
    outcome = engine.query(query, use_cache=False, choice=choice)
    assert not outcome.cached
    assert outcome.choice is not choice
    assert outcome.rules == warm_rules
