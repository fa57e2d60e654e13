"""Tests for the ContinuousQuery adaptive facade."""

import random

import pytest

from repro.engine.query import ContinuousQuery
from repro.migration.base import StaticPlanExecutor
from repro.migration.jisc import JISCStrategy
from repro.optimizer.adaptive import AdaptiveEngine
from repro.optimizer.triggers import HysteresisTrigger, NeverTrigger
from repro.streams.schema import Schema
from repro.streams.tuples import StreamTuple
from repro.workloads.drift import SelectivityDriftWorkload


@pytest.fixture
def schema():
    return Schema.uniform(["R", "S", "T"], window=50)


def test_push_returns_fresh_results(schema):
    q = ContinuousQuery(schema, ("R", "S", "T"), policy=NeverTrigger())
    assert q.push("R", 1) == []
    assert q.push("S", 1) == []
    results = q.push("T", 1)
    assert len(results) == 1
    assert results[0].streams == frozenset("RST")
    assert q.push("T", 2) == []
    assert len(q.results) == 1


def test_push_assigns_monotone_seqs(schema):
    q = ContinuousQuery(schema, ("R", "S", "T"), policy=NeverTrigger())
    q.push("R", 1)
    q.push("S", 2)
    seqs = [t.seq for scan in q.strategy.plan.scans.values() for t in scan.window]
    assert sorted(seqs) == [0, 1]


def test_push_tuple_rejects_stale_seq(schema):
    q = ContinuousQuery(schema, ("R", "S", "T"), policy=NeverTrigger())
    q.push("R", 1)
    with pytest.raises(ValueError):
        q.push_tuple(StreamTuple("S", 0, 1))


def test_unknown_strategy_rejected(schema):
    with pytest.raises(ValueError):
        ContinuousQuery(schema, ("R", "S", "T"), strategy="eddy")
    with pytest.raises(ValueError):
        ContinuousQuery(schema, ("R", "S", "T"), reoptimize_every=0)


def test_probe_statistics_collected(schema):
    q = ContinuousQuery(schema, ("R", "S", "T"), policy=NeverTrigger())
    q.push("R", 1)
    q.push("S", 1)  # S's arrival probes R's scan: hit; the rs pair probes T: miss
    q.push("S", 2)  # miss against R
    assert q.selectivity_of("R") == pytest.approx(0.5)
    assert q.selectivity_of("T") == pytest.approx(0.0)
    assert q.selectivity_of("S") == pytest.approx(0.0)  # R's arrival missed S


def test_adaptive_reordering_fires_on_skew(schema):
    # Stream T rarely matches: the optimizer should move it down the plan.
    rng = random.Random(0)
    q = ContinuousQuery(
        schema, ("R", "S", "T"), reoptimize_every=300, strategy="jisc"
    )
    for i in range(3_000):
        stream = ("R", "S", "T")[i % 3]
        key = rng.randrange(1000) if stream == "T" else rng.randrange(20)
        q.push(stream, key)
    assert q.transition_log, "optimizer never proposed a transition"
    # T ends up right after the anchor (most selective at the bottom).
    assert q.order[1] == "T"


def test_adaptive_run_output_matches_static(schema):
    rng = random.Random(3)
    tuples = [
        StreamTuple(("R", "S", "T")[i % 3], i,
                    rng.randrange(500) if i % 3 == 2 else rng.randrange(15))
        for i in range(2_400)
    ]
    ref = StaticPlanExecutor(schema, ("R", "S", "T"))
    for tup in tuples:
        ref.process(tup)
    q = ContinuousQuery(schema, ("R", "S", "T"), reoptimize_every=300)
    for tup in tuples:
        q.push_tuple(tup)
    assert sorted(t.lineage for t in q.results) == sorted(ref.output_lineages())


@pytest.mark.parametrize("strategy", ["jisc", "moving_state", "parallel_track"])
def test_all_strategies_usable(schema, strategy):
    q = ContinuousQuery(schema, ("R", "S", "T"), strategy=strategy, policy=NeverTrigger())
    q.push("R", 1)
    q.push("S", 1)
    assert len(q.push("T", 1)) == 1
    q.strategy.transition(("S", "T", "R"))
    q.push("R", 1)  # still alive after a manual transition
    assert len(q.results) >= 1


def test_reoptimize_now_with_insufficient_evidence(schema):
    q = ContinuousQuery(schema, ("R", "S", "T"))
    assert q.reoptimize_now() is None


def test_probe_statistics_follow_external_transitions(schema):
    # A transition the query did not fire itself still swaps in new join
    # operators; their probes must keep feeding the statistics.
    q = ContinuousQuery(
        schema, ("R", "S", "T"), policy=NeverTrigger(), selectivity_window=200
    )
    for i in range(900):
        q.push(("R", "S", "T")[i % 3], i % 5)
    assert q.selectivity_of("T") > 0.9
    q.strategy.transition(("S", "T", "R"))
    for i in range(2_700):
        stream = ("R", "S", "T")[i % 3]
        q.push(stream, 10_000 + i if stream == "T" else i % 5)  # T never matches
    assert q.selectivity_of("T") == 0.0


def test_query_and_bare_engine_run_the_same_loop():
    streams = ("A", "B", "C")
    wl = SelectivityDriftWorkload(
        streams, [(3000, "B"), (3000, "C")], base_domain=12, scatter=60, seed=5
    )
    schema = Schema.uniform(streams, window=60)
    order = ("A", "C", "B")
    query = ContinuousQuery(
        schema, order, policy=HysteresisTrigger(), reoptimize_every=250
    )
    engine = AdaptiveEngine(
        JISCStrategy(schema, order), policy=HysteresisTrigger(), evaluate_every=250
    )
    for tup in wl.materialize():
        query.push_tuple(tup)
        engine.process(tup)
    decisions = [d.to_jsonl() for d in query.engine.decisions]
    assert decisions == [d.to_jsonl() for d in engine.decisions]
    assert engine.fire_count >= 1
    assert [o for _, o in query.transition_log] == [
        d.best_order for d in engine.migrations
    ]
    assert sorted(t.lineage for t in query.results) == sorted(
        engine.target.output_lineages()
    )


def test_never_trigger_keeps_statistics_without_migrating(schema):
    rng = random.Random(0)
    q = ContinuousQuery(
        schema, ("R", "S", "T"), policy=NeverTrigger(), reoptimize_every=300
    )
    for i in range(3_000):
        stream = ("R", "S", "T")[i % 3]
        q.push(stream, rng.randrange(1000) if stream == "T" else rng.randrange(20))
    assert q.transition_log == []
    assert q.order == ("R", "S", "T")
    assert q.reoptimize_now() is None
    assert all(q.selectivity_of(s) is not None for s in ("R", "S", "T"))
    assert q.selectivity_of("T") < q.selectivity_of("S")
