"""Rebalance semantics: lazy JISC-style completion vs. the eager baseline."""

import random
from collections import Counter as MultiSet

import pytest

from repro.shard import (
    RebalanceSession,
    ShardedExecutor,
    balanced_assignment,
    plan_key_routes,
    skewed_assignment,
)
from repro.streams.schema import Schema
from repro.streams.tuples import StreamTuple
from repro.testing.naive import join_oracle_lineages

NAMES = ("A", "B", "C")


def workload(n=240, n_keys=8, window=16, seed=21):
    rng = random.Random(seed)
    schema = Schema.uniform(NAMES, window)
    seqs = {name: 0 for name in NAMES}
    tuples = []
    for _ in range(n):
        stream = rng.choice(NAMES)
        tuples.append(StreamTuple(stream, seqs[stream], rng.randrange(n_keys)))
        seqs[stream] += 1
    return schema, tuples


# -- session ledger ------------------------------------------------------------


def test_session_validates_mode():
    with pytest.raises(ValueError):
        RebalanceSession("hopeful", {}, started_at=0.0)


def test_session_settle_and_retire_drain_to_completion():
    session = RebalanceSession("lazy", {"a": (0, 1), "b": (0, 1), "c": (1, 0)}, 5.0)
    assert not session.complete
    assert session.pending == {"a", "b", "c"}
    assert session.route_of("c") == (1, 0)
    assert session.settle("a") is False
    assert session.retire("b") is False
    assert not session.is_pending("a")
    assert session.settle("c") is True
    assert session.complete
    assert session.pending == set()


def test_empty_session_is_born_complete():
    assert RebalanceSession("eager", {}, 0.0).complete


def test_plan_key_routes_only_covers_live_keys():
    moved = [(3, 0, 1), (7, 1, 0)]
    live = {3: ["x", "y"], 5: ["ignored"]}
    routes = plan_key_routes(moved, live)
    assert routes == {"x": (0, 1), "y": (0, 1)}


# -- eager vs lazy completion timing -------------------------------------------


def test_eager_rebalance_moves_everything_at_once():
    schema, tuples = workload()
    ex = ShardedExecutor(schema, NAMES, num_shards=2, inter_arrival=1.0)
    ex.process_batch(tuples[:120])
    plan = ex.fluid_rebalance(skewed_assignment(64, 1), "eager", batch_keys=0)
    assert not ex.rebalance_in_progress
    assert ex.session is None
    moved = [m for m in ex.moves if not m.retired]
    assert moved and all(m.at == plan.started_at for m in moved)


def test_lazy_rebalance_completes_keys_just_in_time():
    schema, tuples = workload()
    ex = ShardedExecutor(schema, NAMES, num_shards=2, inter_arrival=1.0)
    ex.process_batch(tuples[:120])
    ex.fluid_rebalance(skewed_assignment(64, 1), "lazy", batch_keys=0)
    session = ex.session
    pending_at_start = set(session.pending)
    assert pending_at_start
    assert not [m for m in ex.moves if m.at == session.started_at and not m.retired]
    ex.process_batch(tuples[120:])
    assert session.complete
    # each settled key moved exactly when it was next touched, not before
    settled = [m for m in ex.moves if not m.retired]
    assert settled
    assert {m.key for m in ex.moves} == pending_at_start
    assert all(m.at >= session.started_at for m in settled)


def test_lazy_pending_key_retires_on_expiry():
    """A pending key that never rearrives is retired once its last live
    tuple slides out — the `_on_expiry` discipline at shard scope."""
    schema = Schema.uniform(NAMES, 4)
    ex = ShardedExecutor(schema, NAMES, num_shards=2, inter_arrival=1.0)
    # key 0 arrives once, then only other keys flow
    ex.process(StreamTuple("A", 0, 0))
    other_shard = 1 - ex.partitioner.shard_of(0)
    ex.fluid_rebalance(skewed_assignment(64, other_shard), "lazy", batch_keys=0)
    session = ex.session
    assert session.is_pending(0)
    for seq in range(1, 6):
        ex.process(StreamTuple("A", seq, 99))
    assert session.complete
    retirements = [m for m in ex.moves if m.retired]
    assert [m.key for m in retirements] == [0]
    assert retirements[0].tuples_replayed == 0


def test_back_to_back_rebalances_drain_the_previous_session():
    schema, tuples = workload()
    ex = ShardedExecutor(schema, NAMES, num_shards=2, inter_arrival=1.0)
    ex.process_batch(tuples[:120])
    ex.fluid_rebalance(skewed_assignment(64, 0), "lazy", batch_keys=0)
    first = ex.session
    assert not first.complete
    ex.fluid_rebalance(balanced_assignment(64, 2), "lazy", batch_keys=0)
    second = ex.session
    # the first session was force-drained before the second took over
    assert first.complete
    assert second is not first
    assert (second is None) == (not ex.rebalance_in_progress)
    ex.process_batch(tuples[120:])
    expected = join_oracle_lineages(schema, NAMES, tuples)
    assert MultiSet(ex.output_lineages()) == MultiSet(
        tuple(sorted(lineage)) for lineage in expected
    )


# -- the latency claim ---------------------------------------------------------


def test_lazy_has_lower_max_latency_than_eager_on_hotspot_fix():
    """Fixing a hotspot eagerly stalls the pipeline while every key moves;
    the lazy mode spreads the same work across later arrivals.  This is
    the BENCH_shard_scaleout claim at unit-test scale.  The inter-arrival
    gap is chosen so workers keep up in steady state (per-arrival work is
    well under it) while the bulk move is many gaps' worth of work."""
    schema, tuples = workload(n=400, n_keys=16, window=40)
    results = {}
    for mode in ("lazy", "eager"):
        ex = ShardedExecutor(
            schema,
            NAMES,
            num_shards=2,
            inter_arrival=60.0,
            assignment=skewed_assignment(64, 0),
        )
        ex.process_batch(tuples[:200])
        ex.fluid_rebalance(balanced_assignment(64, 2), mode, batch_keys=0)
        ex.process_batch(tuples[200:])
        results[mode] = ex
    lazy, eager = results["lazy"], results["eager"]
    assert MultiSet(lazy.output_lineages()) == MultiSet(eager.output_lineages())
    assert lazy.max_output_latency() < eager.max_output_latency()
