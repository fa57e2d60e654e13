"""Property suite for the shard partitioner (hypothesis).

The partitioner is the root of every sharded-run guarantee: routing must
be **deterministic** (same key, same shard — across processes, which is
why ``stable_hash`` exists), **total** (every key routes somewhere
valid), and **stable under rebalance replay** (replaying the same
assignment sequence reproduces the same routing history).
"""

import subprocess
import sys

import hypothesis.strategies as hst
import pytest
from hypothesis import given, settings

from repro.migration.base import StaticPlanExecutor
from repro.shard import ShardedExecutor
from repro.shard.partition import (
    HashPartitioner,
    balanced_assignment,
    skewed_assignment,
    stable_hash,
    weighted_assignment,
)
from repro.streams.schema import Schema
from repro.streams.tuples import StreamTuple

keys = hst.one_of(
    hst.integers(min_value=-(2**40), max_value=2**40),
    hst.text(max_size=12),
    hst.tuples(hst.integers(min_value=0, max_value=99), hst.text(max_size=4)),
)


# -- stable_hash ---------------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(keys)
def test_stable_hash_is_deterministic_and_64_bit(key):
    h = stable_hash(key)
    assert h == stable_hash(key)
    assert 0 <= h < 2**64


def test_stable_hash_survives_process_boundary():
    """Unlike built-in ``hash``, placement must not depend on the hash seed."""
    import os

    import repro

    src = os.path.dirname(os.path.dirname(repro.__file__))
    code = (
        "from repro.shard.partition import stable_hash; "
        "print(stable_hash(42), stable_hash('hot'), stable_hash((1, 'a')))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env={"PYTHONHASHSEED": "12345", "PYTHONPATH": src},
    ).stdout.split()
    assert [int(x) for x in out] == [
        stable_hash(42),
        stable_hash("hot"),
        stable_hash((1, "a")),
    ]


def test_stable_hash_spreads_small_ints():
    buckets = {stable_hash(k) % 64 for k in range(32)}
    assert len(buckets) > 16  # not degenerate clustering


def test_keys_the_join_treats_as_equal_share_a_shard():
    """``1``, ``1.0`` and ``True`` join as one key, so they must route alike."""
    assert stable_hash(1) == stable_hash(1.0) == stable_hash(True)
    assert stable_hash((1, "a")) == stable_hash((True, "a")) == stable_hash((1.0, "a"))
    assert stable_hash(0) == stable_hash(-0.0) == stable_hash(False)
    assert stable_hash(1.5) != stable_hash(1)

    schema = Schema.uniform(("A", "B", "C"), window=8)
    arrivals = [StreamTuple("A", 0, 1), StreamTuple("B", 1, 1.0), StreamTuple("C", 2, True)]
    single = StaticPlanExecutor(schema, ("A", "B", "C"))
    sharded = ShardedExecutor(schema, ("A", "B", "C"), num_shards=4)
    for tup in arrivals:
        single.process(tup)
        sharded.process(tup)
    assert len(single.output_lineages()) == 1
    assert sorted(sharded.output_lineages()) == sorted(single.output_lineages())


# -- totality and determinism --------------------------------------------------


@settings(max_examples=100, deadline=None)
@given(
    keys,
    hst.integers(min_value=1, max_value=8),
    hst.integers(min_value=8, max_value=128),
)
def test_routing_is_total_and_deterministic(key, num_shards, num_buckets):
    p = HashPartitioner(num_shards, num_buckets)
    q = HashPartitioner(num_shards, num_buckets)
    assert 0 <= p.bucket_of(key) < num_buckets
    assert 0 <= p.shard_of(key) < num_shards
    assert p.shard_of(key) == q.shard_of(key) == p.shard_of(key)
    assert p.shard_of(key) == p.assignment[p.bucket_of(key)]


def assignments(num_buckets, num_shards):
    return hst.lists(
        hst.integers(min_value=0, max_value=num_shards - 1),
        min_size=num_buckets,
        max_size=num_buckets,
    ).map(lambda shards: dict(enumerate(shards)))


# -- rebalance algebra ---------------------------------------------------------


@settings(max_examples=80, deadline=None)
@given(assignments(32, 4), assignments(32, 4))
def test_moves_to_is_exactly_the_assignment_diff(a, b):
    p = HashPartitioner(4, 32, a)
    moves = p.moves_to(b)
    # moves cover exactly the changed buckets, with correct endpoints
    assert {bucket: (src, dst) for bucket, src, dst in moves} == {
        bucket: (a[bucket], b[bucket]) for bucket in a if a[bucket] != b[bucket]
    }
    # moves_to does not mutate; apply does
    assert p.snapshot() == a
    p.apply(b)
    assert p.snapshot() == b
    assert p.moves_to(b) == []


@settings(max_examples=40, deadline=None)
@given(
    hst.lists(keys, min_size=1, max_size=20, unique=True),
    hst.lists(assignments(16, 3), min_size=1, max_size=4),
)
def test_routing_is_stable_under_rebalance_replay(key_list, history):
    """Replaying the same assignment history reproduces the same routing
    decisions at every step — the property crash recovery leans on."""
    p = HashPartitioner(3, 16)
    q = HashPartitioner(3, 16)
    for assignment in history:
        p.apply(assignment)
        q.apply(assignment)
        assert [p.shard_of(k) for k in key_list] == [q.shard_of(k) for k in key_list]
    # bucket placement never depends on the assignment at all
    fresh = HashPartitioner(3, 16)
    assert [p.bucket_of(k) for k in key_list] == [fresh.bucket_of(k) for k in key_list]


# -- validation ----------------------------------------------------------------


def test_constructor_validation():
    with pytest.raises(ValueError):
        HashPartitioner(0)
    with pytest.raises(ValueError):
        HashPartitioner(4, num_buckets=2)
    with pytest.raises(ValueError):
        HashPartitioner(2, 8, {b: 0 for b in range(4)})  # missing buckets
    with pytest.raises(ValueError):
        HashPartitioner(2, 8, {b: 5 for b in range(8)})  # shard out of range


def test_assignment_helpers():
    balanced = balanced_assignment(8, 3)
    assert sorted(balanced) == list(range(8))
    assert set(balanced.values()) == {0, 1, 2}
    skewed = skewed_assignment(8, shard=1)
    assert set(skewed.values()) == {1}
    p = HashPartitioner(3, 8, balanced)
    moves = p.moves_to(skewed)
    assert all(dst == 1 for _, _, dst in moves)
    assert len(moves) == sum(1 for b in balanced if balanced[b] != 1)


# -- grow / shrink / weighted placement ----------------------------------------


def test_grow_widens_without_moving_buckets():
    p = HashPartitioner(2, 8, balanced_assignment(8, 2))
    before = p.assignment
    p.grow(4)
    assert p.num_shards == 4
    assert p.assignment == before  # widening moves nothing by itself
    with pytest.raises(ValueError):
        p.grow(3)  # cannot shrink via grow


def test_shrink_requires_drained_shards():
    p = HashPartitioner(4, 8, balanced_assignment(8, 4))
    with pytest.raises(ValueError, match="still assigned"):
        p.shrink(2)  # buckets still live on shards 2 and 3
    p.apply(balanced_assignment(8, 2))
    p.shrink(2)
    assert p.num_shards == 2
    with pytest.raises(ValueError):
        p.shrink(0)


@settings(max_examples=60, deadline=None)
@given(
    num_shards=hst.integers(min_value=1, max_value=6),
    weights=hst.dictionaries(
        hst.integers(min_value=0, max_value=15),
        hst.floats(min_value=0.0, max_value=1e6, allow_nan=False),
        max_size=16,
    ),
)
def test_weighted_assignment_is_total_and_balanced(num_shards, weights):
    table = weighted_assignment(16, num_shards, weights)
    assert sorted(table) == list(range(16))  # every bucket placed
    assert all(0 <= s < num_shards for s in table.values())
    # deterministic for a given weight map
    assert table == weighted_assignment(16, num_shards, weights)
    # LPT bound: no shard exceeds fair share + the heaviest single bucket
    loads = [0.0] * num_shards
    for b, s in table.items():
        loads[s] += float(weights.get(b, 0.0))
    total = sum(loads)
    heaviest = max((float(w) for w in weights.values()), default=0.0)
    assert max(loads) <= total / num_shards + heaviest + 1e-6
    # zero-weight buckets still spread by count, not piled on one shard
    from collections import Counter
    counts = Counter(table.values())
    assert max(counts.values()) - min(counts.values()) <= 1 or heaviest > 0
