"""Shard scale-out: lazy (JISC-style) vs. eager rebalancing latency.

A hotspot workload starts with every bucket on shard 0; mid-stream, a
rebalance spreads the buckets across all shards.  The **eager** mode is
the Megaphone-like baseline — every affected key's state moves at the
trigger, one bulk stall — while **lazy** applies the paper's just-in-time
completion discipline to shard state, moving each key on its first
post-rebalance arrival (docs/SHARDING.md).

Reported per (shards, mode): merged op counts, total virtual work,
makespan, move/replay volume, and the per-output latency profile against
external arrival time.  The headline claim mirrors Figure 10 at the
cluster scale: the lazy max latency stays strictly below the eager max,
because the bulk move is many inter-arrival gaps' worth of work while
each per-key move is at most a few.
"""

import random

from benchmarks.common import emit, once
from repro.shard import ShardedExecutor, balanced_assignment, skewed_assignment
from repro.streams.schema import Schema
from repro.streams.tuples import StreamTuple

NAMES = ("A", "B", "C")
N_TUPLES = 1200
N_KEYS = 32
WINDOW = 60
INTER_ARRIVAL = 80.0
SHARD_COUNTS = (2, 4)
SEED = 17


def make_workload():
    rng = random.Random(SEED)
    schema = Schema.uniform(NAMES, WINDOW)
    seqs = {name: 0 for name in NAMES}
    tuples = []
    for _ in range(N_TUPLES):
        stream = rng.choice(NAMES)
        tuples.append(StreamTuple(stream, seqs[stream], rng.randrange(N_KEYS)))
        seqs[stream] += 1
    return schema, tuples


def _percentile(sorted_values, q):
    if not sorted_values:
        return 0.0
    pos = min(len(sorted_values) - 1, int(q * (len(sorted_values) - 1) + 0.5))
    return sorted_values[pos]


def run():
    schema, tuples = make_workload()
    cut = N_TUPLES // 2
    results = []
    for num_shards in SHARD_COUNTS:
        for mode in ("lazy", "eager"):
            ex = ShardedExecutor(
                schema,
                NAMES,
                num_shards=num_shards,
                strategy="jisc",
                inter_arrival=INTER_ARRIVAL,
                assignment=skewed_assignment(64, 0),
            )
            ex.process_batch(tuples[:cut])
            ex.fluid_rebalance(
                balanced_assignment(64, num_shards), mode, batch_keys=0
            )
            ex.process_batch(tuples[cut:])
            latencies = sorted(ex.output_latencies())
            results.append(
                {
                    "shards": num_shards,
                    "mode": mode,
                    "outputs": len(latencies),
                    "keys_moved": len([m for m in ex.moves if not m.retired]),
                    "keys_retired": len([m for m in ex.moves if m.retired]),
                    "tuples_replayed": sum(m.tuples_replayed for m in ex.moves),
                    "counts": dict(sorted(ex.merged_counts().items())),
                    "total_work": ex.total_work(),
                    "makespan": ex.makespan(),
                    "latency_p50": _percentile(latencies, 0.50),
                    "latency_p99": _percentile(latencies, 0.99),
                    "latency_max": latencies[-1] if latencies else 0.0,
                }
            )
    return results


def test_shard_scaleout(benchmark):
    rows = once(benchmark, run)
    lines = [
        f"{'shards':>6} {'mode':>6} {'outputs':>8} {'moved':>6} {'replayed':>9} "
        f"{'work':>10} {'makespan':>10} {'p50':>8} {'p99':>9} {'max':>9}"
    ]
    for row in rows:
        lines.append(
            f"{row['shards']:>6d} {row['mode']:>6} {row['outputs']:>8d} "
            f"{row['keys_moved']:>6d} {row['tuples_replayed']:>9d} "
            f"{row['total_work']:>10.0f} {row['makespan']:>10.0f} "
            f"{row['latency_p50']:>8.1f} {row['latency_p99']:>9.1f} "
            f"{row['latency_max']:>9.1f}"
        )
    emit("shard_scaleout", lines, data=rows)

    by_cell = {(r["shards"], r["mode"]): r for r in rows}
    for num_shards in SHARD_COUNTS:
        lazy = by_cell[(num_shards, "lazy")]
        eager = by_cell[(num_shards, "eager")]
        # identical results either way: same outputs, same state moved
        assert lazy["outputs"] == eager["outputs"] > 0
        assert (
            lazy["keys_moved"] + lazy["keys_retired"]
            == eager["keys_moved"] + eager["keys_retired"]
        )
        # the headline: lazy strictly beats eager on worst-case latency
        assert lazy["latency_max"] < eager["latency_max"]
    # scale-out helps: the 4-shard makespan stays below the 2-shard one
    assert by_cell[(4, "lazy")]["makespan"] <= by_cell[(2, "lazy")]["makespan"]
