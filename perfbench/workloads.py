"""The four benchmark workloads, driven through the engine's public APIs.

A workload turns a seed into arrivals, builds a fresh engine for one
measured pass, and computes the reference output
multiset with a never-migrating :class:`StaticPlanExecutor` over the same
arrivals.  Reconfigurations (forced transitions, rebalances, resizes) are
scheduled *before* a given arrival index; the driver runs them inside that
arrival's timed call, because in a closed loop the arrival waits for them.

Why these four (see NOTES.md for the full table):

* ``steady_chain10`` -- operators and windows do nearly all the work; the
  JISC layer is bypassed, so a JISC-only change must not move it.
* ``migrate_chain10`` -- the same operators under worst-case transitions:
  incomplete states, completion inserts, pending-value expiry.
* ``shard_zipf_resize`` -- the only path through the shard layer: routing,
  global windows, eviction delivery, replay, merge and log recovery.
* ``adaptive_drift`` -- the only path with telemetry, obs hooks and
  optimizer evaluation on every arrival.
"""

from __future__ import annotations

import json
from collections import Counter
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.engine.checkpoint import checkpoint_strategy, restore_strategy
from repro.migration.base import StaticPlanExecutor
from repro.migration.jisc import JISCStrategy
from repro.obs.tracer import RecordingTracer
from repro.optimizer.adaptive import AdaptiveEngine
from repro.optimizer.triggers import HysteresisTrigger
from repro.plans.transitions import worst_case_transition
from repro.shard import ShardedExecutor, balanced_assignment, skewed_assignment
from repro.streams.generators import UniformWorkload, ZipfWorkload
from repro.streams.schema import Schema
from repro.streams.tuples import StreamTuple
from repro.workloads.drift import SelectivityDriftWorkload

Lineage = Tuple[Tuple[str, int], ...]


class Engine:
    """One pass's engine, as the driver sees it.

    ``process`` is the closed-loop entry point; ``actions`` maps an arrival
    index to the reconfiguration run just before it; ``strategies`` lists
    the single-engine strategies whose metrics and plans the traced run
    reads.  ``crash`` marks a crash at the current point of the stream and
    returns the (repeatable) rebuild step that ``recovery_ms`` times; the
    driver calls it at ``crash_points`` evenly spaced points, the last one
    after ingestion.
    """

    def __init__(
        self,
        target: Any,
        process: Callable[[StreamTuple], None],
        lineages: Callable[[], List[Lineage]],
        strategies: Callable[[], List[Any]],
        crash: Callable[[], Callable[[], None]],
        crash_points: int,
        actions: Optional[Dict[int, Callable[[], None]]] = None,
        recorder: Optional[RecordingTracer] = None,
    ):
        self.target = target
        self.process = process
        self.lineages = lineages
        self.strategies = strategies
        self.crash = crash
        self.crash_points = crash_points
        self.actions = actions or {}
        self.recorder = recorder


class Workload:
    """Base: seeded arrivals, per-pass engine, static reference.

    Seeds are strings (``random.Random`` hashes them deterministically), so
    a run seed and a pass index combine without colliding with other runs.
    """

    name = "abstract"
    why = ""
    #: Arrivals per measured pass at full size.
    arrivals = 0

    def __init__(self, scale: float = 1.0):
        self.n = max(1, int(self.arrivals * scale))

    def arrivals_for(self, seed: str) -> List[StreamTuple]:
        raise NotImplementedError

    def schema(self) -> Schema:
        raise NotImplementedError

    def order(self) -> Tuple[str, ...]:
        raise NotImplementedError

    def build(self) -> Engine:
        raise NotImplementedError

    def reference(self, arrivals: Sequence[StreamTuple]) -> Counter:
        """Output lineage multiset of a never-migrating single engine."""
        static = StaticPlanExecutor(self.schema(), self.order())
        static.process_batch(arrivals)
        return Counter(static.output_lineages())


#: Crash points per pass for single engines: restore cost follows the
#: window state at the crash, which swings along the stream, so the median
#: over several points is reported.
SINGLE_CRASH_POINTS = 8


def _checkpoint_recovery(strategy: JISCStrategy) -> Callable[[], None]:
    """Single-engine recovery: parse and restore a checkpoint cut at the crash.

    The checkpoint is kept serialized, as it would be on disk, so holding
    it costs little memory during the rest of the pass.
    """
    blob = json.dumps(checkpoint_strategy(strategy))

    def restore() -> None:
        restore_strategy(json.loads(blob))

    return restore


# -- the 10-join chain ---------------------------------------------------------------

CHAIN = tuple(f"S{i:02d}" for i in range(11))
CHAIN_WINDOW = 80
CHAIN_KEYS = 100


class SteadyChain10(Workload):
    name = "steady_chain10"
    why = "10-join chain, no transitions: operators and windows only, JISC bypassed"
    arrivals = 24_000

    def arrivals_for(self, seed: str) -> List[StreamTuple]:
        return UniformWorkload(CHAIN, self.n, CHAIN_KEYS, seed=seed).materialize()

    def schema(self) -> Schema:
        return Schema.uniform(CHAIN, CHAIN_WINDOW)

    def order(self) -> Tuple[str, ...]:
        return CHAIN

    def transitions(self, engine: JISCStrategy) -> Dict[int, Callable[[], None]]:
        return {}

    def build(self) -> Engine:
        strategy = JISCStrategy(self.schema(), self.order())
        return Engine(
            strategy,
            strategy.process,
            strategy.output_lineages,
            lambda: [strategy],
            lambda: _checkpoint_recovery(strategy),
            SINGLE_CRASH_POINTS,
            self.transitions(strategy),
        )


class MigrateChain10(SteadyChain10):
    name = "migrate_chain10"
    why = "same chain with worst-case transitions every 500 arrivals: completion and expiry"
    every = 500

    def transitions(self, engine: JISCStrategy) -> Dict[int, Callable[[], None]]:
        orders = (CHAIN, worst_case_transition(CHAIN))
        return {
            at: (lambda o=orders[(at // self.every) % 2]: engine.transition(o))
            for at in range(self.every, self.n, self.every)
        }


# -- sharded Zipf with rebalance and resize --------------------------------------------

SHARD_STREAMS = ("A", "B", "C")
SHARD_WINDOW = 60
SHARD_KEYS = 1024
SHARD_SKEW = 0.6
SHARD_BUCKETS = 64
SHARD_START = 4
SHARD_END = 2
SHARD_BATCH = 8


class ShardZipfResize(Workload):
    name = "shard_zipf_resize"
    why = "sharded 3-way join, Zipf keys: hotspot fix then 4->2 resize, shard layer only"
    arrivals = 20_000

    def arrivals_for(self, seed: str) -> List[StreamTuple]:
        return ZipfWorkload(
            SHARD_STREAMS, self.n, SHARD_KEYS, skew=SHARD_SKEW, seed=seed
        ).materialize()

    def schema(self) -> Schema:
        return Schema.uniform(SHARD_STREAMS, SHARD_WINDOW)

    def order(self) -> Tuple[str, ...]:
        return SHARD_STREAMS

    def build(self) -> Engine:
        ex = ShardedExecutor(
            self.schema(),
            self.order(),
            num_shards=SHARD_START,
            strategy="jisc",
            num_buckets=SHARD_BUCKETS,
            assignment=skewed_assignment(SHARD_BUCKETS, 0),
        )

        def rebalance() -> None:
            ex.fluid_rebalance(
                balanced_assignment(SHARD_BUCKETS, SHARD_START),
                "lazy",
                batch_keys=SHARD_BATCH,
            )

        def resize() -> None:
            # One active plan at a time: finish a still-draining rebalance.
            if ex.rebalance_in_progress:
                ex.drain_rebalance()
            ex.resize(SHARD_END, "lazy", batch_keys=SHARD_BATCH)

        return Engine(
            ex,
            ex.process,
            ex.output_lineages,
            lambda: [w.strategy for w in ex.workers if w is not None],
            # The command log replays the whole history: one crash, at the end.
            lambda: lambda: ex.crash_and_recover(0),
            1,
            {self.n // 5: rebalance, (2 * self.n) // 3: resize},
        )


# -- adaptive drift --------------------------------------------------------------------

DRIFT_STREAMS = ("S0", "S1", "S2")
DRIFT_WINDOW = 32
DRIFT_PHASE = 5000
DRIFT_HUB = {"selectivity_window": 256, "drift_block": 32, "drift_min_samples": 96}


class AdaptiveDrift(Workload):
    name = "adaptive_drift"
    why = "AdaptiveEngine + telemetry + recorder, selective stream flips every 5000"
    arrivals = 8 * DRIFT_PHASE

    def arrivals_for(self, seed: str) -> List[StreamTuple]:
        phase = min(DRIFT_PHASE, self.n)
        phases = [
            (min(phase, self.n - start), ("S1", "S2")[(start // phase) % 2])
            for start in range(0, self.n, phase)
        ]
        return SelectivityDriftWorkload(
            DRIFT_STREAMS, phases, base_domain=12, scatter=32, seed=seed
        ).materialize()

    def schema(self) -> Schema:
        return Schema.uniform(DRIFT_STREAMS, DRIFT_WINDOW)

    def order(self) -> Tuple[str, ...]:
        return DRIFT_STREAMS

    def build(self) -> Engine:
        strategy = JISCStrategy(self.schema(), self.order())
        recorder = RecordingTracer()
        engine = AdaptiveEngine(
            strategy,
            policy=HysteresisTrigger(min_improvement=0.08, confirm=2, cooldown=256),
            evaluate_every=32,
            min_samples=96,
            hub_options=DRIFT_HUB,
            inner=recorder,
        )
        return Engine(
            engine,
            engine.process,
            engine.output_lineages,
            lambda: [strategy],
            lambda: _checkpoint_recovery(strategy),
            SINGLE_CRASH_POINTS,
            recorder=recorder,
        )


WORKLOADS: Dict[str, type] = {
    cls.name: cls
    for cls in (SteadyChain10, MigrateChain10, ShardZipfResize, AdaptiveDrift)
}
