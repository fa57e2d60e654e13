"""Per-layer spans for the traced run, recorded from the benchmark's side.

No engine file changes: :class:`Instrumentation` replaces public entry
points with timing wrappers *where their callers look them up* -- a class
attribute for methods, the importing module's global for functions (e.g.
``repro.core.controller.complete_value_left_deep``, which the controller
binds at import time) -- and puts the originals back on :meth:`uninstall`.

:class:`Spans` keeps a stack of open spans, so a layer's *self* time is its
span's duration minus the time its nested (wrapped) spans cover.  Every
span belongs to a *group* (a layer metric); per group it accumulates self
time, inclusive time of the outermost span of that group (so ``resize``
calling ``fluid_rebalance`` is one reconfiguration, not two) and the number
of outermost calls.  Per span name it counts raw calls.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict, List, Optional, Tuple

import repro.core.controller as controller_mod
import repro.migration.jisc as jisc_mod
import repro.shard.executor as executor_mod
import repro.shard.partition as partition_mod
import repro.streams.tuples as tuples_mod
from repro.core.controller import JISCController
from repro.engine.metrics import Metrics
from repro.obs.tracer import RecordingTracer
from repro.operators.base import Operator
from repro.operators.joins import JoinOperator
from repro.operators.scan import StreamScan
from repro.operators.state import HashState
from repro.optimizer.adaptive import AdaptiveEngine
from repro.shard.executor import ShardedExecutor
from repro.shard.merge import ShardMerger
from repro.shard.partition import HashPartitioner
from repro.shard.worker import ShardWorker
from repro.streams.tuples import CompositeTuple
from repro.streams.window import SlidingWindow
from repro.telemetry.hub import TelemetryTracer

#: Tracer hooks a hub or recorder implements (the ``Tracer`` interface).
TRACER_HOOKS = (
    "set_phase", "on_count", "arrival", "output", "transition_start",
    "transition_end", "migration_end", "completion", "promote", "demote",
    "checkpoint", "note", "fault", "recovery", "rebalance_start",
    "rebalance_end", "rebalance_batch_start", "rebalance_batch_end",
    "shard_move", "trigger",
)


class GroupStats:
    __slots__ = ("self_s", "incl_s", "calls", "depth")

    def __init__(self) -> None:
        self.self_s = 0.0
        self.incl_s = 0.0
        self.calls = 0
        self.depth = 0


class Spans:
    """Span stack with self-time accounting; ``clock`` returns seconds."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.groups: Dict[str, GroupStats] = {}
        self.calls: Dict[str, int] = {}
        # One [child_seconds] cell per open span.
        self._stack: List[List[float]] = []

    def group(self, name: str) -> GroupStats:
        stats = self.groups.get(name)
        if stats is None:
            stats = self.groups[name] = GroupStats()
        return stats

    def wrap(
        self,
        group: str,
        name: str,
        fn: Callable[..., Any],
        before: Optional[Callable[..., None]] = None,
    ) -> Callable[..., Any]:
        """``fn`` inside a span of ``group``; ``before(*args)`` runs first,
        outside the span (used to read state a call is about to replace)."""
        stats = self.group(group)
        calls = self.calls
        calls.setdefault(name, 0)
        stack = self._stack
        clock = self.clock

        def spanned(*args: Any, **kwargs: Any) -> Any:
            if before is not None:
                before(*args, **kwargs)
            cell = [0.0]
            stack.append(cell)
            stats.depth += 1
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                stats.depth -= 1
                stats.self_s += elapsed - cell[0]
                if not stats.depth:
                    stats.incl_s += elapsed
                    stats.calls += 1
                calls[name] += 1
                if stack:
                    stack[-1][0] += elapsed

        return spanned

    def snapshot(self) -> Dict[str, Tuple[float, float, int]]:
        """``group -> (self_s, incl_s, calls)`` as of now."""
        return {k: (g.self_s, g.incl_s, g.calls) for k, g in self.groups.items()}


class Tallies:
    """Probe/hit tallies of operators, read before a plan is replaced.

    Operators carry plain ``probes``/``hits`` ints; a JISC transition
    builds new operators, so the old plan's tallies are harvested just
    before ``perform_jisc_transition`` runs.  Scans survive transitions
    and are read once, at the end.
    """

    def __init__(self) -> None:
        self.probes = 0
        self.hits = 0

    def add(self, ops: List[Operator]) -> None:
        for op in ops:
            self.probes += op.probes
            self.hits += op.hits


#: (group, owner, attribute) for every wrapped entry point.
SPAN_TABLE: Tuple[Tuple[str, Any, str], ...] = (
    ("streams.window", SlidingWindow, "push"),
    ("streams.window", SlidingWindow, "push_all"),
    ("streams.window", SlidingWindow, "discard"),
    ("streams.composite", CompositeTuple, "of"),
    ("operators.join", JoinOperator, "process"),
    ("operators.state", HashState, "add"),
    ("operators.state", HashState, "remove_entry"),
    ("operators.state", HashState, "remove_with_part"),
    ("operators.expire", StreamScan, "evict"),
    ("operators.expire", Operator, "remove"),
    ("core.completion", controller_mod, "complete_value_left_deep"),
    ("core.completion", controller_mod, "complete_value_recursive"),
    ("core.freshness", JISCController, "on_arrival"),
    ("core.freshness", JISCController, "after_arrival"),
    ("core.expiry", JISCController, "_on_expiry"),
    ("core.transition", jisc_mod, "perform_jisc_transition"),
    ("engine.count", Metrics, "count"),
    ("engine.count", Metrics, "count_n"),
    ("perf.intern", tuples_mod, "_intern"),
    ("shard.route", HashPartitioner, "shard_of"),
    ("shard.route", HashPartitioner, "bucket_of"),
    ("shard.route", partition_mod, "stable_hash"),
    ("shard.route", executor_mod, "stable_hash"),
    ("shard.coordinator", ShardedExecutor, "process"),
    ("shard.evict", ShardWorker, "evict"),
    ("shard.merge", ShardMerger, "collect"),
    ("shard.replay", ShardWorker, "replay"),
    ("shard.reconfig", ShardedExecutor, "fluid_rebalance"),
    ("shard.reconfig", ShardedExecutor, "resize"),
    ("shard.recover", ShardedExecutor, "recover_shard"),
    ("optimizer.evaluate", AdaptiveEngine, "evaluate"),
) + tuple(
    ("telemetry.hook", TelemetryTracer, hook) for hook in TRACER_HOOKS + ("poll",)
) + tuple(("obs.hook", RecordingTracer, hook) for hook in TRACER_HOOKS)

#: Span names whose calls are routing hashes.
HASH_SPANS = ("partition.stable_hash", "executor.stable_hash")


def _span_name(owner: Any, attr: str) -> str:
    owner_name = getattr(owner, "__name__", str(owner))
    return f"{owner_name.rsplit('.', 1)[-1]}.{attr}"


class Instrumentation:
    """Installs the span table (plus a per-shard feed counter) and removes it."""

    def __init__(self, spans: Spans):
        self.spans = spans
        self.tallies = Tallies()
        self.feeds: Dict[int, int] = {}
        self._saved: List[Tuple[Any, str, Any]] = []

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("instrumentation already installed")
        tallies = self.tallies

        def harvest(old_plan: Any, *args: Any, **kwargs: Any) -> None:
            tallies.add(old_plan.internal)

        for group, owner, attr in SPAN_TABLE:
            raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            self._saved.append((owner, attr, raw))
            is_classmethod = isinstance(raw, classmethod)
            fn = raw.__func__ if is_classmethod else raw
            # A transition replaces the plan's operators: read their tallies first.
            before = harvest if group == "core.transition" else None
            wrapped = self.spans.wrap(group, _span_name(owner, attr), fn, before)
            setattr(owner, attr, classmethod(wrapped) if is_classmethod else wrapped)
        feed = ShardWorker.__dict__["feed"]
        feeds = self.feeds

        def counted_feed(worker: ShardWorker, tup: Any) -> None:
            feeds[worker.shard_id] = feeds.get(worker.shard_id, 0) + 1
            feed(worker, tup)

        self._saved.append((ShardWorker, "feed", feed))
        ShardWorker.feed = counted_feed  # type: ignore[method-assign]

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)


#: Per-layer metrics of the traced run: (name, unit, better).  Times are
#: calibration-normalised self time per arrival, except ``shard.replay_us``
#: (inclusive: the replayed work is the cost) and the ``/call`` metrics
#: (inclusive time per outermost call).  NOTES.md maps each metric to the
#: end-to-end metric and workload it should move.
LAYER_METRICS: Tuple[Tuple[str, str, str], ...] = (
    ("streams.window_us", "us/arrival", "lower"),
    ("streams.composite_us", "us/arrival", "lower"),
    ("operators.join_us", "us/arrival", "lower"),
    ("operators.state_us", "us/arrival", "lower"),
    ("operators.expire_us", "us/arrival", "lower"),
    ("operators.hash_probe", "1/arrival", "lower"),
    ("operators.hash_insert", "1/arrival", "lower"),
    ("operators.state_remove", "1/arrival", "lower"),
    ("operators.tuple_emit", "1/arrival", "lower"),
    ("operators.hit_ratio", "ratio", "higher"),
    ("operators.state_entries", "count", "lower"),
    ("operators.outputs_retained", "count", "lower"),
    ("core.completion_us", "us/arrival", "lower"),
    ("core.completions", "1/arrival", "lower"),
    ("core.completion_probe", "1/arrival", "lower"),
    ("core.freshness_us", "us/arrival", "lower"),
    ("core.expiry_us", "us/arrival", "lower"),
    ("core.transition_us", "us/call", "lower"),
    ("core.incomplete_states", "count", "lower"),
    ("engine.count_us", "us/arrival", "lower"),
    ("engine.ops_per_arrival", "1/arrival", "lower"),
    ("perf.intern_us", "us/arrival", "lower"),
    ("perf.interned", "count", "lower"),
    ("shard.route_us", "us/arrival", "lower"),
    ("shard.hashes_per_arrival", "1/arrival", "lower"),
    ("shard.coordinator_us", "us/arrival", "lower"),
    ("shard.evict_us", "us/arrival", "lower"),
    ("shard.merge_us", "us/arrival", "lower"),
    ("shard.skew", "ratio", "lower"),
    ("shard.replay_us", "us/arrival", "lower"),
    ("shard.tuples_replayed", "count/pass", "lower"),
    ("shard.reconfig_ms", "ms/call", "lower"),
    ("shard.log_entries_per_arrival", "1/arrival", "lower"),
    ("shard.recover_ms", "ms/call", "lower"),
    ("telemetry.hook_us", "us/arrival", "lower"),
    ("telemetry.series", "count", "lower"),
    ("obs.hook_us", "us/arrival", "lower"),
    ("obs.events_retained", "count", "lower"),
    ("optimizer.evaluate_us", "us/call", "lower"),
    ("optimizer.evaluations", "count/pass", "lower"),
    ("optimizer.fires", "count/pass", "lower"),
    ("runtime.gc_ms", "ms/pass", "lower"),
    ("runtime.gc_gen2", "count/pass", "lower"),
    ("driver.other_us", "us/arrival", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
)

LAYER_UNITS = {name: unit for name, unit, _ in LAYER_METRICS}


def layer_counts(
    eng: Any,
    seen: Dict[int, Any],
    instr: Instrumentation,
    interner: Any,
    n: int,
    incomplete: List[int],
) -> Dict[str, float]:
    """Work counts of one traced pass, read right after ingestion.

    ``seen`` holds every single-engine strategy sampled during the pass,
    so shards retired by a scale-in still contribute their counts.
    """
    strategies = list(seen.values())
    counts: Dict[str, int] = {}
    for strategy in strategies:
        for op, k in strategy.metrics.counts.items():
            counts[op] = counts.get(op, 0) + k
    final_ops = [op for s in strategies for op in s.plan.operators()]
    probes = instr.tallies.probes + sum(op.probes for op in final_ops)
    hits = instr.tallies.hits + sum(op.hits for op in final_ops)
    live = eng.strategies()
    target = eng.target
    sharded = isinstance(target, ShardedExecutor)
    adaptive = isinstance(target, AdaptiveEngine)
    feeds = list(instr.feeds.values())
    spans = instr.spans
    return {
        "operators.hash_probe": counts.get("hash_probe", 0) / n,
        "operators.hash_insert": counts.get("hash_insert", 0) / n,
        "operators.state_remove": counts.get("state_remove", 0) / n,
        "operators.tuple_emit": counts.get("tuple_emit", 0) / n,
        "operators.hit_ratio": hits / probes if probes else 0.0,
        "operators.state_entries": sum(
            len(op.state) for s in live for op in s.plan.operators()
        ),
        "operators.outputs_retained": sum(len(s.outputs) for s in live),
        "core.completion_probe": counts.get("completion_probe", 0) / n,
        "core.incomplete_states": sum(incomplete) / len(incomplete),
        "engine.ops_per_arrival": sum(counts.values()) / n,
        "perf.interned": len(interner),
        "shard.hashes_per_arrival": sum(spans.calls.get(h, 0) for h in HASH_SPANS) / n,
        "shard.skew": max(feeds) * len(feeds) / sum(feeds) if feeds else 0.0,
        "shard.tuples_replayed": (
            sum(m.tuples_replayed for m in target.moves) if sharded else 0
        ),
        "shard.log_entries_per_arrival": (
            sum(target.log_length(s) for s in range(len(target.workers))) / n
            if sharded
            else 0.0
        ),
        "telemetry.series": (
            len(list(target.telemetry.registry.collect())) if adaptive else 0
        ),
        "obs.events_retained": len(eng.recorder.events) if eng.recorder else 0,
        "optimizer.evaluations": len(target.decisions) if adaptive else 0,
        "optimizer.fires": target.fire_count if adaptive else 0,
    }


def layer_times(
    spans: Spans,
    before: Dict[str, Tuple[float, float, int]],
    n: int,
    res: Dict[str, Any],
) -> Dict[str, float]:
    """Time metrics of one traced pass, calibration-normalised.

    ``before`` is the span snapshot taken when ingestion ended; only the
    recovery metric reads spans recorded after it.
    """
    f = res["factor"]
    empty = (0.0, 0.0, 0)

    def per_arrival(group: str, inclusive: bool = False) -> float:
        self_s, incl_s, _ = before.get(group, empty)
        return (incl_s if inclusive else self_s) * f * 1e6 / n

    def per_call(stats: Tuple[float, float, int], scale: float) -> float:
        _, incl_s, calls = stats
        return incl_s * f * scale / calls if calls else 0.0

    recover_then = before.get("shard.recover", empty)
    recover_now = spans.snapshot().get("shard.recover", empty)
    recover = (0.0, recover_now[1] - recover_then[1], recover_now[2] - recover_then[2])
    traced_self = sum(v[0] for v in before.values())
    return {
        "streams.window_us": per_arrival("streams.window"),
        "streams.composite_us": per_arrival("streams.composite"),
        "operators.join_us": per_arrival("operators.join"),
        "operators.state_us": per_arrival("operators.state"),
        "operators.expire_us": per_arrival("operators.expire"),
        "core.completion_us": per_arrival("core.completion"),
        "core.completions": before.get("core.completion", empty)[2] / n,
        "core.freshness_us": per_arrival("core.freshness"),
        "core.expiry_us": per_arrival("core.expiry"),
        "core.transition_us": per_call(before.get("core.transition", empty), 1e6),
        "engine.count_us": per_arrival("engine.count"),
        "perf.intern_us": per_arrival("perf.intern"),
        "shard.route_us": per_arrival("shard.route"),
        "shard.coordinator_us": per_arrival("shard.coordinator"),
        "shard.evict_us": per_arrival("shard.evict"),
        "shard.merge_us": per_arrival("shard.merge"),
        "shard.replay_us": per_arrival("shard.replay", inclusive=True),
        "shard.reconfig_ms": per_call(before.get("shard.reconfig", empty), 1e3),
        "shard.recover_ms": per_call(recover, 1e3),
        "telemetry.hook_us": per_arrival("telemetry.hook"),
        "obs.hook_us": per_arrival("obs.hook"),
        "optimizer.evaluate_us": per_call(before.get("optimizer.evaluate", empty), 1e6),
        "runtime.gc_ms": res["gc_s"] * f * 1e3,
        "runtime.gc_gen2": res["gc_gen2"],
        "driver.other_us": (res["ingest_s"] - traced_self) * f * 1e6 / n,
    }
