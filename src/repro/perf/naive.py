"""Pre-acceleration reference implementations, swappable at runtime.

The hot-path work of docs/PERFORMANCE.md (interned lineage ids, cached
tuple identity, merged composite construction, grouped counting, batched
arrival loops, the O(1) sink search) changed *how fast* the engine runs
without changing *what* it computes.  To keep that claim measurable, this
module preserves the pre-acceleration implementations and offers
:func:`naive_mode`, a context manager that swaps them in — lineage-tuple
keyed states, sort-on-every-access lineage, per-item counting, per-tuple
arrival loops — and restores the accelerated ones on exit.

``repro.perf.regress`` times identical scenarios inside and outside
``naive_mode()`` in the same process; the ratio is the speedup the
acceleration work actually delivers, immune to machine and load noise in
a way absolute wall-clock baselines are not.

Usage constraint: strategies must be **constructed inside** the context.
The naive implementations key states by lineage tuples while the
accelerated ones key by interned ids; a state populated under one keying
is garbage under the other.  ``naive_mode`` guards nothing here — it is a
measurement harness, not a feature flag.

Both modes produce identical outputs and identical op counts (the tier-1
equivalence tests in tests/test_perf_accel.py assert exactly that), so a
regression in either direction is attributable to speed alone.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Collection, Iterator, List, Optional, Set, Tuple

from repro.eddy.cacq import CACQExecutor
from repro.eddy.routing import FixedOrderRouting
from repro.engine.metrics import Counter, Metrics
from repro.engine.queued import QueueScheduler
from repro.migration.base import MigrationStrategy, StaticPlanExecutor
from repro.migration.jisc import JISCStrategy
from repro.migration.parallel_track import ParallelTrackStrategy
from repro.obs.tracer import RecordingTracer
from repro.operators.joins import JoinOperator
from repro.operators.scan import StreamScan
from repro.operators.sink import OutputSink
from repro.operators.state import Entry, HashState
from repro.perf.intern import INTERNER
from repro.streams.tuples import CompositeTuple, StreamTuple

Lineage = Tuple[Tuple[str, int], ...]


# ---------------------------------------------------------------------------
# Lineage-tuple-keyed HashState (pre-interning behaviour): every index keys
# on the nested ``(stream, seq)`` tuple, so probes/inserts/removals pay the
# full tuple-hashing cost on every operation.


def _n_add(self: HashState, entry: Entry) -> bool:
    lineage = entry.lineage
    if lineage in self.by_lineage:
        return False
    self.by_key.setdefault(entry.key, {})[lineage] = entry
    self.by_lineage[lineage] = entry
    for part in lineage:
        self.by_part.setdefault(part, set()).add(lineage)
    self._size += 1
    return True


def _n_get(self: HashState, key: Any) -> List[Entry]:
    bucket = self.by_key.get(key)
    if not bucket:
        return []
    return list(bucket.values())


def _n_get_view(self: HashState, key: Any) -> Collection[Entry]:
    # Pre-acceleration probes copied the bucket on every access.
    return _n_get(self, key)


def _n_remove_entry(self: HashState, entry: Entry) -> bool:
    lineage = entry.lineage
    if lineage not in self.by_lineage:
        return False
    bucket = self.by_key.get(entry.key)
    if bucket is None or lineage not in bucket:
        return False
    del bucket[lineage]
    if not bucket:
        del self.by_key[entry.key]
    del self.by_lineage[lineage]
    for part in lineage:
        owners = self.by_part.get(part)
        if owners is not None:
            owners.discard(lineage)
            if not owners:
                del self.by_part[part]
    self._size -= 1
    return True


def _n_remove_with_part(self: HashState, part: Tuple[str, int]) -> List[Entry]:
    lineages = self.by_part.get(part)
    if not lineages:
        return []
    removed: List[Entry] = []
    for lineage in sorted(lineages):
        entry = self.by_lineage.get(lineage)
        if entry is not None and self.remove_entry(entry):
            removed.append(entry)
    return removed


def _n_entries(self: HashState) -> Iterator[Entry]:
    return iter(self.by_lineage.values())


def _n_contains(self: HashState, entry: Entry) -> bool:
    return entry.lineage in self.by_lineage


def _n_copy_from(self: HashState, other: HashState) -> int:
    n = 0
    for entry in other.by_lineage.values():
        if self.add(entry):
            n += 1
    return n


# ---------------------------------------------------------------------------
# Uncached tuple identity: lineage re-sorted on every access, lids interned
# per call, equality/hashing over the nested tuples.


def _n_stream_lineage(self: StreamTuple) -> Lineage:
    return ((self.stream, self.seq),)


def _n_composite_lineage(self: CompositeTuple) -> Lineage:
    return tuple(sorted((p.stream, p.seq) for p in self.parts))


def _n_composite_eq(self: CompositeTuple, other: object) -> bool:
    return isinstance(other, CompositeTuple) and self.lineage == other.lineage


def _n_composite_hash(self: CompositeTuple) -> int:
    return hash(self.lineage)


def _n_composite_min_seq(self: CompositeTuple) -> int:
    return min(p.seq for p in self.parts)


def _n_composite_max_seq(self: CompositeTuple) -> int:
    return max(p.seq for p in self.parts)


def _n_of(cls: type, *tuples: "StreamTuple | CompositeTuple") -> CompositeTuple:
    parts: List[StreamTuple] = []
    for t in tuples:
        if isinstance(t, CompositeTuple):
            parts.extend(t.parts)
        else:
            parts.append(t)
    parts.sort(key=lambda p: p.stream)
    return cls(tuples[0].key, tuple(parts))


# ---------------------------------------------------------------------------
# Per-item counting: the clock ticks through its method, the tracer buckets
# through ``setdefault`` on every count, and bulk counts loop.


def _n_count(self: Metrics, op: str) -> None:
    counts = self.counts
    counts[op] = counts.get(op, 0) + 1
    if self.clock is not None:
        self.clock.tick(op)
    if self.tracer.wants_counts:
        self.tracer.on_count(op, 1)


def _n_count_n(self: Metrics, op: str, n: int) -> None:
    for _ in range(n):
        _n_count(self, op)


def _n_on_count(self: RecordingTracer, op: str, n: int = 1) -> None:
    by = self.phase_counts.setdefault(self.phase, {})
    by[op] = by.get(op, 0) + n


def _n_first_output_at_or_after(self: OutputSink, t: float) -> Optional[float]:
    for when in self.output_times:
        if when >= t:
            return when
    return None


# ---------------------------------------------------------------------------
# Pre-acceleration operator hot paths: per-push eviction lists, unhoisted
# probe loops, per-item eddy routing.  The ``self.state.add(...)`` calls
# below are the swapped-in bodies of the sanctioned pipeline sites in
# repro/operators/ — the completion-hook discipline is unchanged.


def _n_scan_insert(self: StreamScan, tup: StreamTuple) -> None:
    if tup.stream != self.stream:
        raise ValueError(f"tuple from {tup.stream!r} fed to scan of {self.stream!r}")
    for evicted in self.window.push_all(tup):
        self._expire(evicted)
    self.state.add(tup)  # jisclint: disable=JISC004
    self.metrics.count(Counter.HASH_INSERT)
    self.emit(tup)


def _n_join_process(self: JoinOperator, tup: Any, child: Any) -> None:
    if child is None:
        raise ValueError("join operators receive tuples from children only")
    opposite = self.opposite(child)
    if not opposite.state.status.complete and self.completion_hook is not None:
        self.completion_hook(tup, self, opposite)
    matches = self.matches_in(opposite.state, tup.key)
    opposite.probes += 1
    if matches:
        opposite.hits += 1
    for match in matches:
        result = CompositeTuple.of(tup, match)
        if self.state.add(result):  # jisclint: disable=JISC004
            self.metrics.count(Counter.HASH_INSERT)
            self.emit(result)
    if not self.state.status.complete and self.completion_hook is not None:
        self.completion_hook(tup, self, self)


def _n_cacq_process(self: CACQExecutor, tup: StreamTuple) -> None:
    metrics = self.metrics
    tracer = metrics.tracer
    if tracer.enabled:
        tracer.arrival(tup)
    self.stems[tup.stream].insert(tup)
    metrics.count(Counter.EDDY_VISIT)
    candidates = [s for s in self.routing if s != tup.stream]
    partials: List[Any] = [tup]
    for stream in self.policy.order_for(tup.stream, candidates):
        stem = self.stems[stream]
        next_partials: List[Any] = []
        for partial in partials:
            for match in stem.probe(partial.key):
                next_partials.append(CompositeTuple.of(partial, match))
        for _ in next_partials:
            metrics.count(Counter.EDDY_VISIT)
        self.policy.observe(stream, bool(next_partials))
        partials = next_partials
        if not partials:
            return
    clock = metrics.clock
    for result in partials:
        metrics.count(Counter.OUTPUT)
        self.outputs.append(result)
        when = clock.now if clock is not None else float(len(self.outputs))
        self.output_times.append(when)
        if tracer.enabled:
            tracer.output(result, when)


# ---------------------------------------------------------------------------
# Per-tuple arrival loops and per-item queue accounting.


def _n_jisc_process_batch(self: JISCStrategy, tuples: Any) -> None:
    process = self.process
    for tup in tuples:
        process(tup)


def _n_drain(self: QueueScheduler) -> int:
    n = 0
    queue = self._queue
    count = self.metrics.count
    while queue:
        count(Counter.QUEUE_OP)
        item = queue.popleft()
        if item[0] == "process":
            _, target, tup, child = item
            # This *is* QueueScheduler.drain (swapped in): the sanctioned
            # dequeue-and-dispatch site, same as engine/queued.py.
            target.process(tup, child)  # jisclint: disable=JISC005
        else:
            _, target, part, child, fresh = item
            target.remove(part, child, fresh)
        n += 1
    return n


def _n_collect(self: ParallelTrackStrategy) -> None:
    # Pre-acceleration dedup: one count per examined output, keyed on the
    # (re-sorted) lineage tuple, no single-track bulk-copy fast path.
    for track in self.tracks:
        sink = track.plan.sink
        outs = sink.outputs
        n = len(outs)
        while track.cursor < n:
            out = outs[track.cursor]
            when = sink.output_times[track.cursor]
            track.cursor += 1
            self.metrics.count(Counter.DEDUP_CHECK)
            lineage = out.lineage
            if lineage in self._seen:
                continue
            self._seen.add(lineage)
            self._outputs.append(out)
            self._output_times.append(when)


def _n_only_new_entries(self: ParallelTrackStrategy, plan: Any, threshold: int) -> bool:
    verdict = True
    for op in plan.operators():
        for entry in op.state.entries():
            self.metrics.count(Counter.PURGE_CHECK)
            if entry.min_seq() < threshold:
                verdict = False
                if not self.purge_scan_full:
                    return False
    return verdict


#: (owner, attribute, naive value) — everything :func:`naive_mode` swaps.
_SWAPS: Tuple[Tuple[type, str, Any], ...] = (
    (HashState, "add", _n_add),
    (HashState, "get", _n_get),
    (HashState, "get_view", _n_get_view),
    (HashState, "remove_entry", _n_remove_entry),
    (HashState, "remove_with_part", _n_remove_with_part),
    (HashState, "entries", _n_entries),
    (HashState, "__contains__", _n_contains),
    (HashState, "copy_from", _n_copy_from),
    (StreamTuple, "lineage", property(_n_stream_lineage)),
    (StreamTuple, "lineage_id", property(lambda self: INTERNER.id_of(self.lineage))),
    (CompositeTuple, "lineage", property(_n_composite_lineage)),
    (CompositeTuple, "lineage_id", property(lambda self: INTERNER.id_of(self.lineage))),
    (CompositeTuple, "of", classmethod(_n_of)),
    (CompositeTuple, "__eq__", _n_composite_eq),
    (CompositeTuple, "__hash__", _n_composite_hash),
    (CompositeTuple, "min_seq", _n_composite_min_seq),
    (CompositeTuple, "max_seq", _n_composite_max_seq),
    (Metrics, "count", _n_count),
    (Metrics, "count_n", _n_count_n),
    (RecordingTracer, "on_count", _n_on_count),
    (OutputSink, "first_output_at_or_after", _n_first_output_at_or_after),
    (StreamScan, "insert", _n_scan_insert),
    (JoinOperator, "process", _n_join_process),
    (CACQExecutor, "process", _n_cacq_process),
    (FixedOrderRouting, "adaptive", True),
    (JISCStrategy, "process_batch", _n_jisc_process_batch),
    (StaticPlanExecutor, "process_batch", _n_jisc_process_batch),
    (MigrationStrategy, "process_batch", _n_jisc_process_batch),
    (CACQExecutor, "process_batch", _n_jisc_process_batch),
    (QueueScheduler, "drain", _n_drain),
    (ParallelTrackStrategy, "_collect", _n_collect),
    (ParallelTrackStrategy, "_only_new_entries", _n_only_new_entries),
)


@contextmanager
def naive_mode() -> Iterator[None]:
    """Swap in the pre-acceleration implementations; restore on exit.

    Inside the context, ``lineage_id`` degrades to an uncached per-call
    interning of a freshly rebuilt lineage (no call site actually uses it
    while naive — state indexes and the dedup memo key on the lineage
    tuple itself — but it stays identity-correct if one does).

    Not reentrant, not thread-safe, and strategies that will run inside
    must also be *built* inside (see the module docstring).
    """
    saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in _SWAPS]
    try:
        for owner, attr, naive in _SWAPS:
            setattr(owner, attr, naive)
        yield
    finally:
        for owner, attr, original in saved:
            setattr(owner, attr, original)
