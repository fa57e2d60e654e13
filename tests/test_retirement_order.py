"""The controller's cached retirement order never goes stale.

``JISCController`` keeps its incomplete operators in a retirement order
sorted by membership, rebuilt when the incomplete set changes instead of
re-sorted on every window eviction.  A 10-join chain under worst-case
transitions every 50 arrivals — one of which adopts still-incomplete
states (Section 4.5) — plus a checkpoint -> restore in the middle checks,
after every eviction, that the cached order equals a fresh sort, and that
outputs and op counts equal a run whose expiry hook sorts on every call.
"""

import json
import random

from repro.core.controller import JISCController
from repro.engine.checkpoint import checkpoint_strategy, restore_strategy
from repro.migration.jisc import JISCStrategy
from repro.plans.transitions import pairwise_exchange, worst_case_transition
from repro.streams.schema import Schema
from repro.streams.tuples import StreamTuple

CHAIN = tuple(f"S{i:02d}" for i in range(11))
WORST = worst_case_transition(CHAIN)
# Shares every membership below its top two with WORST: a transition
# WORST -> ADOPT taken before WORST's states complete adopts them
# incomplete.
ADOPT = pairwise_exchange(WORST, len(WORST) - 2, len(WORST) - 1)
ORDERS = (WORST, ADOPT, CHAIN)
EVERY = 50
N = 900
RESTORE_AT = 475


def by_membership(op):
    return sorted(op.membership)


def sorting_on_expiry(self, tup):
    """The expiry hook as it was before the order was cached: sort per call."""
    key = tup.key
    for op in sorted(self.incomplete_ops, key=by_membership):
        status = op.state.status
        if status.pending is None or key not in status.pending:
            continue
        info = self.info.get(op)
        if info is None:
            continue
        side = op.left if tup.stream in op.left.membership else (
            op.right if tup.stream in op.right.membership else None
        )
        if side is None or not side.state.status.complete:
            continue
        has_old = any(
            entry.max_seq() < info.transition_seq
            for entry in side.state.get_view(key)
        )
        if not has_old:
            status.pending.discard(key)
            if not status.pending:
                self._mark_complete(op)


def arrivals():
    rng = random.Random(14)
    seqs = dict.fromkeys(CHAIN, 0)
    out = []
    for i in range(N):
        stream = CHAIN[i % len(CHAIN)]
        out.append(StreamTuple(stream, seqs[stream], rng.randrange(10)))
        seqs[stream] += 1
    return out


def run():
    """Drive the chain; returns (output lineages, per-segment op counts)."""
    schema = Schema.uniform(CHAIN, 12)
    strategy = JISCStrategy(schema, CHAIN)
    lineages = []
    counts = []
    adopted_incomplete = 0
    for i, tup in enumerate(arrivals()):
        if i == RESTORE_AT:
            lineages.extend(strategy.output_lineages())
            counts.append(strategy.metrics.snapshot())
            assert strategy.controller.incomplete_ops
            strategy = restore_strategy(json.loads(json.dumps(checkpoint_strategy(strategy))))
        if i and i % EVERY == 0:
            before = {op.membership for op in strategy.controller.incomplete_ops}
            strategy.transition(ORDERS[(i // EVERY) % len(ORDERS)])
            after = {op.membership for op in strategy.controller.incomplete_ops}
            adopted_incomplete += len(before & after)
        strategy.process(tup)
    lineages.extend(strategy.output_lineages())
    counts.append(strategy.metrics.snapshot())
    assert adopted_incomplete, "no transition adopted a still-incomplete state"
    return lineages, counts


def test_cached_order_matches_a_fresh_sort_after_every_eviction(monkeypatch):
    cached_on_expiry = JISCController._on_expiry
    checked = []

    def checking_on_expiry(self, tup):
        incomplete_before = len(self.incomplete_ops)
        cached_on_expiry(self, tup)
        expected = sorted(self.incomplete_ops, key=by_membership)
        assert [op for op, _ in self._retirement] == expected
        for op, child_by_stream in self._retirement:
            assert set(child_by_stream) == op.membership
            for stream, child in child_by_stream.items():
                assert stream in child.membership
                assert child is op.left or child is op.right
        checked.append(incomplete_before - len(self.incomplete_ops))

    monkeypatch.setattr(JISCController, "_on_expiry", checking_on_expiry)
    cached = run()
    monkeypatch.setattr(JISCController, "_on_expiry", sorting_on_expiry)
    reference = run()

    assert len(checked) > N // 2
    assert sum(checked) > 0, "no state ever completed through retirement"
    assert cached == reference
