"""ContinuousQuery: the push-style adaptive facade.

Ties together everything a user needs for a long-running continuous join
query: a migration strategy (JISC by default) driven by an
:class:`~repro.optimizer.adaptive.AdaptiveEngine`, which closes the
optimize-at-runtime loop of Sections 1 and 5.2 (the *trigger* policy the
paper treats as orthogonal, provided here so the system is usable end to
end).

There is one statistics path: the engine's
:class:`~repro.telemetry.hub.TelemetryTracer` polls the operators' native
probe tallies into windowed selectivity estimators and Page–Hinkley drift
detectors, a :class:`~repro.optimizer.cost.PlanCostMaintainer` turns them
into plan costs, and a :class:`~repro.optimizer.triggers.TriggerPolicy`
decides every ``reoptimize_every`` arrivals whether to fire an ordinary
JISC transition.  Pass ``registry=`` to share the hub's registry with
other telemetry, and ``policy=NeverTrigger()`` to keep the statistics
without ever migrating.

Example::

    query = ContinuousQuery(Schema.uniform(["R", "S", "T"], 500),
                            ("R", "S", "T"))
    for stream, key in feed:
        for result in query.push(stream, key):
            handle(result)
    print(query.transition_log)
"""

from __future__ import annotations

from typing import Any, List, Optional, Sequence, Tuple

from repro.engine.cost import CostModel
from repro.engine.metrics import Metrics
from repro.migration.jisc import JISCStrategy
from repro.migration.moving_state import MovingStateStrategy
from repro.migration.parallel_track import ParallelTrackStrategy
from repro.optimizer.adaptive import AdaptiveEngine
from repro.optimizer.triggers import TriggerPolicy
from repro.streams.schema import Schema
from repro.streams.tuples import StreamTuple
from repro.telemetry.hub import TelemetryTracer
from repro.telemetry.registry import MetricsRegistry

STRATEGIES = {
    "jisc": JISCStrategy,
    "moving_state": MovingStateStrategy,
    "parallel_track": ParallelTrackStrategy,
}


class ContinuousQuery:
    """An adaptive continuous multi-way join query.

    Parameters
    ----------
    schema:
        Streams and window sizes.
    initial_order:
        Left-deep join order to start from.
    strategy:
        ``"jisc"`` (default), ``"moving_state"`` or ``"parallel_track"``.
    join:
        ``"hash"`` or ``"nl"``.
    policy:
        The :class:`TriggerPolicy` deciding when to re-order (the
        adaptive engine's hysteresis default if omitted);
        :class:`~repro.optimizer.triggers.NeverTrigger` disables
        re-optimization while keeping the statistics.
    reoptimize_every:
        How many arrivals between policy evaluations.
    registry:
        Telemetry registry to publish probe statistics into (a private
        one is created if omitted).
    selectivity_window:
        Sliding window (in probes) of the per-stream selectivity estimators.
    """

    def __init__(
        self,
        schema: Schema,
        initial_order: Sequence[str],
        strategy: str = "jisc",
        join: str = "hash",
        policy: Optional[TriggerPolicy] = None,
        reoptimize_every: int = 1_000,
        cost_model: Optional[CostModel] = None,
        registry: Optional[MetricsRegistry] = None,
        selectivity_window: int = 5000,
    ):
        if strategy not in STRATEGIES:
            raise ValueError(
                f"unknown strategy {strategy!r}; pick one of {sorted(STRATEGIES)}"
            )
        if reoptimize_every <= 0:
            raise ValueError("reoptimize_every must be positive")
        self.schema = schema
        self.strategy = STRATEGIES[strategy](
            schema, tuple(initial_order), join=join, cost_model=cost_model
        )
        self.engine = AdaptiveEngine(
            self.strategy,
            policy=policy,
            evaluate_every=reoptimize_every,
            registry=registry,
            hub_options={"selectivity_window": selectivity_window},
        )
        self.telemetry: TelemetryTracer = self.engine.telemetry
        self.registry = self.telemetry.registry
        self.transition_log: List[Tuple[int, Tuple[str, ...]]] = []
        self._next_seq = 0
        self._emitted_cursor = 0

    @property
    def order(self) -> Tuple[str, ...]:
        """The left-deep join order the query is running."""
        return self.engine.order

    # -- ingestion ------------------------------------------------------------------

    def push(self, stream: str, key: Any, payload: Any = None) -> List:
        """Feed one tuple; returns the results it produced (possibly none)."""
        return self.push_tuple(StreamTuple(stream, self._next_seq, key, payload))

    def push_tuple(self, tup: StreamTuple) -> List:
        """Feed a pre-built tuple (its seq must be monotonically fresh)."""
        if tup.seq < self._next_seq:
            raise ValueError(
                f"tuple seq {tup.seq} is in the past (next is {self._next_seq})"
            )
        self._next_seq = tup.seq + 1
        migrations = self.engine.migrations
        fired = len(migrations)
        self.engine.process(tup)
        if len(migrations) != fired:
            self.transition_log.append((self._next_seq, migrations[-1].best_order))
        outputs = self.strategy.outputs
        fresh = outputs[self._emitted_cursor :]
        self._emitted_cursor = len(outputs)
        return fresh

    # -- results / introspection ------------------------------------------------------

    @property
    def results(self) -> List:
        """All results emitted so far."""
        return self.strategy.outputs

    @property
    def metrics(self) -> Metrics:
        return self.strategy.metrics

    def selectivity_of(self, stream: str) -> Optional[float]:
        """Windowed match rate of probes against ``stream``'s state
        (``None`` before the first probe)."""
        self.telemetry.poll()
        return self.telemetry.selectivity_of(stream)

    def drifted(self, stream: str) -> bool:
        """Has the Page–Hinkley test flagged a selectivity shift?"""
        self.telemetry.poll()
        return self.telemetry.drifted(stream)

    def sync_telemetry(self) -> MetricsRegistry:
        """Materialize the live estimators into the registry's series."""
        return self.telemetry.sync()

    # -- the adaptive loop ---------------------------------------------------------

    def reoptimize_now(self) -> Optional[Tuple[str, ...]]:
        """Force a policy evaluation; returns the new order if it fired."""
        decision = self.engine.evaluate()
        if not decision.fired:
            return None
        self.transition_log.append((self._next_seq, decision.best_order))
        return decision.best_order
