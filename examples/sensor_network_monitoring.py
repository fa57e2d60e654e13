#!/usr/bin/env python3
"""Sensor-network monitoring with an adaptive optimizer in the loop.

The paper's motivating setting (Section 1): long-running continuous queries
over sensor streams whose rates and value distributions drift, so the
initially chosen join order becomes suboptimal mid-flight.

This example correlates four sensor feeds of a building — badge readers,
motion detectors, HVAC controllers and door actuators — on a shared zone
id.  The workload *drifts*: at first the motion stream rarely matches
(most selective, so it belongs at the bottom of the plan); later the badge
stream becomes the selective one.  A :class:`ContinuousQuery` measures
the match rate of every probe against each stream's window, re-ranks the
join order by those selectivities, and migrates via JISC without halting
the output.  A never-migrating reference plan checks that the adaptive
run emitted exactly the same matches.

Run:  python examples/sensor_network_monitoring.py
"""

import random

from repro import ContinuousQuery, Schema, StaticPlanExecutor
from repro.streams.tuples import StreamTuple

STREAMS = ("badge", "motion", "hvac", "door")
ZONES = 120


def drifting_workload(n_tuples: int, seed: int = 0):
    """Two phases: 'motion' keys are scattered first, 'badge' keys later.

    Scattering a stream's keys over a larger domain makes probes against it
    miss more often — i.e. makes its join more selective.
    """
    rng = random.Random(seed)
    tuples = []
    for seq in range(n_tuples):
        stream = STREAMS[seq % len(STREAMS)]
        drifted = "motion" if seq < n_tuples // 2 else "badge"
        if stream == drifted:
            zone = rng.randrange(ZONES * 8)  # mostly unmatched zone ids
        else:
            zone = rng.randrange(ZONES)
        tuples.append(StreamTuple(stream, seq, zone))
    return tuples


def main() -> None:
    schema = Schema.uniform(STREAMS, window=150)
    initial = ("hvac", "motion", "door", "badge")
    query = ContinuousQuery(
        schema, initial, reoptimize_every=500, selectivity_window=1000
    )
    reference = StaticPlanExecutor(schema, initial)

    for tup in drifting_workload(12_000, seed=42):
        before = query.order
        query.push_tuple(tup)
        reference.process(tup)
        if query.order != before:
            print(f"[tuple {tup.seq + 1:6d}] optimizer: {before} -> {query.order}")

    print("observed selectivities:",
          {s: round(query.selectivity_of(s) or 0.0, 3) for s in STREAMS})
    lineages = sorted(t.lineage for t in query.results)
    same = lineages == sorted(reference.output_lineages())
    print(f"\ntransitions performed: {len(query.transition_log)}")
    print(f"matches emitted: {len(query.results)} (reference {len(reference.outputs)}, "
          f"identical={same})")
    print(f"incomplete states at end: {query.strategy.incomplete_state_count()}")
    if not same:
        raise SystemExit("outputs diverged — this is a bug")


if __name__ == "__main__":
    main()
