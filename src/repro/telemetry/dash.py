"""Terminal dashboard over the live telemetry registry.

``python -m repro.telemetry.dash`` drives a deterministic 4-shard demo
scenario — a selectivity-drift workload with a mid-run rebalance — and
renders the registry as a terminal dashboard while it streams: per-shard
phase, arrivals, outputs, arrival rate, drift flags, hottest keys, and
rebalance progress.  Everything rendered comes from
:class:`~repro.telemetry.hub.ShardTelemetry`; the dashboard holds no
state of its own, so what it shows is exactly what exposition exports.

Modes
-----

* default — re-render a frame every ``--frame-every`` arrivals (ANSI
  redraw; ``--no-clear`` appends frames instead).
* ``--once`` — run the scenario to completion and print a single frame
  (the CI smoke mode).
* ``--diff A [B]`` — snapshot-diff report: with two files, diff the last
  snapshot of each; with one file holding several snapshots, print the
  consecutive diffs.

``--export`` writes the collected JSONL snapshots, ``--prom`` writes the
final Prometheus exposition (both useful as CI artifacts).
"""

from __future__ import annotations

import argparse
import sys
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.shard.executor import RebalanceEvent, ShardedExecutor, ShardEvent
from repro.shard.partition import balanced_assignment
from repro.streams.schema import Schema
from repro.telemetry.expo import (
    diff_snapshots,
    load_snapshots,
    render_prometheus,
)
from repro.telemetry.hub import ShardTelemetry, TelemetryTracer
from repro.workloads.drift import SelectivityDriftWorkload

#: ANSI: cursor home + clear-to-end (avoids full-screen flicker).
_CLEAR = "\x1b[H\x1b[J"


def demo_events(
    shards: int,
    tuples: int,
    window: int,
    seed: int,
) -> Tuple[Schema, List[ShardEvent]]:
    """The dashboard's deterministic scenario: drift plus one rebalance.

    Three streams, two drift phases (the selective stream flips at the
    midpoint, firing the drift detectors), and a bucket-rotation
    rebalance scheduled just after the flip so the rebalance-progress
    column has something to show.
    """
    streams = ("S0", "S1", "S2")
    half = max(1, tuples // 2)
    workload = SelectivityDriftWorkload(
        streams,
        phases=[(half, "S1"), (tuples - half, "S2")],
        base_domain=24,
        scatter=8,
        seed=seed,
    )
    schema = Schema.uniform(streams, window)
    events: List[ShardEvent] = list(workload.materialize())
    # Rotate every bucket one shard to the right shortly after the drift
    # point: plenty of live keys are mid-window, so the lazy session stays
    # visibly pending for a stretch of the second phase.
    rotation = {
        bucket: (shard + 1) % shards
        for bucket, shard in balanced_assignment(64, shards).items()
    }
    events.insert(half + window, RebalanceEvent(rotation))
    return schema, events


def _fmt_rate(value: float) -> str:
    return f"{value:8.3f}"


def _drift_cell(tracer: TelemetryTracer) -> str:
    flagged = sorted(
        label for label, entry in tracer._sel.items() if entry[0].drifted
    )
    if not flagged:
        return "-"
    return "DRIFT " + ",".join(flagged)


def _hot_cell(tracer: TelemetryTracer, k: int = 3) -> str:
    top = tracer.topk.top(k)
    if not top:
        return "-"
    return " ".join(f"{key!r}x{count}" for key, count, _ in top)


def render_frame(telemetry: ShardTelemetry, processed: int, total: int) -> str:
    """One dashboard frame (plain text, trailing newline)."""
    telemetry.sync()
    executor = telemetry.executor
    registry = telemetry.registry
    coord = telemetry.coordinator
    lines: List[str] = []
    lines.append(
        f"repro telemetry — {executor.name} — "
        f"{processed}/{total} arrivals — {len(registry)} series"
    )
    scheduler = executor.scheduler
    if executor.rebalance_in_progress and scheduler is not None:
        plan = scheduler.plan
        rebalance = (
            f"rebalance: {plan.mode} plan, batch {scheduler.next_index + 1}/"
            f"{plan.total_batches}, {len(executor.pending_keys())} keys pending"
        )
    else:
        rebalance = f"rebalance: idle ({executor.rebalances} completed)"
    settled = sum(1 for m in executor.moves if not m.retired)
    retired = sum(1 for m in executor.moves if m.retired)
    lines.append(f"{rebalance}; moves settled={settled} retired={retired}")
    drifts = sum(
        tracer.drift_events() for tracer in telemetry.workers.values()
    ) + coord.drift_events()
    lines.append(
        f"outputs: {len(executor.outputs)} merged; "
        f"drift events: {drifts}; virtual makespan: {executor.makespan():.1f}"
    )
    evaluations = sum(
        i.value for i in registry.with_name("optimizer_trigger_evaluations_total")
    )
    if evaluations:
        # An adaptive loop is attached: show its decision tallies and the
        # live cost gap it is watching (docs/ADAPTIVITY.md).
        fires = sum(i.value for i in registry.with_name("optimizer_trigger_fires_total"))
        suppressed = sum(
            i.value for i in registry.with_name("optimizer_trigger_suppressions_total")
        )
        costs = [
            (i.value for i in registry.with_name(name))
            for name in ("optimizer_cost_current", "optimizer_cost_best")
        ]
        current, best = (max(values, default=0.0) for values in costs)
        lines.append(
            f"adaptive: {evaluations} evaluations, {fires} fired, "
            f"{suppressed} suppressed; cost current={current:.3f} best={best:.3f}"
        )
    lines.append("")
    header = (
        f"{'shard':>5}  {'phase':<11} {'arrivals':>8} {'outputs':>8} "
        f"{'rate':>8}  {'drift':<22} hot keys"
    )
    lines.append(header)
    lines.append("-" * len(header))
    for shard in sorted(telemetry.workers):
        tracer = telemetry.workers[shard]
        rate = sum(tracer.arrival_rates().values())
        lines.append(
            f"{shard:>5}  {tracer.phase:<11} {tracer._arrivals:>8} "
            f"{tracer._outputs:>8} {_fmt_rate(rate)}  "
            f"{_drift_cell(tracer):<22} {_hot_cell(tracer)}"
        )
    return "\n".join(lines) + "\n"


def run_dashboard(
    shards: int = 4,
    tuples: int = 2000,
    window: int = 48,
    seed: int = 0,
    strategy: str = "jisc",
    frame_every: int = 200,
    snapshot_every: int = 0,
    once: bool = False,
) -> Iterator[Tuple[str, ShardTelemetry]]:
    """Yield dashboard frames while driving the demo scenario.

    ``once`` yields a single final frame; otherwise one frame per
    ``frame_every`` arrivals plus the final one.
    """
    schema, events = demo_events(shards, tuples, window, seed)
    executor = ShardedExecutor(
        schema,
        schema.names,
        num_shards=shards,
        strategy=strategy,
        inter_arrival=1.0,
    )
    telemetry = ShardTelemetry(executor, snapshot_every=snapshot_every)
    total = sum(1 for e in events if not isinstance(e, RebalanceEvent))
    processed = 0
    for event in events:
        if isinstance(event, RebalanceEvent):
            executor.run((event,))
            continue
        executor.process(event)
        processed += 1
        if not once and frame_every > 0 and processed % frame_every == 0:
            yield render_frame(telemetry, processed, total), telemetry
    yield render_frame(telemetry, processed, total), telemetry


def _run_diff(paths: Sequence[str]) -> int:
    if len(paths) == 2:
        a = load_snapshots(paths[0])
        b = load_snapshots(paths[1])
        if not a or not b:
            print("diff: both files must contain telemetry snapshots")
            return 2
        pairs: List[Tuple[str, Dict[str, Any], Dict[str, Any]]] = [
            (f"{paths[0]} -> {paths[1]}", a[-1], b[-1])
        ]
    else:
        snaps = load_snapshots(paths[0])
        if len(snaps) < 2:
            print("diff: need two files, or one file with >= 2 snapshots")
            return 2
        pairs = [
            (f"snapshot {i - 1} -> {i}", snaps[i - 1], snaps[i])
            for i in range(1, len(snaps))
        ]
    for title, sa, sb in pairs:
        print(f"== {title} (at {sa.get('at')} -> {sb.get('at')})")
        lines = diff_snapshots(sa, sb)
        if not lines:
            print("(no changes)")
        for line in lines:
            print(line)
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.telemetry.dash",
        description="Live terminal dashboard over the telemetry registry.",
    )
    parser.add_argument("--shards", type=int, default=4)
    parser.add_argument("--tuples", type=int, default=2000)
    parser.add_argument("--window", type=int, default=48)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--strategy",
        default="jisc",
        help="worker strategy of the demo executor (default: jisc)",
    )
    parser.add_argument(
        "--frame-every",
        type=int,
        default=200,
        help="arrivals between frames (live mode)",
    )
    parser.add_argument(
        "--snapshot-every",
        type=int,
        default=500,
        help="arrivals between registry snapshots (0 disables)",
    )
    parser.add_argument(
        "--once",
        action="store_true",
        help="run to completion and print a single frame (CI smoke mode)",
    )
    parser.add_argument(
        "--no-clear",
        action="store_true",
        help="append frames instead of redrawing in place",
    )
    parser.add_argument(
        "--export",
        metavar="PATH",
        help="write collected JSONL snapshots to PATH",
    )
    parser.add_argument(
        "--prom",
        metavar="PATH",
        help="write the final Prometheus exposition to PATH",
    )
    parser.add_argument(
        "--diff",
        nargs="+",
        metavar="SNAPSHOTS",
        help="snapshot-diff report: two files, or one file with >= 2 snapshots",
    )
    args = parser.parse_args(argv)

    if args.diff:
        if len(args.diff) > 2:
            parser.error("--diff takes one or two snapshot files")
        return _run_diff(args.diff)

    telemetry: Optional[ShardTelemetry] = None
    clear = not (args.once or args.no_clear)
    for frame, telemetry in run_dashboard(
        shards=args.shards,
        tuples=args.tuples,
        window=args.window,
        seed=args.seed,
        strategy=args.strategy,
        frame_every=args.frame_every,
        snapshot_every=args.snapshot_every,
        once=args.once,
    ):
        if clear:
            sys.stdout.write(_CLEAR)
        sys.stdout.write(frame)
        sys.stdout.flush()
    if telemetry is not None:
        if args.export:
            telemetry.coordinator.take_snapshot()
            telemetry.coordinator.snapshots.export_jsonl(args.export)
            print(f"snapshots -> {args.export}")
        if args.prom:
            telemetry.sync()
            with open(args.prom, "w") as fh:
                fh.write(render_prometheus(telemetry.registry))
            print(f"exposition -> {args.prom}")
    return 0


if __name__ == "__main__":  # pragma: no cover - CLI entry
    raise SystemExit(main())
