"""Dashboard smoke tests: the CI ``--once`` mode, frame rendering, the
demo scenario's drift + rebalance, and the snapshot-diff report."""

import json

from repro.shard.executor import RebalanceEvent
from repro.telemetry.dash import _run_diff, demo_events, main, run_dashboard


class TestDemoScenario:
    def test_shapes_and_determinism(self):
        schema, events = demo_events(shards=4, tuples=400, window=48, seed=0)
        assert set(schema.names) == {"S0", "S1", "S2"}
        rebalances = [e for e in events if isinstance(e, RebalanceEvent)]
        assert len(rebalances) == 1
        arrivals = [e for e in events if not isinstance(e, RebalanceEvent)]
        assert len(arrivals) == 400
        _, again = demo_events(shards=4, tuples=400, window=48, seed=0)
        assert [repr(e) for e in again] == [repr(e) for e in events]


class TestFrames:
    def test_once_renders_per_shard_state(self):
        frames = list(
            run_dashboard(shards=4, tuples=1200, window=48, seed=0, once=True)
        )
        assert len(frames) == 1
        frame, telemetry = frames[0]
        lines = frame.splitlines()
        assert "repro telemetry — sharded-jisc — 1200/1200 arrivals" in lines[0]
        # one table row per shard, each carrying phase + counts
        rows = [ln for ln in lines if ln.strip().startswith(("0", "1", "2", "3"))]
        assert len(rows) == 4
        assert all("steady" in row for row in rows)
        # the demo's mid-run flip must show up as a drift flag somewhere
        assert "DRIFT" in frame
        assert telemetry.executor.rebalances == 1

    def test_live_mode_yields_periodic_frames(self):
        frames = list(
            run_dashboard(
                shards=2, tuples=600, window=48, seed=0, frame_every=200
            )
        )
        assert len(frames) == 4  # 200/400/600 + final
        assert "600/600 arrivals" in frames[-1][0]


class TestCli:
    def test_once_smoke(self, capsys):
        assert main(["--once", "--tuples", "600", "--snapshot-every", "0"]) == 0
        out = capsys.readouterr().out
        assert "arrivals" in out and "hot keys" in out
        for shard in range(4):
            assert f"\n{shard:>5}  " in out

    def test_export_and_prom_artifacts(self, tmp_path, capsys):
        snaps = tmp_path / "snaps.jsonl"
        prom = tmp_path / "expo.prom"
        code = main(
            [
                "--once",
                "--tuples",
                "600",
                "--snapshot-every",
                "200",
                "--export",
                str(snaps),
                "--prom",
                str(prom),
            ]
        )
        assert code == 0
        with open(snaps) as fh:
            rows = [json.loads(line) for line in fh]
        assert rows and all("series" in r for r in rows)
        text = prom.read_text()
        assert "# TYPE repro_engine_arrivals_total counter" in text

    def test_diff_report_single_file(self, tmp_path, capsys):
        snaps = tmp_path / "snaps.jsonl"
        assert (
            main(
                [
                    "--once",
                    "--tuples",
                    "600",
                    "--snapshot-every",
                    "200",
                    "--export",
                    str(snaps),
                ]
            )
            == 0
        )
        capsys.readouterr()
        assert _run_diff([str(snaps)]) == 0
        out = capsys.readouterr().out
        assert "snapshot" in out and "engine_arrivals_total" in out

    def test_diff_needs_snapshots(self, tmp_path, capsys):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        assert _run_diff([str(empty)]) == 2


class TestAdaptiveLine:
    def test_frame_shows_trigger_tallies_when_loop_attached(self):
        from repro.optimizer import AdaptiveEngine
        from repro.optimizer.triggers import NeverTrigger
        from repro.shard import ShardedExecutor
        from repro.telemetry.dash import render_frame

        schema, events = demo_events(shards=2, tuples=400, window=48, seed=0)
        ex = ShardedExecutor(schema, schema.names, num_shards=2, strategy="jisc")
        engine = AdaptiveEngine(
            ex,
            policy=NeverTrigger(),
            evaluate_every=64,
            hub_options={"selectivity_window": 96, "drift_block": 16},
        )
        engine.run(events)
        frame = render_frame(engine.telemetry, 400, 400)
        assert "adaptive:" in frame
        assert f"{len(engine.decisions)} evaluations, 0 fired" in frame

    def test_frame_has_no_adaptive_line_without_a_loop(self):
        frames = list(run_dashboard(shards=2, tuples=200, window=48, seed=0, once=True))
        frame, _ = frames[0]
        assert "adaptive:" not in frame


class TestRebalanceLine:
    def test_line_tracks_a_live_plan_between_batches(self):
        from repro.shard import ShardedExecutor, skewed_assignment
        from repro.telemetry import ShardTelemetry
        from repro.telemetry.dash import render_frame

        schema, events = demo_events(shards=2, tuples=400, window=48, seed=0)
        arrivals = [e for e in events if not isinstance(e, RebalanceEvent)]
        ex = ShardedExecutor(schema, schema.names, num_shards=2, inter_arrival=1.0)
        telemetry = ShardTelemetry(ex)
        ex.process_batch(arrivals[:200])
        # An eager per-key plan settles each batch as it opens, so no
        # session is open between arrivals while later batches remain.
        plan = ex.fluid_rebalance(skewed_assignment(64, 1), "eager", batch_keys=1)
        assert plan.total_batches > 2 and ex.session is None
        frame = render_frame(telemetry, 200, 400)
        assert f"rebalance: eager plan, batch 2/{plan.total_batches}, " in frame
        ex.process(arrivals[200])
        frame = render_frame(telemetry, 201, 400)
        assert f"rebalance: eager plan, batch 3/{plan.total_batches}, " in frame
        ex.drain_rebalance()
        frame = render_frame(telemetry, 201, 400)
        assert "rebalance: idle (1 completed)" in frame
