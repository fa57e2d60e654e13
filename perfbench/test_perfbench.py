"""The benchmark's own tests: ``python3 -m pytest perfbench -q``.

Reduced-size runs of every workload driver (untraced and traced) check
that each metric ``BENCHMARK.json`` names is reported and that the output
matches the static reference; a fake clock checks the self-time
arithmetic of nested spans.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from perfbench import run

run.bootstrap()

from perfbench.layers import LAYER_METRICS, Spans  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
#: Arrivals per pass shrink to this share of the full size.
SCALE = 0.05


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def test_nested_span_self_time() -> None:
    clock = FakeClock()
    spans = Spans(clock)

    def leaf() -> None:
        clock.now += 2.0

    wrapped_leaf = spans.wrap("leaf", "leaf", leaf)

    def middle() -> None:
        clock.now += 1.0
        wrapped_leaf()
        clock.now += 3.0
        wrapped_leaf()

    wrapped_middle = spans.wrap("middle", "middle", middle)

    def outer(depth: int) -> None:
        clock.now += 5.0
        if depth:
            wrapped_outer(depth - 1)  # same group nested in itself
        else:
            wrapped_middle()

    wrapped_outer = spans.wrap("outer", "outer", outer)
    wrapped_outer(1)

    snap = spans.snapshot()
    assert snap["leaf"] == (4.0, 4.0, 2)
    assert snap["middle"] == (4.0, 8.0, 1)
    # Two nested outer spans: self 5 + 5; inclusive counted once, at the
    # outermost span, which covers everything.
    assert snap["outer"] == (10.0, 18.0, 1)
    assert spans.calls == {"leaf": 2, "middle": 1, "outer": 2}
    assert sum(v[0] for v in snap.values()) == clock.now


def test_benchmark_spec_matches_the_driver() -> None:
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.UNITS
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == list(
        LAYER_METRICS
    )


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_untraced_run_reports_every_end_to_end_metric(workload: str) -> None:
    out = run.run_workload(workload, seed=3, seconds=0.01, trace=False, scale=SCALE)
    result = out["result"]
    assert result["correct"] and result["failed"] == 0
    assert out["record"]["failed_frac"] == 0.0
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for metric in result["metrics"].values():
        assert metric["value"] > 0


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_traced_run_reports_every_layer_metric(workload: str) -> None:
    out = run.run_workload(workload, seed=3, seconds=0.01, trace=True, scale=SCALE)
    result = out["result"]
    assert result["correct"] and result["failed"] == 0
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert set(metrics) == {m["name"] for m in SPEC["per_layer"]}
    assert metrics["trace.overhead_ratio"] > 0
    if workload == "steady_chain10":
        # JISC completion is bypassed when no transition happens.
        assert metrics["core.completions"] == 0
        assert metrics["core.incomplete_states"] == 0
        assert metrics["core.transition_us"] == 0
    if workload == "migrate_chain10":
        assert metrics["core.completions"] > 0
    if workload == "shard_zipf_resize":
        # Route + eviction hash every arrival; the rebalance adds a few.
        assert metrics["shard.hashes_per_arrival"] >= 2
        assert metrics["shard.recover_ms"] > 0
    else:
        assert metrics["shard.hashes_per_arrival"] == 0
    if workload == "adaptive_drift":
        assert metrics["optimizer.evaluations"] > 0
        assert metrics["telemetry.hook_us"] > 0
        assert metrics["obs.hook_us"] > 0
