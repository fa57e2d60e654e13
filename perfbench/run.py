"""Wall-clock benchmark: one workload, one seed, one run.

Run from the repository root::

    python3 perfbench/run.py --workload steady_chain10 --seed 1 --seconds 30 --trace 0

Load model: closed loop -- one caller, one thread, pushing the next arrival
when ``process`` returns, which is how the engine is used.  For a
synchronous engine the backlog grows exactly when the arrival rate exceeds
1 / mean service time, so closed-loop throughput at a fixed input size
stands in for sustainable throughput.

A run repeats *passes* until ``--seconds`` have gone by.  Each pass is a
fresh child process (so set-up time, RSS, the collector and the engine's
lineage intern table start from nothing, as for a user): it imports the
engine and builds it (``setup_s``), generates its own seeded arrivals,
ingests them in chunks with a calibration sample before each chunk,
collects the results, times crash recovery, and checks the output
multiset against a never-migrating single engine.  The run reports the
median over passes of each metric.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` first runs
untraced passes (the overhead baseline), then passes with every layer's
entry points wrapped in spans (``perfbench/layers.py``) and prints the
per-layer metrics.  The last line of stdout is the result object; the line
before it is the run record with the raw (uncalibrated) values per pass.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Arrivals between calibration samples (and RSS samples).
CHUNK = 1000
#: Arrivals between per-layer state samples in traced passes.
SAMPLE_EVERY = 50
#: Minimum timed recoveries per pass; ``recovery_ms`` is their median.
RECOVERY_REPEATS = 3
#: Share of a traced run spent on untraced passes (overhead baseline).
TRACE_BASELINE_SHARE = 1 / 3

UNITS = {
    "throughput_tps": "1/s",
    "arrival_p50_us": "us",
    "arrival_p99_us": "us",
    "mem_growth_mb": "MB",
    "recovery_ms": "ms",
    "setup_s": "s",
}


def bootstrap() -> None:
    """Put the engine sources on the path, or fail without a result."""
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: engine sources not found at {SRC}", file=sys.stderr)
        sys.exit(2)
    for path in (str(ROOT), str(SRC)):
        if path not in sys.path:
            sys.path.insert(0, path)


# -- process-level measurements --------------------------------------------------------

_PAGE = os.sysconf("SC_PAGE_SIZE")


def rss_bytes() -> int:
    with open("/proc/self/statm") as f:
        return int(f.read().split()[1]) * _PAGE


class GcWatch:
    """Collector pauses via ``gc.callbacks`` (cheap: one call per collection)."""

    def __init__(self) -> None:
        self.pause_s = 0.0
        self.gen2 = 0
        self._start = 0.0

    def __call__(self, phase: str, info: Dict[str, Any]) -> None:
        if phase == "start":
            self._start = time.perf_counter()
            return
        self.pause_s += time.perf_counter() - self._start
        if info["generation"] == 2:
            self.gen2 += 1

    def __enter__(self) -> "GcWatch":
        gc.callbacks.append(self)
        return self

    def __exit__(self, *exc: Any) -> None:
        gc.callbacks.remove(self)


# -- one pass, in its own process ---------------------------------------------------


def recovery_time(restores: List[Callable[[], None]], cal: Any) -> Tuple[float, float]:
    """Median over crash points of each rebuild's median time, and the
    calibration factor of samples interleaved with the rebuilds.

    Each rebuild runs at least ``RECOVERY_REPEATS`` times and ~10 ms.  The
    pass's own objects are frozen out of the collector meanwhile: a
    recovering process holds only what it rebuilds, whereas here a full
    collection would also walk the crashed engine (a 40-50 ms pause that
    hit one rebuild in ten).
    """
    per_point = []
    first_sample = len(cal.samples)
    gc.freeze()
    try:
        for restore in restores:
            # Rebuilds take milliseconds: calibrate at their own moment,
            # not with the ingestion's average machine speed.
            cal.sample()
            out: List[float] = []
            while len(out) < RECOVERY_REPEATS or (sum(out) < 0.01 and len(out) < 20):
                t0 = time.perf_counter()
                restore()
                out.append(time.perf_counter() - t0)
            per_point.append(statistics.median(out))
    finally:
        gc.unfreeze()
    return statistics.median(per_point), cal.factor(first_sample)


def run_pass(name: str, seed: str, traced: bool, scale: float) -> Dict[str, Any]:
    """One pass: set up, ingest, recover, check; returns raw measurements.

    Runs in a fresh process, so the engine's lineage intern table, the
    allocator and the collector start empty, as they do for a user.
    """
    bootstrap()
    from perfbench.calibrate import Calibrator
    from perfbench.workloads import WORKLOADS

    instr = spans = None
    if traced:
        from perfbench.layers import Instrumentation, Spans

        spans = Spans()
        instr = Instrumentation(spans)
        instr.install()
    workload = WORKLOADS[name](scale)
    eng = workload.build()
    setup_done = time.monotonic()

    tuples = workload.arrivals_for(seed)
    cal = Calibrator()
    for _ in range(5):  # warm the loop; only later samples count
        cal.sample()
    cal.samples.clear()
    seen: Dict[int, Any] = {}
    incomplete: List[int] = []

    def sample_state() -> None:
        strategies = eng.strategies()
        for s in strategies:
            seen[id(s)] = s
        incomplete.append(sum(s.incomplete_state_count() for s in strategies))

    process = eng.process
    actions = eng.actions
    n = len(tuples)
    lat = [0] * n
    clock = time.perf_counter_ns
    step = SAMPLE_EVERY if traced else CHUNK
    crash_at = {
        (k * n // eng.crash_points) // step * step for k in range(1, eng.crash_points)
    }
    restores: List[Callable[[], None]] = []
    ingest_ns = 0
    gc.collect()
    with GcWatch() as gcw:
        rss0 = peak = rss_bytes()
        for c0 in range(0, n, step):
            if c0 % CHUNK == 0:
                cal.sample()
                peak = max(peak, rss_bytes())
            if traced:
                sample_state()
            if c0 in crash_at:
                restores.append(eng.crash())
            t0 = clock()
            for i in range(c0, min(n, c0 + step)):
                a = clock()
                action = actions.get(i)
                if action is not None:
                    action()
                process(tuples[i])
                lat[i] = clock() - a
            ingest_ns += clock() - t0
        if traced:
            sample_state()
        # Delivering the results once is part of the timed ingestion.
        t0 = clock()
        lineages = eng.lineages()
        ingest_ns += clock() - t0
        peak = max(peak, rss_bytes())
    cal.sample()
    res: Dict[str, Any] = {
        "setup_done": setup_done,
        "arrivals": n,
        "ingest_s": ingest_ns / 1e9,
        "factor": cal.factor(),
        "latencies_ns": lat,
        "mem_growth_b": peak - rss0,
        "gc_s": gcw.pause_s,
        "gc_gen2": gcw.gen2,
    }
    if traced:
        import repro.perf.intern as intern_mod
        from perfbench.layers import layer_counts, layer_times

        layers = layer_counts(eng, seen, instr, intern_mod.INTERNER, n, incomplete)
        before = spans.snapshot()
    restores.append(eng.crash())
    res["recovery_s"], res["recovery_factor"] = recovery_time(restores, cal)
    if traced:
        layers.update(layer_times(spans, before, n, res))
        instr.uninstall()
        res["layers"] = layers
    got = Counter(lineages)
    del eng, lineages
    ref = workload.reference(tuples)
    res["expected"] = sum(ref.values())
    res["missing"] = sum((ref - got).values())
    res["spurious"] = sum((got - ref).values())
    return res


def spawn_pass(
    name: str, seed: int, index: int, traced: bool, scale: float
) -> Dict[str, Any]:
    """Run pass ``index`` in a child process; adds ``setup_s`` to its result.

    The child's arrivals come from ``"<seed>.<index>"``.  Its string-hash
    salt is the pass index: a per-process random salt moved one pass's
    throughput by 7.5% (coefficient of variation) on a fixed input, 3.4%
    with the salt fixed.  Indexing it keeps a spread of dict layouts in
    every run while giving each run the same set.

    ``CLOCK_MONOTONIC`` is system-wide, so the child's set-up stamp and the
    parent's spawn time share one axis.
    """
    cmd = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", name, "--pass-seed", f"{seed}.{index}",
        "--trace", str(int(traced)), "--scale", repr(scale),
    ]
    env = dict(os.environ, PYTHONHASHSEED=str(index))
    start = time.monotonic()
    proc = subprocess.run(
        cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=170
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"error: pass {seed}.{index} of {name} failed")
    res: Dict[str, Any] = json.loads(proc.stdout.strip().splitlines()[-1])
    res["setup_s"] = res.pop("setup_done") - start
    res["tps"] = res["arrivals"] / (res["ingest_s"] * res["factor"])
    raw_lat = sorted(res["latencies_ns"])
    res["p50_us"] = percentile(raw_lat, 50) / 1e3
    res["p99_us"] = percentile(raw_lat, 99) / 1e3
    return res


# -- a run -----------------------------------------------------------------------------


def percentile(sorted_values: List[Any], q: float) -> Any:
    """Nearest-rank percentile of an ascending list."""
    if not sorted_values:
        raise ValueError("no samples")
    rank = min(len(sorted_values), max(1, math.ceil(q * len(sorted_values) / 100)))
    return sorted_values[rank - 1]


def median_of(passes: List[Dict[str, Any]], key: Callable[[Dict[str, Any]], float]) -> float:
    return statistics.median(key(p) for p in passes)


def run_workload(
    name: str, seed: int, seconds: float, trace: bool, scale: float = 1.0
) -> Dict[str, Any]:
    """Measure one workload; returns ``{"result": ..., "record": ...}``."""
    from perfbench.workloads import WORKLOADS

    if name not in WORKLOADS:
        raise SystemExit(f"error: unknown workload {name!r} (one of {', '.join(WORKLOADS)})")

    def passes(budget: float, traced: bool) -> List[Dict[str, Any]]:
        """Passes while the next one (as long as the last) fits the budget."""
        out: List[Dict[str, Any]] = []
        start = last = time.monotonic()
        while not out or 2 * time.monotonic() - last - start <= budget:
            last = time.monotonic()
            # Each pass draws its own arrivals, so a run's medians average
            # over several input realizations, not one draw's heavy tail.
            # Traced passes reuse the untraced seeds: same inputs for the
            # overhead ratio.
            out.append(spawn_pass(name, seed, len(out), traced, scale))
        return out

    if trace:
        base = passes(seconds * TRACE_BASELINE_SHARE, False)
        measured = passes(seconds * (1 - TRACE_BASELINE_SHARE), True)
        everything = base + measured
    else:
        measured = everything = passes(seconds, False)

    expected = sum(p["expected"] for p in everything)
    failed = sum(p["missing"] + p["spurious"] for p in everything)
    record: Dict[str, Any] = {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "arrivals_per_pass": measured[0]["arrivals"],
        "passes": len(measured),
        "failed_frac": failed / expected if expected else 0.0,
        "missing": sum(p["missing"] for p in everything),
        "spurious": sum(p["spurious"] for p in everything),
        "calibration_factor": [p["factor"] for p in measured],
        "raw_throughput_tps": [p["arrivals"] / p["ingest_s"] for p in measured],
        "raw_arrival_p50_us": [p["p50_us"] for p in measured],
        "raw_arrival_p99_us": [p["p99_us"] for p in measured],
        "raw_recovery_ms": [p["recovery_s"] * 1e3 for p in measured],
        "setup_samples_s": [p["setup_s"] for p in measured],
        "gc_ms": [p["gc_s"] * 1e3 for p in measured],
        "gc_gen2": [p["gc_gen2"] for p in measured],
    }
    if trace:
        from perfbench.layers import LAYER_UNITS as units

        untraced_tps = median_of(base, lambda p: p["tps"])
        traced_tps = median_of(measured, lambda p: p["tps"])
        metrics = {
            key: median_of(measured, lambda p: p["layers"][key])
            for key in measured[0]["layers"]
        }
        metrics["trace.overhead_ratio"] = untraced_tps / traced_tps
        record.update(untraced_tps=untraced_tps, traced_tps=traced_tps)
    else:
        units = UNITS
        # Latency percentiles pool every pass's calibrated samples.
        pooled = sorted(ns * p["factor"] / 1e3 for p in measured for ns in p["latencies_ns"])
        record["latency_samples"] = len(pooled)
        metrics = {
            "throughput_tps": median_of(measured, lambda p: p["tps"]),
            "arrival_p50_us": percentile(pooled, 50),
            "arrival_p99_us": percentile(pooled, 99),
            "mem_growth_mb": median_of(measured, lambda p: p["mem_growth_b"] / 2**20),
            "recovery_ms": median_of(
                measured, lambda p: p["recovery_s"] * p["recovery_factor"] * 1e3
            ),
            "setup_s": median_of(measured, lambda p: p["setup_s"] * p["factor"]),
        }
    result = {
        "correct": failed == 0,
        "attempted": max(1, expected),
        "failed": failed,
        "metrics": {
            key: {"value": value, "unit": units[key]}
            for key, value in metrics.items()
        },
    }
    return {"result": result, "record": record}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Internal: run one pass in this process (see spawn_pass); and shrink
    # every pass (the benchmark's own tests).
    parser.add_argument("--pass-seed", help=argparse.SUPPRESS)
    parser.add_argument("--scale", type=float, default=1.0, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0 or args.scale <= 0:
        parser.error("--seconds and --scale must be positive")
    bootstrap()
    if args.pass_seed is not None:
        res = run_pass(args.workload, args.pass_seed, bool(args.trace), args.scale)
        print(json.dumps(res))
        return 0
    out = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.scale)
    print(json.dumps({"record": out["record"]}))
    print(json.dumps(out["result"]))
    if not out["result"]["correct"]:
        print(
            f"error: output differs from the static reference "
            f"({out['record']['missing']} missing, {out['record']['spurious']} spurious)",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
