"""Hot-path profiler: ``python -m repro.perf.profile``.

Runs one of the benchmark-shaped scenarios under :mod:`cProfile` and
prints the top functions by cumulative time — the tool that found (and
keeps finding) the engine's wall-clock hot spots (docs/PERFORMANCE.md).

Scenarios mirror the committed figures so a profile reads directly onto
the numbers the regression gate tracks:

* ``fig9``  — normal operation, 20 joins, no transitions (throughput);
* ``fig7``  — best-case migration stages across plan sizes (migration);
* ``fig10`` — transition-to-first-output latency, hash and NL joins;
* ``migrate`` — 10-join chain (window 80, 100 keys) with a worst-case
  transition every 500 arrivals: the only scenario where pending-value
  retirement runs on most window evictions (``fig7`` is best-case and
  ``fig10`` has one transition).

``--scale`` shrinks the tuple volume for quick iteration; the default
(1.0) matches the committed benchmark shapes.
"""

from __future__ import annotations

import argparse
import cProfile
import pstats
from typing import Any, Callable, Dict

from repro.experiments.common import (
    measure_latency,
    measure_migration_stage,
    measure_normal_operation,
)
from repro.migration.jisc import JISCStrategy
from repro.plans.transitions import worst_case_transition
from repro.streams.generators import UniformWorkload
from repro.streams.schema import Schema


def run_fig9(scale: float) -> Any:
    return measure_normal_operation(
        n_joins=20,
        window=80,
        n_tuples=max(500, int(20_000 * scale)),
        checkpoints=1,
        seed=9,
        key_domain=120,
    )


def run_fig7(scale: float) -> Any:
    sizes = (4, 8, 12) if scale >= 1.0 else (4,)
    return [
        measure_migration_stage(n, window=max(20, int(80 * scale)), case="best", seed=7)
        for n in sizes
    ]


def run_fig10(scale: float) -> Any:
    window = max(20, int(80 * scale))
    return [
        measure_latency(window=window, n_joins=5, join=join, case="worst", seed=5)
        for join in ("hash", "nl")
    ]


def run_migrate(scale: float) -> Any:
    chain = tuple(f"S{i:02d}" for i in range(11))
    orders = (chain, worst_case_transition(chain))
    every = 500
    arrivals = UniformWorkload(
        chain, max(2 * every, int(24_000 * scale)), 100, seed=14
    ).materialize()
    strategy = JISCStrategy(Schema.uniform(chain, 80), chain)
    for i, tup in enumerate(arrivals):
        if i and i % every == 0:
            strategy.transition(orders[(i // every) % 2])
        strategy.process(tup)
    return strategy


SCENARIOS: Dict[str, Callable[[float], Any]] = {
    "fig9": run_fig9,
    "fig7": run_fig7,
    "fig10": run_fig10,
    "migrate": run_migrate,
}


def main(argv: Any = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.perf.profile",
        description="cProfile one benchmark-shaped scenario, top-N by cumtime",
    )
    parser.add_argument(
        "scenario",
        nargs="?",
        default="fig9",
        choices=sorted(SCENARIOS),
        help="which figure-shaped workload to profile (default: fig9)",
    )
    parser.add_argument(
        "-n",
        "--top",
        type=int,
        default=25,
        help="number of functions to print (default: 25)",
    )
    parser.add_argument(
        "--scale",
        type=float,
        default=1.0,
        help="workload scale factor, <1 for quick iteration (default: 1.0)",
    )
    parser.add_argument(
        "--sort",
        default="cumulative",
        choices=("cumulative", "tottime", "calls"),
        help="pstats sort key (default: cumulative)",
    )
    args = parser.parse_args(argv)

    fn = SCENARIOS[args.scenario]
    profiler = cProfile.Profile()
    profiler.enable()
    fn(args.scale)
    profiler.disable()

    stats = pstats.Stats(profiler)
    stats.sort_stats(args.sort)
    print(f"== {args.scenario} (scale={args.scale}) — top {args.top} by {args.sort} ==")
    stats.print_stats(args.top)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
