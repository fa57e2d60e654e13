"""Live telemetry: labeled metrics registry, streaming estimators, exposition.

Traces (:mod:`repro.obs`) are post-hoc; telemetry is *live*.  Attach a
:class:`TelemetryTracer` to any strategy (or a :class:`ShardTelemetry`
over a sharded executor) and every instrumentation site the engine
already has — counters, arrivals, outputs, phases, transitions,
rebalances, faults — publishes into one labeled
:class:`MetricsRegistry`, alongside windowed selectivity estimators,
Page–Hinkley drift detectors, arrival-rate estimators and per-shard
hot-key sketches.  Read it back via Prometheus text exposition, JSONL
snapshots, or the terminal dashboard (``python -m repro.telemetry.dash``).
See docs/TELEMETRY.md.
"""

from repro.telemetry.estimators import (
    ArrivalRateEstimator,
    Ewma,
    PageHinkley,
    SampledRate,
    SelectivityDriftDetector,
    WindowedRatio,
)
from repro.telemetry.expo import (
    SnapshotLog,
    diff_snapshots,
    load_snapshots,
    registry_snapshot,
    render_prometheus,
)
from repro.telemetry.registry import (
    Counter,
    Gauge,
    Histogram,
    Instrument,
    MetricsRegistry,
    Windowed,
    canonical_labels,
    series_name,
)
from repro.telemetry.hub import ShardTelemetry, TelemetryTracer
from repro.telemetry.sketch import SpaceSavingSketch

__all__ = [
    "ArrivalRateEstimator",
    "Counter",
    "Ewma",
    "Gauge",
    "Histogram",
    "Instrument",
    "MetricsRegistry",
    "PageHinkley",
    "SampledRate",
    "SelectivityDriftDetector",
    "ShardTelemetry",
    "SnapshotLog",
    "SpaceSavingSketch",
    "TelemetryTracer",
    "Windowed",
    "WindowedRatio",
    "canonical_labels",
    "diff_snapshots",
    "load_snapshots",
    "registry_snapshot",
    "render_prometheus",
    "series_name",
]
