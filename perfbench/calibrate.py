"""Machine-speed calibration for wall-clock metrics.

Raw CPU speed on a shared machine drifts between runs (and within one), so
the driver interleaves a fixed pure-Python calibration sample with every
ingestion chunk and rescales time metrics to what they would read on a
reference machine on which one sample takes :data:`REFERENCE_S` seconds::

    normalised_time = raw_time * REFERENCE_S / mean_sample_time

A sample is two loops.  One works on a tiny dict (interpreter speed:
CPU share and clock); the other makes strided lookups into a 2^17-entry
table (memory speed: cache and bandwidth contention from neighbours).
The engine is sensitive to both; on a 2-vCPU container, the two loops
together cut the pass-to-pass spread of normalised ingestion time on a
fixed input to 3.6-3.9%, against 6-7.5% for either loop alone and
12-19% raw (NOTES.md).
The table holds only ints, so the collector never traverses it.
Raw values are kept in the run record next to the normalised ones.
"""

from __future__ import annotations

import time
from typing import Dict, List, Tuple

#: Iterations of each loop per calibration sample.
ITERATIONS = 1200

#: Entries in the memory-bound loop's table (a few MB, beyond the caches).
TABLE_SIZE = 1 << 17

#: Seconds one calibration sample takes on the reference machine, a
#: 2-vCPU x86-64 container running CPython 3.11 (the rounded median of
#: samples taken between ingestion chunks).
REFERENCE_S = 0.0025


class _Cell:
    __slots__ = ("key", "value")

    def __init__(self, key: tuple, value: int):
        self.key = key
        self.value = value


def small_loop(iterations: int = ITERATIONS) -> int:
    """Interpreter-bound loop; returns a checksum so it runs fully."""
    buckets: dict = {}
    acc = 0
    for i in range(iterations):
        key = ("s", i & 63)
        cell = _Cell(key, i)
        bucket = buckets.get(key)
        if bucket is None:
            bucket = buckets[key] = []
        bucket.append(cell)
        if len(bucket) > 3:
            acc += bucket.pop(0).value
        acc ^= hash((key, i & 7)) & 0xFF
    return acc


def big_loop(table: Dict[int, int], keys: Tuple[int, ...], start: int) -> int:
    """Memory-bound loop: strided lookups into ``table``; returns a checksum."""
    mask = len(keys) - 1
    acc = 0
    for i in range(ITERATIONS):
        key = keys[(start + i * 7919) & mask]
        pair = (key, table[key])
        acc += pair[1] & 0xFF
        acc ^= hash((pair, i & 7)) & 0xFF
    return acc


class Calibrator:
    """Collects sample timings; gives the factor that rescales raw time."""

    def __init__(self) -> None:
        self.samples: List[float] = []
        self._table = {i * 2654435761 % (1 << 40): i for i in range(TABLE_SIZE)}
        self._keys = tuple(self._table)
        self._start = 0

    def sample(self) -> float:
        # A new start each sample, so lookups do not find a warm cache.
        self._start = (self._start + 104729) & (TABLE_SIZE - 1)
        t0 = time.perf_counter()
        small_loop()
        big_loop(self._table, self._keys, self._start)
        dt = time.perf_counter() - t0
        self.samples.append(dt)
        return dt

    def factor(self, start: int = 0) -> float:
        """``REFERENCE_S / mean sample time`` over the samples from ``start`` on.

        A ratio of totals, not a mean of per-sample ratios, which would be
        biased upward by the occasional preempted sample.
        """
        window = self.samples[start:]
        if not window:
            raise ValueError("no calibration samples taken")
        return REFERENCE_S * len(window) / sum(window)
