"""Metrics registry: named counters, gauges and summary histograms.

The registry is a plain in-process aggregation point — the pipeline's
equivalent of the profiling counters the paper's platform keeps (path
frequencies, alias counts).  Three metric families:

* **counters** — monotonically accumulated totals (``incr``), e.g.
  ``depgraph.builds`` or ``spd.gain_evaluations``;
* **gauges** — last-write-wins values (``set_gauge``), e.g. the cycle
  count of the most recent evaluation;
* **histograms** — summary statistics of observed samples (``observe``):
  count, total, min, max, mean and reservoir-estimated p50/p95/p99.
  Span durations land here under ``span.<name>``, giving a per-stage
  wall-time breakdown for free.

Snapshots are plain dicts with sorted keys, ready for byte-stable JSON
export.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

__all__ = ["HistogramSummary", "MetricsRegistry", "nearest_rank"]

#: Bounded reservoir size per histogram.  When a series outgrows the
#: cap the reservoir decimates itself (keep every other sample, double
#: the sampling stride), so memory stays O(cap) while the kept samples
#: remain an evenly spaced subsample of the whole series.
RESERVOIR_CAP = 512


def nearest_rank(ordered: Sequence[float], q: float) -> float:
    """The *q*-th percentile (``q`` in [0, 100]) of a non-empty
    ascending sequence: the sample at rank ``round(q/100 * (n-1))``,
    so the result is always one of the samples."""
    rank = round(q / 100.0 * (len(ordered) - 1))
    return ordered[max(0, min(len(ordered) - 1, rank))]


@dataclass
class HistogramSummary:
    """Streaming summary of one observed series.

    Exact count/total/min/max/mean plus a bounded deterministic
    reservoir for percentile estimates.  The reservoir keeps every
    ``stride``-th sample; once it reaches :data:`RESERVOIR_CAP` it
    drops every other kept sample and doubles the stride, so long
    series stay evenly represented without unbounded memory.
    """

    count: int = 0
    total: float = 0.0
    min: float = float("inf")
    max: float = float("-inf")
    samples: List[float] = field(default_factory=list)
    stride: int = 1
    _skipped: int = field(default=0, repr=False)

    def add(self, value: float) -> None:
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        self._skipped += 1
        if self._skipped >= self.stride:
            self._skipped = 0
            self.samples.append(value)
            if len(self.samples) >= RESERVOIR_CAP:
                self._decimate()

    def _decimate(self) -> None:
        self.samples = self.samples[::2]
        self.stride *= 2

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, q: float) -> Optional[float]:
        """Nearest-rank percentile estimate from the reservoir
        (``q`` in [0, 100]); ``None`` for an empty series."""
        return nearest_rank(sorted(self.samples), q) if self.samples else None

    def combine(self, other: "HistogramSummary") -> None:
        """Fold *other*'s series into this one (used by registry
        merges): exact fields add, reservoirs concatenate and re-thin
        back under the cap."""
        self.count += other.count
        self.total += other.total
        self.min = min(self.min, other.min)
        self.max = max(self.max, other.max)
        self.samples.extend(other.samples)
        self.stride = max(self.stride, other.stride)
        while len(self.samples) >= RESERVOIR_CAP:
            self._decimate()

    def to_dict(self) -> Dict[str, float]:
        out = {"count": self.count, "total": round(self.total, 3),
               "min": round(self.min, 3), "max": round(self.max, 3),
               "mean": round(self.mean, 3)}
        if self.samples:
            for label, q in (("p50", 50), ("p95", 95), ("p99", 99)):
                out[label] = round(self.percentile(q), 3)
        return out


class MetricsRegistry:
    """Named counters, gauges and histograms with dict snapshots."""

    def __init__(self):
        self.counters: Dict[str, float] = {}
        self.gauges: Dict[str, float] = {}
        self.histograms: Dict[str, HistogramSummary] = {}

    def incr(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def set_gauge(self, name: str, value: float) -> None:
        self.gauges[name] = value

    def observe(self, name: str, value: float) -> None:
        summary = self.histograms.get(name)
        if summary is None:
            summary = self.histograms[name] = HistogramSummary()
        summary.add(value)

    def merge(self, other: "MetricsRegistry") -> None:
        """Fold *other* into this registry (counters add, gauges
        overwrite, histograms combine).  Merging is associative up to
        reservoir thinning, so worker registries can fold in any
        grouping and produce identical counters and equivalent
        summaries."""
        for name, amount in other.counters.items():
            self.incr(name, amount)
        self.gauges.update(other.gauges)
        for name, theirs in other.histograms.items():
            mine = self.histograms.get(name)
            if mine is None:
                mine = self.histograms[name] = HistogramSummary()
            mine.combine(theirs)

    def snapshot(self) -> Dict[str, Dict[str, object]]:
        """Plain-dict snapshot: ``{"counters", "gauges", "histograms"}``.

        Keys are sorted in every family so two registries holding the
        same data serialise byte-identically regardless of the order
        metrics were recorded or merged in (worker pools fold results
        in scheduling order; exports must not depend on it)."""
        return {
            "counters": dict(sorted(self.counters.items())),
            "gauges": dict(sorted(self.gauges.items())),
            "histograms": {name: summary.to_dict()
                           for name, summary in
                           sorted(self.histograms.items())},
        }
