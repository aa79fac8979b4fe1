"""Tests for the metrics registry (repro.obs.metrics)."""

import json

import pytest

from repro.obs.metrics import (RESERVOIR_CAP, HistogramSummary,
                               MetricsRegistry, nearest_rank)


class TestCounters:
    def test_incr_accumulates(self):
        registry = MetricsRegistry()
        registry.incr("a")
        registry.incr("a", 4)
        assert registry.counters["a"] == 5

    def test_gauge_overwrites(self):
        registry = MetricsRegistry()
        registry.set_gauge("g", 1)
        registry.set_gauge("g", 9)
        assert registry.gauges["g"] == 9


class TestHistograms:
    def test_observe_summarises(self):
        registry = MetricsRegistry()
        for value in (1.0, 3.0, 2.0):
            registry.observe("h", value)
        summary = registry.histograms["h"]
        assert summary.count == 3
        assert summary.total == pytest.approx(6.0)
        assert summary.min == 1.0
        assert summary.max == 3.0
        assert summary.mean == pytest.approx(2.0)

    def test_empty_summary_mean(self):
        assert HistogramSummary().mean == 0.0


class TestPercentiles:
    def test_nearest_rank_pins_loadgen_percentiles(self):
        """loadgen's exact latency percentiles run over every sample;
        on 2,000 samples (past the reservoir cap) the shared function
        gives the values loadgen's own percentile code gave."""
        latencies = sorted(((i * 7919) % 2003) / 4 for i in range(2000))
        assert len(latencies) > RESERVOIR_CAP
        assert [nearest_rank(latencies, q) for q in (50, 95, 99)] == [
            250.75, 475.5, 495.5]

    def test_exact_on_small_series(self):
        summary = HistogramSummary()
        for value in range(1, 101):  # 1..100
            summary.add(float(value))
        assert summary.percentile(50) == pytest.approx(50.0, abs=1.0)
        assert summary.percentile(95) == pytest.approx(95.0, abs=1.0)
        assert summary.percentile(99) == pytest.approx(99.0, abs=1.0)
        assert summary.percentile(0) == 1.0
        assert summary.percentile(100) == 100.0

    def test_empty_series_has_no_percentiles(self):
        summary = HistogramSummary()
        assert summary.percentile(50) is None
        assert "p50" not in summary.to_dict()

    def test_to_dict_reports_percentiles(self):
        summary = HistogramSummary()
        for value in (1.0, 2.0, 3.0):
            summary.add(value)
        out = summary.to_dict()
        assert out["p50"] == pytest.approx(2.0)
        assert out["p95"] == pytest.approx(3.0)
        assert out["p99"] == pytest.approx(3.0)

    def test_reservoir_stays_bounded(self):
        summary = HistogramSummary()
        for value in range(10 * RESERVOIR_CAP):
            summary.add(float(value))
        assert len(summary.samples) < RESERVOIR_CAP
        assert summary.count == 10 * RESERVOIR_CAP
        assert summary.stride > 1

    def test_decimated_percentiles_stay_representative(self):
        summary = HistogramSummary()
        n = 20 * RESERVOIR_CAP
        for value in range(n):
            summary.add(float(value))
        # an evenly spaced subsample of 0..n-1 keeps the quantiles
        assert summary.percentile(50) == pytest.approx(n / 2, rel=0.05)
        assert summary.percentile(95) == pytest.approx(0.95 * n, rel=0.05)

    def test_deterministic_across_runs(self):
        def build():
            summary = HistogramSummary()
            for value in range(3000):
                summary.add(float(value * 7 % 1000))
            return summary
        assert build().to_dict() == build().to_dict()

    def test_combine_merges_reservoirs(self):
        left, right = HistogramSummary(), HistogramSummary()
        for value in range(100):
            left.add(float(value))          # 0..99
            right.add(float(value + 100))   # 100..199
        left.combine(right)
        assert left.count == 200
        assert left.percentile(50) == pytest.approx(100.0, rel=0.1)
        assert len(left.samples) < RESERVOIR_CAP

    def test_combine_rethins_under_cap(self):
        left, right = HistogramSummary(), HistogramSummary()
        for value in range(RESERVOIR_CAP - 1):
            left.add(float(value))
            right.add(float(value))
        left.combine(right)
        assert len(left.samples) < RESERVOIR_CAP
        assert left.stride > 1


class TestSnapshotAndMerge:
    def test_snapshot_is_json_serialisable_and_sorted(self):
        registry = MetricsRegistry()
        registry.incr("z", 1)
        registry.incr("a", 2)
        registry.set_gauge("g", 7)
        registry.observe("h", 1.5)
        snap = registry.snapshot()
        json.dumps(snap)  # must not raise
        assert list(snap["counters"]) == ["a", "z"]
        assert snap["gauges"] == {"g": 7}
        assert snap["histograms"]["h"]["count"] == 1

    def test_merge_combines_families(self):
        left = MetricsRegistry()
        right = MetricsRegistry()
        left.incr("n", 1)
        right.incr("n", 2)
        right.set_gauge("g", 3)
        left.observe("h", 1.0)
        right.observe("h", 5.0)
        left.merge(right)
        assert left.counters["n"] == 3
        assert left.gauges["g"] == 3
        assert left.histograms["h"].count == 2
        assert left.histograms["h"].min == 1.0
        assert left.histograms["h"].max == 5.0

    @staticmethod
    def _worker(seed):
        registry = MetricsRegistry()
        for i in range(seed * 10):
            registry.incr("work", 2)
            registry.observe("h", float(i))
        return registry

    def test_merge_is_associative_on_counters(self):
        """Counters after any merge grouping equal the serial totals —
        the property the jobs=N executor relies on."""
        a, b, c = (self._worker(s) for s in (1, 2, 3))
        left = MetricsRegistry()
        left.merge(a)
        left.merge(b)
        left.merge(c)

        bc = MetricsRegistry()
        bc.merge(self._worker(2))
        bc.merge(self._worker(3))
        right = MetricsRegistry()
        right.merge(self._worker(1))
        right.merge(bc)

        serial = self._worker(1)
        for s in (2, 3):
            serial.merge(self._worker(s))

        assert (left.counters == right.counters == serial.counters
                == {"work": 120})
        assert (left.histograms["h"].count == right.histograms["h"].count
                == serial.histograms["h"].count == 60)

    def test_snapshot_bytes_independent_of_merge_order(self):
        """jobs=4 workers fold in scheduling order; exported JSON must
        not depend on that order."""
        def snap(order):
            root = MetricsRegistry()
            for seed in order:
                root.merge(self._worker(seed))
            return json.dumps(root.snapshot(), sort_keys=True)
        assert snap((1, 2, 3)) == snap((3, 1, 2))
