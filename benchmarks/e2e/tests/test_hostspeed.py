"""Host-speed normalisation: slowdowns from probe samples, the serve
host's probes, and the tally and serve rates that divide or multiply by
them."""

import time
from array import array

import pytest

import hostspeed
import workloads

SECOND = 1_000_000_000


def _meter(samples):
    meter = hostspeed.Meter()
    meter.merge(samples)
    return meter


def test_slowdown_is_the_median_of_the_probes_near_an_operation():
    meter = _meter([(0, 1.0), (SECOND // 10, 1.2), (SECOND // 5, 1.1),
                    (5 * SECOND, 2.0), (5 * SECOND + 1, 2.0)])
    assert meter.slowdown(SECOND // 10, SECOND // 10 + 1000) == 1.1
    assert meter.slowdown(5 * SECOND, 5 * SECOND) == 2.0


def test_slowdown_falls_back_to_every_probe_then_to_one():
    meter = _meter([(0, 1.0), (1, 3.0), (2, 2.0)])
    assert meter.slowdown(100 * SECOND, 101 * SECOND) == 2.0
    assert hostspeed.Meter().slowdown(0, SECOND) == 1.0


def test_merge_keeps_the_samples_in_time_order():
    meter = _meter([(3, 1.0), (1, 2.0)])
    meter.merge([[2, 3.0]])
    assert [at for at, _ in meter.samples()] == [1, 2, 3]


def test_probes_record_a_positive_slowdown_at_most_once_per_interval():
    meter = hostspeed.Meter()
    meter.tick()
    meter.tick()
    assert len(meter.samples()) == 1
    meter.burst()
    samples = meter.samples()
    assert len(samples) == 1 + hostspeed.BURST
    assert all(slowdown > 0 for _, slowdown in samples)


def test_a_tally_divides_each_time_by_the_slowdown_when_it_ran():
    tally = workloads._Tally(_meter([(0, 2.0), (10 * SECOND, 1.0)]))
    tally.cold.add(0, 4_000_000)
    tally.cold.add(10 * SECOND, 3_000_000)
    assert tally.cold.ms(tally.meter) == [2.0, 3.0]
    assert tally.cold.ms(None) == [4.0, 3.0]
    tally.cold_units = 2
    tally.end_pass()
    assert tally.metrics(1.0, 1.0)["throughput_per_s"] == pytest.approx(
        2 / 0.005)


def test_the_serve_host_probes_on_its_event_loop(tmp_path):
    server = workloads._Server(tmp_path, None)
    try:
        time.sleep(0.2)
    finally:
        stopped = server.stop()
    assert stopped.code == 0
    assert len(stopped.probes) >= 5


def test_serve_rates_multiply_each_second_by_its_slowdown():
    since = 100 * SECOND
    done = [array("q", [since + 1, since + 2, since + SECOND + 1])]
    meter = _meter([(since, 1.5), (since + 3 * SECOND, 1.5)])
    assert workloads._per_second(done, since, since + 2 * SECOND,
                                 None) == [2, 1]
    assert workloads._per_second(done, since, since + 2 * SECOND,
                                 meter) == [3.0, 1.5]
