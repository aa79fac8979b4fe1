"""Regenerate Table 6-1 (operation latencies) and time the machine
model construction."""

from repro.experiments import table6_1

from publish import publish


def test_table6_1(benchmark, output_dir):
    table = benchmark.pedantic(table6_1.run, rounds=3, iterations=1)
    assert table.matches_paper()
    publish(output_dir, "table6_1", table.render())
