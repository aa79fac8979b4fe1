"""Regenerate Table 6-2 (benchmark descriptions)."""

from repro.experiments import table6_2

from publish import publish


def test_table6_2(benchmark, output_dir):
    table = benchmark.pedantic(table6_2.run, rounds=3, iterations=1)
    assert len(table.rows()) == 11
    publish(output_dir, "table6_2", table.render())
