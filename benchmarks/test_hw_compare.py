"""Regenerate the compiler vs. hardware disambiguation table
(``repro hwcompare``): every benchmark at 1/2/4/8 FUs, 2-cycle memory,
``store-set`` predictor.

The published file pins every cycle and squash count of the four
configurations, the 1/2/8-FU and SpD+HW cells included, so a change to
the hardware simulator that moves any of them shows up as a diff.
"""

from repro.experiments import hw_compare

from publish import publish


def test_hw_compare(benchmark, pipeline, output_dir):
    table = benchmark.pedantic(hw_compare.run, args=(pipeline,),
                               rounds=1, iterations=1)
    assert table.memory_latency == 2 and table.predictor == "store-set"
    for name, by_width in table.cycles.items():
        assert set(by_width) == set(hw_compare.WIDTHS)
        for cells in by_width.values():
            assert all(cycles > 0 for cycles in cells.values()), name
    publish(output_dir, "hw_compare", table.render())
