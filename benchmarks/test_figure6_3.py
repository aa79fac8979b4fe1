"""Regenerate Figure 6-3: speedup of SPEC over STATIC vs machine width
(1..8 FUs) for the NRC benchmarks at both memory latencies.

Shape targets: SpD hurts at 1 FU; crossover at 2-3 FUs with 2-cycle
memory and at narrower widths with 6-cycle memory; wide-machine gains
larger at the higher latency."""

from repro.bench import NRC_BENCHMARKS
from repro.experiments import figure6_3

from conftest import publish


def test_figure6_3(benchmark, pipeline, output_dir):
    figure = benchmark.pedantic(figure6_3.run, args=(pipeline,),
                                rounds=1, iterations=1)
    assert min(series[0] for series in figure.series.values()) < 0
    for name in NRC_BENCHMARKS:
        assert figure.crossover_width(name, 6) <= figure.crossover_width(name, 2)
    gain2 = sum(figure.series[(n, 2)][7] for n in NRC_BENCHMARKS)
    gain6 = sum(figure.series[(n, 6)][7] for n in NRC_BENCHMARKS)
    assert gain6 > gain2
    publish(output_dir, "figure6_3", figure.render())
