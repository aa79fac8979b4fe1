"""Regenerate Figure 6-2: speedup of STATIC/SPEC/PERFECT over NAIVE on
the 5-FU machine at both memory latencies.

Shape targets: SPEC >= STATIC everywhere; SPEC <= PERFECT except where
dynamic disambiguation legitimately wins (quick, per the paper)."""

from repro.disambig import Disambiguator
from repro.experiments import figure6_2

from publish import publish


def test_figure6_2(benchmark, pipeline, output_dir):
    figure = benchmark.pedantic(figure6_2.run, args=(pipeline,),
                                rounds=1, iterations=1)
    for (name, _lat), bars in figure.speedups.items():
        assert bars[Disambiguator.SPEC] >= bars[Disambiguator.STATIC] - 1e-9
    for lat in (2, 6):
        quick = figure.speedups[("quick", lat)]
        assert quick[Disambiguator.SPEC] > quick[Disambiguator.PERFECT]
    publish(output_dir, "figure6_2", figure.render())
