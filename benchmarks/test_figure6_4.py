"""Regenerate Figure 6-4: code-size increase due to SpD (operations,
not VLIW words) at 2-cycle memory.

Shape targets: growth is modest (well below MaxExpansion) and varies
widely across benchmarks (the paper's smooft-vs-solvde contrast)."""

from repro.bench import REPORTED
from repro.experiments import figure6_4

from publish import publish


def test_figure6_4(benchmark, pipeline, output_dir):
    figure = benchmark.pedantic(figure6_4.run, args=(pipeline,),
                                rounds=1, iterations=1)
    growths = [figure.growth(n) for n in REPORTED]
    assert all(0 <= g <= 1.0 for g in growths)
    assert max(growths) > 0.01
    publish(output_dir, "figure6_4", figure.render())
