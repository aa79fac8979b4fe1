"""Ablation B: assumed (0.1) vs profiled alias probability in Gain()
— the paper's Section 7 future-work item, measurable on our platform.

Shape target: profiled probabilities never make SPEC slower than
STATIC (the safety property is preserved either way)."""

from repro.experiments import ablation

from conftest import publish


def test_ablation_alias_probability(benchmark, pipeline, output_dir):
    study = benchmark.pedantic(ablation.run_alias_probability_study,
                               args=(pipeline,), rounds=1, iterations=1)
    for name, (assumed, profiled) in study.results.items():
        assert assumed >= -1e-9, name
        assert profiled >= -1e-9, name
    publish(output_dir, "ablation_alias_prob", study.render())
