"""Ablation C: grafting (paper Section 7 future work).

Enlarging decision trees by tail duplication should expose more SpD
opportunity, especially in the Stanford Integer programs whose trees
are "often too small to have pairs of ambiguous memory references".
Shape target: grafting never reduces the SPEC-over-STATIC speedup."""

from repro.experiments import ablation

from conftest import publish


def test_ablation_grafting(benchmark, pipeline, output_dir):
    study = benchmark.pedantic(ablation.run_grafting_study,
                               args=(pipeline,), rounds=1, iterations=1)
    for name, (b_apps, g_apps, b_speed, g_speed) in study.results.items():
        assert g_speed >= b_speed - 0.02, name
    assert study.total_applications(grafted=True) >= 1
    publish(output_dir, "ablation_grafting", study.render())
