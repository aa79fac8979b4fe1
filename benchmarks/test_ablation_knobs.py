"""Ablation A: MaxExpansion / MinGain sensitivity (Section 5.3 knobs).

Shape target: a tighter expansion budget or a higher gain threshold
never *increases* code growth; the default configuration sits on a
reasonable point of the speedup/size trade-off."""

from repro.experiments import ablation

from conftest import publish


def test_ablation_knobs(benchmark, pipeline, output_dir):
    sweep = benchmark.pedantic(
        ablation.run_knob_sweep, args=(pipeline,),
        kwargs={"max_expansions": (1.25, 2.0), "min_gains": (0.5, 2.0)},
        rounds=1, iterations=1)
    by_config = {(p.max_expansion, p.min_gain): p for p in sweep.points}
    tight = by_config[(1.25, 2.0)]
    loose = by_config[(2.0, 0.5)]
    assert tight.code_growth <= loose.code_growth + 1e-9
    assert tight.applications <= loose.applications
    publish(output_dir, "ablation_knobs", sweep.render())
