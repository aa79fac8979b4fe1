"""Ablation D: Section 7's combined multi-pair transformation vs
iterated one-at-a-time SpD, on synthetic k-pair kernels whose loads
share a downstream accumulation (the worst case for iteration).

Shape targets: iterated code size grows superlinearly in the pair count
(each application re-duplicates the shared tail, the paper's "up to 2^n
copies"); combined grows linearly and stays within a few cycles of the
original time."""

from repro.experiments import ablation

from publish import publish


def test_ablation_combined(benchmark, output_dir):
    study = benchmark.pedantic(ablation.run_combined_study,
                               rounds=1, iterations=1)
    by_k = study.results
    # combined is never bigger than iterated, and the gap widens with k
    gaps = []
    for k, (it_ops, co_ops, _it, _co, _base) in sorted(by_k.items()):
        assert co_ops <= it_ops
        gaps.append(it_ops - co_ops)
    assert gaps == sorted(gaps)
    # combined stays near the original time; iterated blows past it
    for k, (_i, _c, it_time, co_time, base_time) in by_k.items():
        assert co_time <= base_time + 4
    worst_k = max(by_k)
    _i, _c, it_time, co_time, base_time = by_k[worst_k]
    assert it_time > co_time
    publish(output_dir, "ablation_combined", study.render())
