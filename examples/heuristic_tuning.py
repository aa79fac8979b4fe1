#!/usr/bin/env python3
"""Tuning the SpD guidance heuristic (paper Section 5.3).

The guidance heuristic has two published knobs — MaxExpansion (the
code-growth budget) and MinGain (the per-application gain threshold) —
plus this reproduction's measured extension: feeding *profiled* alias
probabilities to Gain() instead of the paper's assumed 0.1.  This
example sweeps all three on the NRC benchmarks and prints the
speedup-vs-code-size trade-off.

Run:  python examples/heuristic_tuning.py      (takes a minute or two)
"""

from repro import Disambiguator, SpDConfig
from repro.bench import NRC_BENCHMARKS, get_benchmark
from repro.machine import machine
from repro.pipeline import Pipeline


def evaluate(config: SpDConfig, names, mach):
    pipeline = Pipeline(spd_config=config)
    speedups, growths = [], []
    for name in names:
        source = get_benchmark(name).source
        static, spec = (
            pipeline.timing(name, source, kind, mach).timing
            for kind in (Disambiguator.STATIC, Disambiguator.SPEC))
        speedups.append(spec.speedup_over(static))
        view = pipeline.view(name, source, Disambiguator.SPEC,
                             mach.memory_latency)
        base_size = pipeline.compiled(name, source).base_size
        growths.append(view.code_size() / base_size - 1.0)

    def mean(xs):
        return sum(xs) / len(xs)

    return mean(speedups), mean(growths)


def main() -> None:
    mach = machine(5, 6)
    names = NRC_BENCHMARKS
    print(f"machine: {mach.name}; benchmarks: {', '.join(names)}\n")

    print("MaxExpansion / MinGain sweep "
          "(mean SPEC-over-STATIC speedup vs mean code growth):")
    print(f"{'MaxExp':>7} {'MinGain':>8} {'speedup':>9} {'growth':>8}")
    for max_expansion in (1.1, 1.5, 2.0, 3.0):
        for min_gain in (0.25, 0.5, 2.0):
            config = SpDConfig(max_expansion=max_expansion,
                               min_gain=min_gain)
            speedup, growth = evaluate(config, names, mach)
            print(f"{max_expansion:>7.2f} {min_gain:>8.2f} "
                  f"{speedup:>+8.1%} {growth:>+7.1%}")

    print("\nGain() alias-probability source "
          "(paper assumes 0.1; Section 7 suggests profiling it):")
    for label, config in [
        ("assumed 0.1", SpDConfig()),
        ("profiled", SpDConfig(alias_probability_weighting=True)),
    ]:
        speedup, growth = evaluate(config, names, mach)
        print(f"  {label:>12}: speedup {speedup:+.1%}, growth {growth:+.1%}")


if __name__ == "__main__":
    main()
