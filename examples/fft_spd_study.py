#!/usr/bin/env python3
"""FFT case study: machine-width and memory-latency sweep (Figure 6-3
for a single benchmark).

The FFT's butterfly addresses stride exponentially — the access pattern
the paper names as a case where static disambiguation fails — so it is
the benchmark with the largest SpD headroom.  This example sweeps LIFE
implementations from 1 to 8 functional units at both memory latencies
and prints the SPEC-over-STATIC speedup curve, including the crossover
width below which SpD's extra code hurts.

Run:  python examples/fft_spd_study.py
"""

from repro.bench import get_benchmark
from repro.disambig import Disambiguator
from repro.machine import machine
from repro.pipeline import Pipeline


def main() -> None:
    pipeline = Pipeline()
    benchmark = get_benchmark("fft")
    source = benchmark.source
    base_size = pipeline.compiled("fft", source).base_size
    steps = pipeline.profile("fft", source).reference.steps
    print(f"benchmark: {benchmark.name} — {benchmark.description}")
    print(f"compiled size: {base_size} operations; "
          f"dynamic: {steps} operations\n")

    for memory_latency in (2, 6):
        view = pipeline.view("fft", source, Disambiguator.SPEC,
                             memory_latency)
        counts = {k.value: v for k, v in view.spd_counts().items() if v}
        growth = view.code_size() / base_size - 1
        print(f"memory latency {memory_latency}: SpD applications {counts}, "
              f"code growth {growth:+.1%}")
        print(f"{'FUs':>4} {'STATIC':>10} {'SPEC':>10} {'SPEC/STATIC':>12}")
        crossover = None
        for width in range(1, 9):
            mach = machine(width, memory_latency)
            static, spec = (
                pipeline.timing("fft", source, kind, mach).cycles
                for kind in (Disambiguator.STATIC, Disambiguator.SPEC))
            ratio = static / spec - 1
            if crossover is None and ratio >= 0:
                crossover = width
            print(f"{width:>4} {static:>10} {spec:>10} {ratio:>+11.1%}")
        print(f"  -> SpD pays off from {crossover} functional unit(s) "
              f"at {memory_latency}-cycle memory\n")

    print("paper shape check: the crossover moves to narrower machines "
          "and the plateau rises as memory latency grows.")


if __name__ == "__main__":
    main()
