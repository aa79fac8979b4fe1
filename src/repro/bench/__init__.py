"""Benchmark suite (Table 6-2): tinyc sources addressed by name."""

from .suite import (Benchmark, NRC_BENCHMARKS, REPORTED, SUITE, UNAFFECTED,
                    benchmark_names, get_benchmark)

__all__ = ["Benchmark", "NRC_BENCHMARKS", "REPORTED", "SUITE", "UNAFFECTED",
           "benchmark_names", "get_benchmark"]
