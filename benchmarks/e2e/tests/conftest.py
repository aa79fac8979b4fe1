"""Make the benchmark's own modules (``run``, ``workloads``, ...)
importable by the tests.  Run with ``PYTHONPATH=src pytest
benchmarks/e2e/tests`` from the repository root."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
