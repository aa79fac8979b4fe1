"""hwsim's ready-list engine against the polling reference, corpus-wide.

For every program in the committed corpus manifest, this simulates the
SPEC view (memory latency 6) on ``hw_machine(4, 6)`` with the engine
patched to run :func:`repro.hwsim.simulate_tree` and the original
polling engine (``tests/hwsim/reference_engine.py``) side by side on
every memo miss, and requires the two :class:`~repro.hwsim.EngineResult`
records to be equal field by field.  Prints a summary and exits 1 on
any mismatch, naming the first few.

Views come from the default artifact store (``REPRO_CACHE_DIR``), so a
store that a full ``repro bench --corpus`` run has filled serves them
warm.  Run from the repository root::

    PYTHONPATH=src python benchmarks/hw_engine_parity.py
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from repro.corpus import (DEFAULT_MANIFEST_PATH, entry_source,  # noqa: E402
                          load_manifest)
from repro.disambig import Disambiguator  # noqa: E402
from repro.hwsim import core, simulate_program, simulate_tree  # noqa: E402
from repro.machine import hw_machine  # noqa: E402
from repro.pipeline import Pipeline  # noqa: E402
from tests.hwsim.reference_engine import ParityEngine  # noqa: E402

MEMORY_LATENCY = 6
SHOWN_MISMATCHES = 10


def main() -> int:
    started = time.perf_counter()
    manifest = load_manifest(ROOT / DEFAULT_MANIFEST_PATH)
    mach = hw_machine(4, MEMORY_LATENCY)
    pipeline = Pipeline()
    misses = 0
    mismatches = []
    try:
        for entry in manifest["entries"]:
            view = pipeline.view(entry["id"], entry_source(manifest, entry),
                                 Disambiguator.SPEC, MEMORY_LATENCY)
            parity = core.simulate_tree = ParityEngine(view.graphs,
                                                       simulate_tree)
            simulate_program(view.program.copy(), mach, view.graphs)
            misses += parity.calls
            mismatches.extend(f"{entry['id']} {line}"
                              for line in parity.mismatches)
    finally:
        core.simulate_tree = simulate_tree
    for line in mismatches[:SHOWN_MISMATCHES]:
        print(f"MISMATCH {line}")
    print(f"{len(manifest['entries'])} programs, {misses} memo misses, "
          f"{len(mismatches)} mismatches "
          f"({time.perf_counter() - started:.1f} s)")
    return 1 if mismatches or not misses else 0


if __name__ == "__main__":
    sys.exit(main())
