"""hwsim's tree contexts from view graphs against all-NO builds, corpus-wide.

For every program in the committed corpus manifest, builds the hwsim
:class:`~repro.hwsim.TreeContext` of every tree of its SPEC view
(memory latency 6) from the view's dependence graph, as
``Pipeline.hw_timing`` does, and requires it to equal the context of
the same tree's graph built with an all-NO alias oracle: the same
latencies, sorted on-issue and on-completion successor lists and pred
counts (``tests/hwsim/graph_parity.py``).  Prints a summary and exits 1 on
any mismatch, naming the first few.

Views come from the default artifact store (``REPRO_CACHE_DIR``), so a
store that a full ``repro bench --corpus`` run has filled serves them
warm.  Run from the repository root::

    PYTHONPATH=src python benchmarks/hw_graph_parity.py
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
from repro.machine import hw_machine  # noqa: E402
from repro.pipeline import Pipeline  # noqa: E402
from tests.hwsim.graph_parity import context_diff  # noqa: E402

MEMORY_LATENCY = 6
SHOWN_MISMATCHES = 10


def main() -> int:
    started = time.perf_counter()
    manifest = load_manifest(ROOT / DEFAULT_MANIFEST_PATH)
    mach = hw_machine(4, MEMORY_LATENCY)
    pipeline = Pipeline()
    graphs = 0
    mismatches = []
    for entry in manifest["entries"]:
        view = pipeline.view(entry["id"], entry_source(manifest, entry),
                             Disambiguator.SPEC, MEMORY_LATENCY)
        for key, graph in sorted(view.graphs.items()):
            graphs += 1
            diff = context_diff(graph, mach)
            if diff:
                mismatches.append(f"{entry['id']} {key}: {diff}")
    for line in mismatches[:SHOWN_MISMATCHES]:
        print(f"MISMATCH {line}")
    print(f"{len(manifest['entries'])} programs, {graphs} graphs, "
          f"{len(mismatches)} mismatches "
          f"({time.perf_counter() - started:.1f} s)")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
