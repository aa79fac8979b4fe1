"""Reference parity of the dependence-graph builder over the whole corpus.

For every program in the committed corpus manifest, takes every tree
graph of its NAIVE and SPEC views (memory latency 6) and requires it to
equal the original one-pass builder kept in
``tests/ir/reference_depgraph.py``, run afresh on the view's own tree
under the view's oracle (naive for NAIVE, static for SPEC): the same
node counts and the same arcs, field by field and in the same order.
The views' graphs come from the shared-skeleton builder, so this checks
every skeleton a full corpus run assembled from, the SpD-changed trees'
included.  Prints a summary and exits 1 on any mismatch, naming the
first few.

Views come from the default artifact store (``REPRO_CACHE_DIR``), so a
store that a full ``repro bench --corpus`` run has filled serves them
warm.  Run from the repository root::

    PYTHONPATH=src python benchmarks/depgraph_parity.py
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from repro.corpus import (DEFAULT_MANIFEST_PATH, entry_source,  # noqa: E402
                          load_manifest)
from repro.disambig import Disambiguator, make_static_oracle  # noqa: E402
from repro.ir import naive_oracle  # noqa: E402
from repro.pipeline import Pipeline  # noqa: E402
from tests.ir.reference_depgraph import (  # noqa: E402
    build_dependence_graph as reference, graph_diff)

MEMORY_LATENCY = 6
ORACLES = {Disambiguator.NAIVE: lambda tree: naive_oracle,
           Disambiguator.SPEC: make_static_oracle}
SHOWN_MISMATCHES = 10


def main() -> int:
    started = time.perf_counter()
    manifest = load_manifest(ROOT / DEFAULT_MANIFEST_PATH)
    pipeline = Pipeline()
    graphs = 0
    mismatches = []
    for entry in manifest["entries"]:
        source = entry_source(manifest, entry)
        for kind, oracle_for in ORACLES.items():
            view = pipeline.view(entry["id"], source, kind, MEMORY_LATENCY)
            for function_name, tree in view.program.all_trees():
                key = (function_name, tree.name)
                graph = view.graphs[key]
                graphs += 1
                diff = ("built on another tree" if graph.tree is not tree
                        else graph_diff(graph,
                                        reference(tree, oracle_for(tree))))
                if diff:
                    mismatches.append(
                        f"{entry['id']} {kind.value} {key}: {diff}")
    for line in mismatches[:SHOWN_MISMATCHES]:
        print(f"MISMATCH {line}")
    print(f"{len(manifest['entries'])} programs, {graphs} graphs, "
          f"{len(mismatches)} mismatches "
          f"({time.perf_counter() - started:.1f} s)")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
