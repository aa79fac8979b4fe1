"""Reference parity of the list scheduler over the whole corpus.

For every program in the committed corpus manifest, schedules every
tree of its NAIVE and SPEC views (memory latency 6) on LIFE machines
1 to 8 units wide, once with :func:`repro.sched.list_schedule` and once
with the original cycle-scan scheduler kept in
``tests/sched/reference_scheduler.py``, and requires the two schedules
to be equal: ``issue``, ``completion``, ``path_times`` and ``slots``,
with the order of nodes inside each cycle.  Prints a summary and exits
1 on any mismatch, naming the first few.

Views come from the default artifact store (``REPRO_CACHE_DIR``), so a
store that a full ``repro bench --corpus`` run has filled serves them
warm.  Run from the repository root::

    PYTHONPATH=src python benchmarks/sched_parity.py
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
from repro.machine import machine  # noqa: E402
from repro.pipeline import Pipeline  # noqa: E402
from repro.sched import list_schedule  # noqa: E402
from tests.sched.reference_scheduler import schedule_diff  # noqa: E402

MEMORY_LATENCY = 6
WIDTHS = range(1, 9)
KINDS = (Disambiguator.NAIVE, Disambiguator.SPEC)
SHOWN_MISMATCHES = 10


def main() -> int:
    started = time.perf_counter()
    manifest = load_manifest(ROOT / DEFAULT_MANIFEST_PATH)
    machines = [machine(width, MEMORY_LATENCY) for width in WIDTHS]
    pipeline = Pipeline()
    graphs = schedules = 0
    mismatches = []
    for entry in manifest["entries"]:
        source = entry_source(manifest, entry)
        for kind in KINDS:
            view = pipeline.view(entry["id"], source, kind, MEMORY_LATENCY)
            for key, graph in sorted(view.graphs.items()):
                graphs += 1
                for mach in machines:
                    schedules += 1
                    diff = schedule_diff(graph, mach,
                                         list_schedule(graph, mach))
                    if diff:
                        mismatches.append(
                            f"{entry['id']} {kind.value} {key} "
                            f"{mach.name}: {diff}")
    for line in mismatches[:SHOWN_MISMATCHES]:
        print(f"MISMATCH {line}")
    print(f"{len(manifest['entries'])} programs, {graphs} graphs, "
          f"{schedules} schedules, {len(mismatches)} mismatches "
          f"({time.perf_counter() - started:.1f} s)")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
