"""hwsim's interpreted tier against its compiled tier, corpus-wide.

hwsim runs a function's trees interpreted while the function is cold
and as timed compiled code once it is hot
(:class:`repro.engines.jit.Tier`).  For every program in the committed
corpus manifest, this simulates the SPEC view (memory latency 6) on
``hw_machine(4, 6)`` twice: at ``HW_TIER_THRESHOLD = 0``, where every
function compiles on entry, and as ``Pipeline.hw_timing`` does, at the
default threshold with the profile's tree counts, from an empty code
cache, where most functions never leave the interpreted tier.  The two
runs must give identical ``HwTiming.to_dict()`` payloads, cycles and
output, and the forced runs must compile functions
(``engines.jit.tier_ups``).  Prints a summary and exits 1 on any
difference, naming the first few.

Views come from the default artifact store (``REPRO_CACHE_DIR``), so a
store that a full ``repro bench --corpus`` run has filled serves them
warm.  Run from the repository root::

    PYTHONPATH=src python benchmarks/hw_tier_parity.py
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from repro import obs  # noqa: E402
from repro.corpus import (DEFAULT_MANIFEST_PATH, entry_source,  # noqa: E402
                          load_manifest)
from repro.disambig import Disambiguator  # noqa: E402
from repro.engines import jit  # noqa: E402
from repro.hwsim import simulate_program  # noqa: E402
from repro.machine import hw_machine  # noqa: E402
from repro.pipeline import Pipeline  # noqa: E402

MEMORY_LATENCY = 6
SHOWN_MISMATCHES = 10


def _simulate(view, mach, threshold: int, tree_counts=None):
    jit.HW_TIER_THRESHOLD = threshold
    run = simulate_program(view.program.copy(), mach, view.graphs,
                           tree_counts=tree_counts)
    return run.timing.to_dict(), run.cycles, list(run.output)


def main() -> int:
    started = time.perf_counter()
    manifest = load_manifest(ROOT / DEFAULT_MANIFEST_PATH)
    mach = hw_machine(4, MEMORY_LATENCY)
    pipeline = Pipeline()
    default = jit.HW_TIER_THRESHOLD
    mismatches = []
    forced_compiles = 0
    try:
        for entry in manifest["entries"]:
            source = entry_source(manifest, entry)
            view = pipeline.view(entry["id"], source, Disambiguator.SPEC,
                                 MEMORY_LATENCY)
            counts = pipeline.profile(entry["id"], source).profile.tree_counts
            # an empty cache: no function enters compiled from a past run
            jit.clear_code_cache()
            tiered = _simulate(view, mach, default, counts)
            with obs.tracing() as tracer:
                compiled = _simulate(view, mach, 0)
            forced_compiles += tracer.metrics.counters.get(
                "engines.jit.tier_ups", 0)
            for axis, left, right in zip(("timing", "cycles", "output"),
                                         compiled, tiered):
                if left != right:
                    mismatches.append(f"{entry['id']} {axis}: compiled "
                                      f"{left!r}, tiered {right!r}")
    finally:
        jit.HW_TIER_THRESHOLD = default
    for line in mismatches[:SHOWN_MISMATCHES]:
        print(f"MISMATCH {line}")
    print(f"{len(manifest['entries'])} programs, {len(mismatches)} "
          f"mismatches, {forced_compiles} functions compiled on entry when "
          f"forced ({time.perf_counter() - started:.1f} s)")
    return 1 if mismatches or not forced_compiles else 0


if __name__ == "__main__":
    sys.exit(main())
