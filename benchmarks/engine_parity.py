"""The ``jit`` engine against the reference interpreter, corpus-wide.

The ``jit`` engine interprets a function until it is hot and then
compiles it (:class:`repro.engines.jit.Tier`); both tiers must be
observationally identical to ``interp``.  For every program in the
committed corpus manifest, this runs the compiled program and its SPEC
view (memory latency 6) under ``interp`` and under ``jit`` at
``TIER_THRESHOLD`` 0 (every function compiled on entry) and 1 (every
function tiers up inside its first pass), each ``jit`` run from an
empty code cache.  Output, return value, steps, final memory, the store
trace and the full profile (``tree_counts``, ``exit_counts``,
``pair_stats``, ``dynamic_operations``) must be identical.  A SPEC
view's operation ids are not their positions, so this pins the profile's
alias-pair keys on both tiers.  Prints a summary and exits 1 on any
difference, naming the first few.

Views come from the default artifact store (``REPRO_CACHE_DIR``), so a
store that a full ``repro bench --corpus`` run has filled serves them
warm.  Run from the repository root::

    PYTHONPATH=src python benchmarks/engine_parity.py
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
from repro.engines import get_engine, jit  # noqa: E402
from repro.pipeline import Pipeline  # noqa: E402
from repro.sim.interpreter import InterpreterError  # noqa: E402

MEMORY_LATENCY = 6
THRESHOLDS = (0, 1)
SHOWN_MISMATCHES = 10


def _execute(engine: str, program) -> dict:
    """Every observable of one run of *program* under *engine*."""
    executor = get_engine(engine).executor(program.copy(), trace_stores=True)
    try:
        result = executor.run()
    except InterpreterError as exc:
        return {"error": str(exc), "output": list(executor.output),
                "memory": list(executor.memory),
                "store_trace": list(executor.store_trace)}
    profile = result.profile
    return {
        "error": None,
        "output": list(result.output),
        "return_value": result.return_value,
        "steps": result.steps,
        "memory": list(executor.memory),
        "store_trace": list(executor.store_trace),
        "tree_counts": dict(profile.tree_counts),
        "exit_counts": dict(profile.exit_counts),
        "pair_stats": dict(profile.pair_stats),
        "dynamic_operations": profile.dynamic_operations,
    }


def _renumbered(program) -> int:
    """Operations of *program* whose ``op_id`` is not their position."""
    return sum(op.op_id != node
               for function in program.functions.values()
               for tree in function.trees.values()
               for node, op in enumerate(tree.ops))


def main() -> int:
    started = time.perf_counter()
    manifest = load_manifest(ROOT / DEFAULT_MANIFEST_PATH)
    pipeline = Pipeline()
    default = jit.TIER_THRESHOLD
    mismatches = []
    runs = renumbered = 0
    try:
        for entry in manifest["entries"]:
            source = entry_source(manifest, entry)
            programs = {
                "compiled": pipeline.compiled(entry["id"], source).program,
                "spec": pipeline.view(entry["id"], source, Disambiguator.SPEC,
                                      MEMORY_LATENCY).program,
            }
            for label, program in programs.items():
                renumbered += _renumbered(program)
                reference = _execute("interp", program)
                for threshold in THRESHOLDS:
                    jit.TIER_THRESHOLD = threshold
                    # an empty cache: no function enters compiled from
                    # an earlier run
                    jit.clear_code_cache()
                    jitted = _execute("jit", program)
                    runs += 1
                    for axis, value in reference.items():
                        if jitted.get(axis) != value:
                            mismatches.append(
                                f"{entry['id']} {label} threshold "
                                f"{threshold} {axis}")
    finally:
        jit.TIER_THRESHOLD = default
    for line in mismatches[:SHOWN_MISMATCHES]:
        print(f"MISMATCH {line}")
    print(f"{len(manifest['entries'])} programs, {runs} jit runs, "
          f"{len(mismatches)} mismatches, {renumbered} operations whose "
          f"op id is not their position "
          f"({time.perf_counter() - started:.1f} s)")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
