"""Perf-trajectory snapshot: ``BENCH_spd.json`` + ``perf/history.jsonl``.

Measures every built-in benchmark (or ``--names``) through the paper's
full experimental flow with :func:`repro.perf.measure.measure_benchmarks`
— the one measurement loop, which ``repro perf check`` also gates with
(cold pipeline pass, best-of-3 warm cache replay, cleanup rebuild) —
and records per-benchmark execution cycles, per-stage wall-times,
stage-span percentile summaries and selected work counters.

Two outputs:

* ``BENCH_spd.json`` — the latest snapshot (schema
  ``repro.bench_spd/3``), overwritten each run and diffed
  release-over-release;
* ``perf/history.jsonl`` — an append-only trajectory record built by
  :func:`repro.perf.history.make_record` (schema
  ``repro.perf_history/1``: git sha, timestamp, machine, host,
  wall-times, counters) that regression tooling reads with
  ``repro perf check --against perf/history.jsonl``.

Unknown names and a machine without a finite FU count exit 2 before
anything is measured.

Usage::

    PYTHONPATH=src python benchmarks/bench_spd.py [--out BENCH_spd.json]
        [--fus 5] [--memory 6] [--names fft,perm,...]
        [--history perf/history.jsonl | --no-history]
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import time
from typing import Dict, List, Optional

from repro.bench.suite import SUITE
from repro.machine.description import LifeMachine, machine
from repro.perf.history import (DEFAULT_HISTORY_PATH, append_record,
                                make_record)
from repro.perf.measure import measure_benchmarks

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
DEFAULT_OUT = REPO_ROOT / "BENCH_spd.json"
DEFAULT_HISTORY = REPO_ROOT / DEFAULT_HISTORY_PATH


def build_snapshot(names: List[str], mach: LifeMachine) -> Dict[str, object]:
    started = time.perf_counter()
    benchmarks = measure_benchmarks(
        names, mach, progress=lambda msg: print(f"  {msg}", flush=True))
    return {
        "schema": "repro.bench_spd/3",
        "machine": mach.name,
        "num_fus": mach.num_fus,
        "memory_latency": mach.memory_latency,
        "benchmarks": benchmarks,
        "total_wall_s": round(time.perf_counter() - started, 2),
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=str(DEFAULT_OUT),
                        help="output path (default: repo-root BENCH_spd.json)")
    parser.add_argument("--fus", type=int, default=5)
    parser.add_argument("--memory", type=int, choices=(2, 6), default=6)
    parser.add_argument("--names", default=None,
                        help="comma-separated benchmark subset")
    parser.add_argument("--history", default=str(DEFAULT_HISTORY),
                        metavar="PATH",
                        help="append a trajectory record to this JSONL "
                             "file (default: perf/history.jsonl)")
    parser.add_argument("--no-history", action="store_true",
                        help="skip the perf/history.jsonl append")
    args = parser.parse_args(argv)

    names = (args.names.split(",") if args.names else list(SUITE))
    try:
        mach = machine(args.fus, args.memory)
        print(f"bench_spd: {len(names)} benchmarks on {mach.name}")
        snapshot = build_snapshot(names, mach)
    except ValueError as error:
        print(f"bench_spd: {error}", file=sys.stderr)
        return 2
    with open(args.out, "w") as handle:
        json.dump(snapshot, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {args.out} ({snapshot['total_wall_s']}s)")

    if not args.no_history:
        record = make_record(mach, snapshot["benchmarks"])
        append_record(args.history, record)
        print(f"appended history record to {args.history} "
              f"(sha {record['git_sha'][:12]})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
