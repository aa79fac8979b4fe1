"""Append-only bench history: ``perf/history.jsonl``.

``benchmarks/bench_spd.py``, ``repro perf check --record`` and
``repro bench --corpus --record`` each append one :func:`make_record`
line — schema ``repro.perf_history/1`` — to the history file::

    {"schema": "repro.perf_history/1",
     "git_sha": "a1f4bf8...", "timestamp": "2026-08-08T12:34:56Z",
     "machine": {"name": "life-5fu-mem6", "num_fus": 5,
                 "memory_latency": 6},
     "host": {"platform": "...", "python": "3.11.7", "node": "..."},
     "benchmarks": {"adi": {"wall_ms": {...}, "counters": {...},
                            "stage_spans": {...}}, ...}}

The file is the repository's performance *trajectory*: unlike the
single-snapshot ``BENCH_spd.json`` it never overwrites, so regressions
and recoveries stay visible release-over-release.  Records are
per-machine and per-host annotated: ``repro perf check`` takes each
benchmark's baseline from the newest record holding it on the measured
machine and names the host it came from.  The line format is validated
against ``tests/schemas/perf_history.schema.json``.
"""

from __future__ import annotations

import datetime
import json
import platform
import subprocess
from pathlib import Path
from typing import Dict, List, Optional, Union

from ..machine.description import LifeMachine

__all__ = ["HISTORY_SCHEMA", "DEFAULT_HISTORY_PATH", "git_sha", "host_info",
           "machine_entry", "make_record", "append_record", "load_records"]

HISTORY_SCHEMA = "repro.perf_history/1"

#: Repo-root-relative default location of the trajectory file.
DEFAULT_HISTORY_PATH = Path("perf") / "history.jsonl"


def git_sha(cwd: Optional[str] = None) -> str:
    """The current commit sha, or ``"unknown"`` outside a checkout."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=cwd,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else "unknown"


def host_info() -> Dict[str, str]:
    """Identity of the measuring host (wall-times are host-specific)."""
    return {
        "platform": platform.platform(),
        "python": platform.python_version(),
        "node": platform.node() or "unknown",
    }


def machine_entry(mach: LifeMachine) -> Dict[str, object]:
    """A record's ``machine`` block; ``ValueError`` for the infinite
    machine (the schema's ``num_fus >= 1`` rule)."""
    if mach.is_infinite:
        raise ValueError(f"perf records need a finite machine (--fus >= 1), "
                         f"not {mach.name}")
    return {"name": mach.name, "num_fus": mach.num_fus,
            "memory_latency": mach.memory_latency}


def make_record(mach: LifeMachine, benchmarks: Dict[str, Dict[str, object]],
                sha: Optional[str] = None,
                timestamp: Optional[str] = None) -> Dict[str, object]:
    """One history line for measurements on *mach*.  *benchmarks* maps
    name -> a measurement dict; only the trajectory-relevant fields
    (wall_ms / counters / stage_spans) are kept."""
    machine_block = machine_entry(mach)
    if timestamp is None:
        timestamp = (datetime.datetime.now(datetime.timezone.utc)
                     .strftime("%Y-%m-%dT%H:%M:%SZ"))
    kept = {}
    for name, bench in sorted(benchmarks.items()):
        entry: Dict[str, object] = {"wall_ms": bench["wall_ms"]}
        if bench.get("counters"):
            entry["counters"] = bench["counters"]
        if bench.get("stage_spans"):
            entry["stage_spans"] = bench["stage_spans"]
        kept[name] = entry
    return {
        "schema": HISTORY_SCHEMA,
        "git_sha": sha if sha is not None else git_sha(),
        "timestamp": timestamp,
        "machine": machine_block,
        "host": host_info(),
        "benchmarks": kept,
    }


def append_record(path: Union[str, Path], record: Dict[str, object]) -> None:
    """Append one record as a JSON line (parent dirs created)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "a") as handle:
        handle.write(json.dumps(record, sort_keys=True) + "\n")


def load_records(path: Union[str, Path]) -> List[Dict[str, object]]:
    """All records in a history file, oldest first.  Unparseable lines
    are skipped (an interrupted append must not poison the trajectory);
    records with a different schema tag are kept — fields only ever
    accrete."""
    records: List[Dict[str, object]] = []
    try:
        with open(path) as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except json.JSONDecodeError:
                    continue
                if isinstance(record, dict):
                    records.append(record)
    except OSError:
        return []
    return records
