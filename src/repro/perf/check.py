"""``repro perf check``: per-stage wall-time regression detection.

The check loads a baseline — a ``BENCH_spd.json`` snapshot, or a
``perf/history.jsonl`` trajectory where each benchmark's baseline is
the newest record holding it on the measured machine — re-measures with
:func:`repro.perf.measure.measure_benchmarks` and compares
per-benchmark, per-stage wall-times.  A stage **regresses** when

* ``current > baseline * (1 + threshold)`` (relative noise gate), and
* ``current - baseline > min_ms`` (absolute floor, so a 0.3 ms stage
  jittering to 0.5 ms never fails a build).

Comparing no stage at all is an error, not a pass.  Counters are
compared too, but report-only: legitimate algorithm changes move them,
so only wall-time gates the exit status.

Wall-times from *different hosts* are not comparable; the baseline's
recorded host (history records carry one) is echoed in the report so a
cross-machine comparison is at least visibly cross-machine.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from ..engines import DEFAULT_ENGINE
from ..machine.description import LifeMachine
from .history import load_records
from .measure import measure_benchmarks

__all__ = ["DEFAULT_THRESHOLD", "DEFAULT_MIN_MS", "DEFAULT_STAGES",
           "StageDelta", "CheckResult", "load_baseline", "compare",
           "run_check"]

#: Relative wall-time growth tolerated before a stage counts as
#: regressed (0.30 = the CI gate's ">30% regression fails").
DEFAULT_THRESHOLD = 0.30

#: Absolute floor: deltas below this many ms never regress.
DEFAULT_MIN_MS = 10.0

#: Stages gated by default: the three cold pipeline phases plus the
#: cache-served warm path.  ``total`` is reported but not gated (it is
#: the sum of the gated stages and would double-count one regression).
DEFAULT_STAGES = ("compile_profile", "disambiguate", "timing", "warm_total")


@dataclass(frozen=True)
class StageDelta:
    """One (benchmark, stage) wall-time comparison."""

    benchmark: str
    stage: str
    baseline_ms: float
    current_ms: float
    regressed: bool

    @property
    def ratio(self) -> float:
        if self.baseline_ms <= 0:
            return float("inf") if self.current_ms > 0 else 1.0
        return self.current_ms / self.baseline_ms

    def to_dict(self) -> Dict[str, object]:
        return {"benchmark": self.benchmark, "stage": self.stage,
                "baseline_ms": round(self.baseline_ms, 2),
                "current_ms": round(self.current_ms, 2),
                "ratio": round(self.ratio, 4),
                "regressed": self.regressed}


@dataclass
class CheckResult:
    """Everything one ``repro perf check`` run determined."""

    baseline_label: str
    threshold: float
    min_ms: float
    deltas: List[StageDelta] = field(default_factory=list)
    counter_drift: List[Dict[str, object]] = field(default_factory=list)
    measured: Dict[str, Dict[str, object]] = field(default_factory=dict)
    missing: List[str] = field(default_factory=list)

    @property
    def regressions(self) -> List[StageDelta]:
        return [delta for delta in self.deltas if delta.regressed]

    @property
    def ok(self) -> bool:
        return not self.regressions

    def to_dict(self) -> Dict[str, object]:
        return {
            "baseline": self.baseline_label,
            "threshold": self.threshold,
            "min_ms": self.min_ms,
            "ok": self.ok,
            "regressions": len(self.regressions),
            "deltas": [delta.to_dict() for delta in self.deltas],
            "counter_drift": list(self.counter_drift),
            "missing_in_baseline": list(self.missing),
        }

    def render(self) -> str:
        lines = [f"perf check vs {self.baseline_label} "
                 f"(threshold +{self.threshold:.0%}, floor "
                 f"{self.min_ms:g}ms)"]
        lines.append(f"  {'benchmark':<10} {'stage':<16} "
                     f"{'base ms':>10} {'now ms':>10} {'ratio':>7}")
        for delta in self.deltas:
            flag = "  REGRESSED" if delta.regressed else ""
            lines.append(f"  {delta.benchmark:<10} {delta.stage:<16} "
                         f"{delta.baseline_ms:>10.2f} "
                         f"{delta.current_ms:>10.2f} "
                         f"{delta.ratio:>7.2f}{flag}")
        for drift in self.counter_drift:
            lines.append(f"  note: {drift['benchmark']} counter "
                         f"{drift['counter']} {drift['baseline']:g} -> "
                         f"{drift['current']:g} (report-only)")
        for name in self.missing:
            lines.append(f"  note: {name} not in baseline; skipped")
        verdict = ("OK" if self.ok
                   else f"{len(self.regressions)} stage(s) regressed")
        lines.append(f"perf check: {verdict}")
        return "\n".join(lines)


def load_baseline(path: Union[str, Path], mach: LifeMachine,
                  names: Sequence[str]
                  ) -> Tuple[str, Dict[str, Dict[str, object]]]:
    """Load a baseline: ``(label, {benchmark: {wall_ms, counters}})``.

    ``.jsonl`` files are read as perf history (each of *names* from the
    newest record holding it on *mach*, labelled with their git shas);
    anything else as a one-shot ``BENCH_spd.json``-shaped snapshot."""
    path = Path(path)
    if path.suffix != ".jsonl":
        benchmarks = json.loads(path.read_text()).get("benchmarks")
        if not isinstance(benchmarks, dict):
            raise ValueError("baseline has no 'benchmarks' table")
        return path.name, benchmarks
    records = load_records(path)
    if not records:
        raise ValueError(f"no records in history file {path}")
    chosen: Dict[str, Dict[str, object]] = {}
    sources: Dict[str, None] = {}  # an ordered set, newest record first
    for record in reversed(records):
        machine_block, held = record.get("machine"), record.get("benchmarks")
        if (isinstance(machine_block, dict) and isinstance(held, dict)
                and machine_block.get("name") == mach.name):
            for name in names:
                if name in held and name not in chosen:
                    chosen[name] = held[name]
                    sources[_source(record)] = None
    return (f"{path.name}@{', '.join(sources) or 'none'}", chosen)


def _source(record: Dict[str, object]) -> str:
    host = record.get("host")
    node = host.get("node", "?") if isinstance(host, dict) else "?"
    return f"{str(record.get('git_sha', 'unknown'))[:12]} ({node})"


def compare(current: Dict[str, Dict[str, object]],
            baseline: Dict[str, Dict[str, object]],
            threshold: float = DEFAULT_THRESHOLD,
            min_ms: float = DEFAULT_MIN_MS,
            stages: Sequence[str] = DEFAULT_STAGES
            ) -> Tuple[List[StageDelta], List[Dict[str, object]], List[str]]:
    """Per-stage deltas of *current* vs *baseline* measurements.

    Returns ``(deltas, counter_drift, missing)``; see the module
    docstring for the regression predicate."""
    deltas: List[StageDelta] = []
    drift: List[Dict[str, object]] = []
    missing: List[str] = []
    for name, bench in current.items():
        base = baseline.get(name)
        if base is None:
            missing.append(name)
            continue
        base_wall = base.get("wall_ms", {})
        cur_wall = bench.get("wall_ms", {})
        for stage in stages:
            if stage not in base_wall or stage not in cur_wall:
                continue
            base_ms = float(base_wall[stage])
            cur_ms = float(cur_wall[stage])
            regressed = (cur_ms > base_ms * (1.0 + threshold)
                         and cur_ms - base_ms > min_ms)
            deltas.append(StageDelta(name, stage, base_ms, cur_ms,
                                     regressed))
        base_counters = base.get("counters", {})
        for counter, cur_value in bench.get("counters", {}).items():
            base_value = base_counters.get(counter)
            if base_value is not None and cur_value != base_value:
                drift.append({"benchmark": name, "counter": counter,
                              "baseline": base_value,
                              "current": cur_value})
    return deltas, drift, missing


def run_check(names: Sequence[str], against: Union[str, Path],
              mach: LifeMachine, threshold: float = DEFAULT_THRESHOLD,
              min_ms: float = DEFAULT_MIN_MS,
              stages: Sequence[str] = DEFAULT_STAGES,
              progress: Optional[Callable[[str], None]] = None,
              engine: str = DEFAULT_ENGINE) -> CheckResult:
    """Measure *names* on *mach* and compare them to the *against*
    baseline.  ``ValueError`` for an unloadable baseline, names or
    machine :func:`measure_benchmarks` rejects, or nothing compared."""
    try:
        label, baseline = load_baseline(against, mach, names)
    except (OSError, ValueError) as error:
        raise ValueError(
            f"cannot load baseline {str(against)!r}: {error}") from error
    measured = measure_benchmarks(names, mach, progress=progress,
                                  engine=engine)
    deltas, drift, missing = compare(measured, baseline, threshold,
                                     min_ms, stages)
    if not deltas:
        raise ValueError(f"nothing compared: baseline {label} has no "
                         f"{'/'.join(stages)} wall-times for "
                         f"{', '.join(names)} on {mach.name}")
    return CheckResult(label, threshold, min_ms, deltas, drift,
                       measured, missing)
