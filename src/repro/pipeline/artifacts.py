"""Stage artifacts: explicit, picklable inter-stage values.

The paper's experimental flow (Section 6.1) is a four-stage pipeline —
compile, profile, disambiguate, time — and each stage boundary is now a
first-class artifact carrying its content-addressed fingerprint:

=========================  ================================================
:class:`CompiledArtifact`      decision-tree program (post-grafting)
:class:`ProfileArtifact`       reference run: output + execution profile
:class:`DisambiguationArtifact` one disambiguated view (program + graphs)
:class:`TimingArtifact`        whole-program cycle count on one machine
=========================  ================================================

Artifacts are plain dataclasses over the existing IR/simulator types,
all of which pickle cleanly, so the same values flow unchanged through
the in-memory LRU, the on-disk cache and multiprocessing workers.

:func:`report_table` composes one program's per-disambiguator cycle
table from its artifacts; ``repro analyze``/``repro bench NAME`` and
the service's ``/v1/report`` both render it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping

from ..disambig.pipeline import DisambiguationResult, Disambiguator
from ..hwsim.core import HwTiming
from ..ir.depgraph import ArcKind, DependenceGraph
from ..ir.program import Program
from ..machine.description import LifeMachine
from ..sim.evaluate import ProgramTiming
from ..sim.interpreter import RunResult
from ..sim.profile import ProfileData, TreeKey

__all__ = ["CompiledArtifact", "ProfileArtifact", "DisambiguationArtifact",
           "TimingArtifact", "HwTimingArtifact", "spd_count_names",
           "report_table"]


@dataclass
class CompiledArtifact:
    """Stage 1: tinyc source compiled (and optionally grafted)."""

    fingerprint: str
    label: str
    program: Program

    @property
    def base_size(self) -> int:
        return self.program.size()


@dataclass
class ProfileArtifact:
    """Stage 2: one NAIVE-semantics reference execution."""

    fingerprint: str
    label: str
    reference: RunResult

    @property
    def profile(self) -> ProfileData:
        return self.reference.profile


@dataclass
class DisambiguationArtifact:
    """Stage 3: one disambiguated view of the compiled program."""

    fingerprint: str
    label: str
    result: DisambiguationResult

    @property
    def kind(self) -> Disambiguator:
        return self.result.kind

    @property
    def program(self) -> Program:
        return self.result.program

    @property
    def graphs(self) -> Dict[TreeKey, DependenceGraph]:
        return self.result.graphs

    def code_size(self) -> int:
        return self.result.code_size()

    def spd_counts(self) -> Dict[ArcKind, int]:
        return self.result.spd_counts()


@dataclass
class TimingArtifact:
    """Stage 4: total cycles under one machine and one view."""

    fingerprint: str
    label: str
    kind: Disambiguator
    timing: ProgramTiming

    @property
    def cycles(self) -> int:
        return self.timing.cycles


@dataclass
class HwTimingArtifact:
    """Stage 4': total cycles of one view on one *dynamically scheduled*
    hardware machine (:mod:`repro.hwsim`), with its squash/replay
    counters."""

    fingerprint: str
    label: str
    kind: Disambiguator
    timing: HwTiming

    @property
    def cycles(self) -> int:
        return self.timing.cycles


def spd_count_names(view) -> Dict[str, int]:
    """A view's SpD applications keyed ``raw``/``war``/``waw``."""
    return {kind.value.split("_")[1]: count
            for kind, count in view.spd_counts().items()}


def report_table(mach: LifeMachine, compiled: CompiledArtifact,
                 spec_view: DisambiguationArtifact,
                 timings: Mapping[Disambiguator, TimingArtifact]
                 ) -> Dict[str, object]:
    """One program's cycles under every disambiguator on *mach*, with
    the SPEC view's SpD counts and code size."""
    naive = timings[Disambiguator.NAIVE].cycles
    table: Dict[str, object] = {}
    for kind in Disambiguator:
        cycles = timings[kind].cycles
        entry: Dict[str, object] = {
            "cycles": cycles,
            "speedup_over_naive": (round(naive / cycles - 1, 6)
                                   if cycles else 0.0)}
        if kind is Disambiguator.SPEC:
            entry["spd_counts"] = spd_count_names(spec_view)
            entry["code_size"] = spec_view.code_size()
        table[kind.value] = entry
    return {"machine": mach.to_dict(), "ops": compiled.program.size(),
            "disambiguators": table}
