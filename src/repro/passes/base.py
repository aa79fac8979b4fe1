"""The pass protocol: what every view transform looks like.

A *pass* is a named program -> program transform.  The
:class:`~repro.passes.manager.PassManager` owns ordering, per-pass
observability spans and metrics, IR validation after every changing
pass, and ``--dump-after`` IR dumps — so a transform only has to
implement :meth:`Pass.run`.

A disambiguated view runs two kinds of passes (see ``repro passes``):

* the ``spd`` pass — the paper's speculative-disambiguation transform,
  :class:`repro.disambig.pipeline.SpDPass`, which SPEC views run first;
* cleanup passes — ``constfold`` / ``copyprop`` / ``dce``, the
  guard-aware post-SpD cleanups in :mod:`repro.passes.cleanup`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Optional, Tuple

from ..ir.program import Program

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..disambig.spd_heuristic import SpDConfig, SpDTreeResult
    from ..ir.depgraph import DependenceGraph
    from ..machine.description import LifeMachine
    from ..sim.profile import ProfileData

__all__ = ["Pass", "PassContext", "PassResult"]


@dataclass
class PassContext:
    """Everything a pass may consult besides the program itself.

    After a pass that reports a change, the manager leaves in
    :attr:`graphs` only the graphs that pass built itself.
    """

    #: reference-run profile (path probabilities, alias pair stats)
    profile: Optional["ProfileData"] = None
    #: machine whose latency table Gain()-style estimates should use
    machine: Optional["LifeMachine"] = None
    #: SpD heuristic knobs (read by the ``spd`` pass)
    spd_config: Optional["SpDConfig"] = None
    #: per-tree SpD outcomes, filled by the ``spd`` pass
    spd_results: Dict[Tuple[str, str], "SpDTreeResult"] = field(
        default_factory=dict,
    )
    #: per-tree dependence graphs of the current trees, filled by the
    #: ``spd`` pass and reused by ``disambiguate``
    graphs: Dict[Tuple[str, str], "DependenceGraph"] = field(
        default_factory=dict,
    )


@dataclass
class PassResult:
    """Outcome of one pass over one program.

    ``program`` is the (possibly new) program object to thread into the
    next pass: in-place passes return their input.  ``stats`` is a flat
    name -> number dict that lands verbatim on the pass's span and in
    the manager's per-pass report.
    """

    program: Program
    changed: bool = False
    stats: Dict[str, int] = field(default_factory=dict)


class Pass:
    """Base class for program transforms managed by the pass manager."""

    #: CLI name (``--passes``, ``--dump-after``) and fingerprint component
    name: str = "?"
    #: one-line human description (``repro passes``)
    description: str = ""

    def run(self, program: Program, ctx: PassContext) -> PassResult:
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<pass {self.name}>"
