"""The pass protocol: what every program transform looks like.

A *pass* is a named program -> program transform with a declared set of
invalidations.  The :class:`~repro.passes.manager.PassManager` owns
ordering, per-pass observability spans and metrics, optional IR
validation after every changing pass, and ``--dump-after`` IR dumps —
so a transform only has to implement :meth:`Pass.run`.

Three families of passes exist today (see ``repro passes``):

* compile-stage passes — ``lower`` (the frontend driver tail) and
  ``graft`` (tail duplication), registered by ``repro.frontend``;
* the ``spd`` pass — the paper's speculative-disambiguation transform,
  registered by ``repro.disambig.pipeline``;
* cleanup passes — ``constfold`` / ``copyprop`` / ``dce``, the
  guard-aware post-SpD cleanups in :mod:`repro.passes.cleanup`.

Passes register themselves in a name -> class registry (the
:func:`register` decorator); the CLI and the artifact-cache
fingerprints address them by name, so a pass name is part of the
toolchain's public, cache-relevant configuration surface.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Set, Tuple, Type

from ..ir.program import Program

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..disambig.spd_heuristic import SpDConfig, SpDTreeResult
    from ..ir.depgraph import DependenceGraph
    from ..machine.description import LifeMachine
    from ..sim.profile import ProfileData

__all__ = [
    "Pass",
    "PassContext",
    "PassResult",
    "PassPipelineConfig",
    "DEFAULT_CLEANUP",
    "UnknownPassError",
    "register",
    "registered_passes",
    "pass_class",
    "build_cleanup_passes",
    "ensure_builtin_passes",
]

#: The recommended cleanup sequence: folding first (it feeds copies),
#: then register-copy propagation, then guard-aware dead-code
#: elimination to sweep up everything the first two orphaned.
DEFAULT_CLEANUP: Tuple[str, ...] = ("constfold", "copyprop", "dce")


@dataclass
class PassContext:
    """Everything a pass may consult besides the program itself.

    The manager clears :attr:`profile` when a changing pass declares a
    ``"profile"`` invalidation (grafting rewrites the tree structure the
    profile is keyed by); downstream passes must re-check for ``None``.
    Likewise a changing pass that declares ``"depgraph"`` leaves in
    :attr:`graphs` only the graphs it built itself.
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
    #: frontend-private inputs (parse unit, semantic env, memory layout)
    scratch: Dict[str, object] = field(default_factory=dict)
    #: union of the invalidations declared by every changing pass so far
    invalidated: Set[str] = field(default_factory=set)


@dataclass
class PassResult:
    """Outcome of one pass over one program.

    ``program`` is the (possibly new) program object to thread into the
    next pass: in-place passes return their input, copying passes (e.g.
    ``graft``) return the transformed copy.  ``stats`` is a flat
    name -> number dict that lands verbatim on the pass's span and in
    the manager's per-pass report.
    """

    program: Program
    changed: bool = False
    stats: Dict[str, int] = field(default_factory=dict)


class Pass:
    """Base class for program transforms managed by the pass manager."""

    #: registry key, CLI name, and fingerprint component
    name: str = "?"
    #: one-line human description (``repro passes``)
    description: str = ""
    #: pipeline stage this pass belongs to: "compile", "disambig"
    #: or "cleanup" (only cleanup passes are freely reorderable)
    stage: str = "cleanup"
    #: analyses/artifacts stale after this pass changes the program
    #: (e.g. ``{"profile", "depgraph"}``); the manager accumulates these
    #: and drops a stale profile from the context automatically
    invalidates: frozenset = frozenset()

    def run(self, program: Program, ctx: PassContext) -> PassResult:
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<pass {self.name}>"


class UnknownPassError(ValueError):
    """A pass name that is not in the registry."""


_REGISTRY: Dict[str, Type[Pass]] = {}


def register(cls: Type[Pass]) -> Type[Pass]:
    """Class decorator adding *cls* to the pass registry by its name."""
    if cls.name in _REGISTRY and _REGISTRY[cls.name] is not cls:
        raise ValueError(f"duplicate pass name {cls.name!r}")
    _REGISTRY[cls.name] = cls
    return cls


def ensure_builtin_passes() -> None:
    """Import every module that registers a built-in pass.

    Imports are deferred to keep the package import-cycle free: the
    frontend and disambiguator import :mod:`repro.passes`, so this
    module cannot import them at load time.
    """
    from ..disambig import pipeline as _disambig_pipeline  # noqa: F401
    from ..frontend import driver as _driver  # noqa: F401
    from ..frontend import grafting as _grafting  # noqa: F401
    from . import cleanup as _cleanup  # noqa: F401


def registered_passes() -> Dict[str, Type[Pass]]:
    """Name -> class for every registered pass (builtins included)."""
    ensure_builtin_passes()
    return dict(sorted(_REGISTRY.items()))


def pass_class(name: str) -> Type[Pass]:
    """Look up a registered pass class, with a helpful error."""
    ensure_builtin_passes()
    cls = _REGISTRY.get(name)
    if cls is None:
        known = ", ".join(sorted(_REGISTRY))
        raise UnknownPassError(f"unknown pass {name!r} (known: {known})")
    return cls


def parse_cleanup_spec(spec: str) -> Tuple[str, ...]:
    """The cleanup pass names of a ``--passes`` / ``knobs.passes`` spec:
    ``none`` (no cleanup), ``default`` (:data:`DEFAULT_CLEANUP`) or a
    comma-separated pass list.  Names are checked by
    :meth:`PassPipelineConfig.validated`, not here."""
    if spec == "none":
        return ()
    if spec == "default":
        return DEFAULT_CLEANUP
    return tuple(name for name in spec.split(",") if name)


def build_cleanup_passes(names) -> List[Pass]:
    """Instantiate the named cleanup passes, in order.

    Only ``stage == "cleanup"`` passes may appear: the compile-stage
    and SpD passes are anchored to their pipeline stages and cannot be
    scheduled as cleanups.
    """
    passes: List[Pass] = []
    for name in names:
        cls = pass_class(name)
        if cls.stage != "cleanup":
            raise UnknownPassError(
                f"pass {name!r} is a {cls.stage}-stage pass and cannot "
                f"run as a cleanup"
            )
        passes.append(cls())
    return passes


@dataclass(frozen=True)
class PassPipelineConfig:
    """The cache-relevant pass-pipeline configuration.

    ``cleanup`` names the cleanup passes every disambiguated view runs
    after its transform (after SpD for SPEC views); the default is
    empty, which reproduces the paper's toolchain exactly.
    ``dump_after`` is an observational knob: it never changes the
    produced program, so :meth:`cache_key` excludes it (a non-empty
    ``dump_after`` additionally makes the artifact cache bypass itself
    so the dump always happens).
    """

    cleanup: Tuple[str, ...] = ()
    dump_after: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "cleanup", tuple(self.cleanup))
        object.__setattr__(self, "dump_after", tuple(self.dump_after))

    def cache_key(self) -> Dict[str, object]:
        """The fingerprint component: the pass list (and, for future
        passes, their options) — observational knobs excluded."""
        return {"cleanup": list(self.cleanup)}

    def validated(self) -> "PassPipelineConfig":
        """Self, after checking every referenced pass name resolves."""
        build_cleanup_passes(self.cleanup)
        known = {cls.name for cls in registered_passes().values()}
        for name in self.dump_after:
            if name not in known:
                raise UnknownPassError(
                    f"--dump-after: unknown pass {name!r} "
                    f"(known: {', '.join(sorted(known))})"
                )
        return self
