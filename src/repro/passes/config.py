"""Which passes a view runs: the cleanup spec and its validation.

The CLI, the ``knobs.passes`` field of the compile service and the
artifact-cache fingerprints address passes by name, so a pass name is
part of the toolchain's public, cache-relevant configuration surface.
The names are ``spd`` (SPEC's transform, which always runs first and
only there) and the keys of
:data:`~repro.passes.cleanup.CLEANUP_PASSES`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from .base import Pass
from .cleanup import CLEANUP_PASSES, DEFAULT_CLEANUP

__all__ = [
    "SPD_PASS",
    "PassPipelineConfig",
    "UnknownPassError",
    "build_cleanup_passes",
    "parse_cleanup_spec",
]

#: Name of the speculative-disambiguation pass
#: (:class:`repro.disambig.pipeline.SpDPass`).
SPD_PASS = "spd"


class UnknownPassError(ValueError):
    """A pass name that names no pass, or a pass out of place."""


def _unknown(name: str) -> str:
    known = ", ".join(sorted((SPD_PASS, *CLEANUP_PASSES)))
    return f"unknown pass {name!r} (known: {known})"


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

    ``spd`` is anchored to the start of a SPEC view and cannot be
    scheduled as a cleanup.
    """
    passes: List[Pass] = []
    for name in names:
        if name == SPD_PASS:
            raise UnknownPassError(
                f"pass {name!r} is a disambig-stage pass and cannot "
                f"run as a cleanup"
            )
        cls = CLEANUP_PASSES.get(name)
        if cls is None:
            raise UnknownPassError(_unknown(name))
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
        for name in self.dump_after:
            if name != SPD_PASS and name not in CLEANUP_PASSES:
                raise UnknownPassError(f"--dump-after: {_unknown(name)}")
        return self
