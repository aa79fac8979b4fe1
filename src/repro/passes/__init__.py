"""The passes a disambiguated view runs, and the manager that runs them.

A view's pass list is SPEC's ``spd`` transform (SPEC views only)
followed by the configured cleanups (``constfold`` / ``copyprop`` /
``dce``, :data:`~repro.passes.cleanup.CLEANUP_PASSES`), all driven by
one :class:`~repro.passes.manager.PassManager`.  Compilation and
grafting are plain functions, not passes.  See ``docs/architecture.md``
("Pass pipeline") for the ordering rules, and ``repro passes`` for the
names.
"""

from .base import Pass, PassContext, PassResult
from .cleanup import CLEANUP_PASSES, DEFAULT_CLEANUP
from .config import (
    SPD_PASS,
    PassPipelineConfig,
    UnknownPassError,
    build_cleanup_passes,
    parse_cleanup_spec,
)
from .manager import PassManager

__all__ = [
    "CLEANUP_PASSES",
    "DEFAULT_CLEANUP",
    "SPD_PASS",
    "Pass",
    "PassContext",
    "PassManager",
    "PassPipelineConfig",
    "PassResult",
    "UnknownPassError",
    "build_cleanup_passes",
    "parse_cleanup_spec",
]
