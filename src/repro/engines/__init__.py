"""Execution engines: interchangeable strategies for running programs.

This package is the single seam between "what a decision-tree program
means" (the sequential semantics of :mod:`repro.sim.interpreter`) and
"how it gets executed".  See :mod:`repro.engines.base` for the protocol
and the registry, :mod:`repro.engines.codegen` for the tree-to-Python
specializer, and :mod:`repro.engines.jit` for the default compiled
engine.  Importing this package registers the three built-in backends:

======== ==================================================== =========
name     implementation                                       semantic
======== ==================================================== =========
interp   reference tree-walking interpreter                   yes
jit      per-tree compiled Python (default)                   yes
hw       dynamically scheduled hardware simulator             no
======== ==================================================== =========

"Semantic" engines are drop-in replacements for the reference
interpreter and are differentially cross-checked by the fuzz oracle;
the ``hw`` engine is a timing model whose loads read through a
load/store queue and therefore only promises whole-program output
equality.
"""

from __future__ import annotations

from ..sim.interpreter import Interpreter
from .base import (DEFAULT_ENGINE, ExecutionEngine, engine_names, get_engine,
                   register_engine, semantic_engine_names)
from .jit import JitInterpreter

__all__ = ["ExecutionEngine", "DEFAULT_ENGINE", "register_engine",
           "get_engine", "engine_names", "semantic_engine_names",
           "JitInterpreter"]


def _hw_factory(program, machine, **kwargs):
    # deferred import: hwsim consumes this package's codegen for its
    # per-tree passes, so importing it here at module load would
    # be circular
    from ..hwsim.core import HwSimulator
    kwargs.pop("collect_profile", None)  # hwsim never collects profiles
    return HwSimulator(program, machine, **kwargs)


register_engine(ExecutionEngine(
    "interp", "reference tree-walking interpreter (differential oracle)",
    Interpreter))
register_engine(ExecutionEngine(
    "jit", "per-tree compiled Python functions (default)",
    JitInterpreter))
register_engine(ExecutionEngine(
    "hw", "dynamically scheduled hardware simulator (timing model)",
    _hw_factory, semantic=False, needs_machine=True))
