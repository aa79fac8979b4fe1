"""Execution engines: interchangeable strategies for running programs.

This package is the single seam between "what a decision-tree program
means" (the sequential semantics of :mod:`repro.sim.interpreter`) and
"how it gets executed".  See :mod:`repro.engines.base` for the protocol
and the registry, :mod:`repro.engines.codegen` for the tree-to-Python
specializer, and :mod:`repro.engines.jit` for the default compiled
engine.  Importing this package registers the two built-in engines:

======== ====================================================
name     implementation
======== ====================================================
interp   reference tree-walking interpreter
jit      tiered: interpreted while cold, whole-function
         compiled Python once hot (default)
======== ====================================================

Every registered engine is a drop-in replacement for the reference
interpreter and is differentially cross-checked by the fuzz oracle.
The hardware simulator (:mod:`repro.hwsim`) is a timing model, not an
engine: its loads read through a load/store queue, so the pipeline and
the oracle call it directly.
"""

from __future__ import annotations

from ..sim.interpreter import Interpreter
from .base import (DEFAULT_ENGINE, ExecutionEngine, engine_names, get_engine,
                   register_engine)
from .jit import JitInterpreter

__all__ = ["ExecutionEngine", "DEFAULT_ENGINE", "register_engine",
           "get_engine", "engine_names", "JitInterpreter"]


register_engine(ExecutionEngine(
    "interp", "reference tree-walking interpreter (differential oracle)",
    Interpreter))
register_engine(ExecutionEngine(
    "jit", "interprets cold functions, compiles hot or cached ones "
    "(default)",
    JitInterpreter))
