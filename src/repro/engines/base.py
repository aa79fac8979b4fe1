"""The :class:`ExecutionEngine` protocol and the engine registry.

An *execution engine* is a strategy for running a decision-tree program
under the sequential semantics of :mod:`repro.sim.interpreter`: given a
program it builds an executor object that is interpreter-compatible —
same ``run()`` entry point, same
:class:`~repro.sim.interpreter.RunResult`, same ``output`` /
``store_trace`` / ``memory`` observables, same
:class:`~repro.sim.interpreter.InterpreterError` failure modes.

Two engines register themselves when :mod:`repro.engines` is
imported:

``interp``
    The reference tree-walking interpreter, unchanged.  It stays the
    differential oracle every other engine is checked against.
``jit``
    Per-tree compilation into specialized Python functions (see
    :mod:`repro.engines.jit`): guards become plain ``if`` chains and the
    operand-dispatch tables disappear.  Semantically identical to
    ``interp`` — the fuzz oracle cross-checks the two on every axis.

The hardware simulator (:class:`~repro.hwsim.core.HwSimulator`) is not
an engine: it is a timing model whose loads read through a load/store
queue, and its callers build it directly.

Engines are identity-relevant for cached pipeline artifacts: the
``jit`` and ``interp`` backends are verified equivalent, but the
pipeline still keys profile/view fingerprints on the engine name so a
miscompile can never silently poison entries computed by the reference
engine (see :mod:`repro.pipeline.fingerprint`).
"""

from __future__ import annotations

from typing import Callable, Dict, Tuple

__all__ = ["ExecutionEngine", "DEFAULT_ENGINE", "register_engine",
           "get_engine", "engine_names"]

#: The engine the pipeline and CLI use unless told otherwise.
DEFAULT_ENGINE = "jit"


class ExecutionEngine:
    """One registered execution strategy.

    ``factory(program, max_steps=..., collect_profile=...,
    strict_memory=..., trace_stores=...)`` must return an executor with
    the :class:`~repro.sim.interpreter.Interpreter` surface and promise
    bit-identical observable behaviour to the reference interpreter;
    every registered engine participates in differential checking.
    """

    def __init__(self, name: str, description: str,
                 factory: Callable[..., object]):
        self.name = name
        self.description = description
        self._factory = factory

    def executor(self, program, max_steps: int = 200_000_000,
                 collect_profile: bool = True, strict_memory: bool = False,
                 trace_stores: bool = False):
        """Build an interpreter-compatible executor for *program*."""
        return self._factory(program, max_steps=max_steps,
                             collect_profile=collect_profile,
                             strict_memory=strict_memory,
                             trace_stores=trace_stores)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<engine {self.name}: {self.description}>"


_ENGINES: Dict[str, ExecutionEngine] = {}


def register_engine(engine: ExecutionEngine) -> ExecutionEngine:
    """Register (or replace) an engine under its name."""
    _ENGINES[engine.name] = engine
    return engine


def get_engine(name: str) -> ExecutionEngine:
    """Look up a registered engine by name (ValueError when unknown)."""
    engine = _ENGINES.get(name)
    if engine is None:
        raise ValueError(f"unknown execution engine {name!r}; "
                         f"registered: {', '.join(sorted(_ENGINES))}")
    return engine


def engine_names() -> Tuple[str, ...]:
    """All registered engine names, in registration order: the valid
    choices for ``--engine`` and the set the fuzz oracle cross-checks
    against the reference interpreter."""
    return tuple(_ENGINES)
