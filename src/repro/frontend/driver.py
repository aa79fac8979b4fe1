"""Front-end driver: tinyc source text -> validated decision-tree program.

:func:`compile_source` parses, type-checks and lays out memory, lowers
every function into guarded decision trees, and validates the result.
Grafting (Section 7) is a separate step on the compiled program, see
:func:`repro.frontend.grafting.graft_program`.
"""

from __future__ import annotations

from typing import Dict

from .. import obs
from ..ir.program import ArrayDecl, Program
from ..ir.validate import validate_program
from .errors import CompileError
from .lower import lower_function
from .parser import parse
from .semantic import analyze
from .treegen import generate_trees

__all__ = ["compile_source"]


def compile_source(source: str, guard_words: int = 0) -> Program:
    """Compile tinyc source into a :class:`~repro.ir.program.Program`.

    ``guard_words`` inserts unused padding between arrays so that
    out-of-bounds accesses in benchmark code fault loudly instead of
    silently clobbering a neighbour (useful while porting benchmarks).
    It is cache-relevant configuration: the artifact pipeline folds it
    into the compile fingerprint.
    """
    with obs.span("frontend.compile") as compile_span:
        with obs.span("frontend.parse"):
            unit = parse(source)
        with obs.span("frontend.semantic"):
            env = analyze(unit)

        with obs.span("frontend.layout"):
            program = Program()
            layout: Dict[str, int] = {}
            address = 0
            for decl in unit.globals_:
                array = ArrayDecl(decl.name, decl.type, decl.dims)
                program.globals_.append(array)
                layout[decl.name] = address
                address += array.words + guard_words
            for func in unit.functions:
                for name, (elem, dims) in env.local_arrays[func.name].items():
                    array = ArrayDecl(name, elem, dims)
                    layout[f"{func.name}.{name}"] = address
                    address += array.words + guard_words
            program.layout = layout
            program.memory_words = address

        for func in unit.functions:
            with obs.span("frontend.lower", function=func.name):
                cfg = lower_function(func, env, layout)
            with obs.span("frontend.treegen", function=func.name) as sp:
                lowered = generate_trees(cfg)
                sp.incr("trees", len(lowered.trees))
            program.add_function(lowered)
        entry = program.functions.get("main")
        if entry is None or entry.params:
            raise CompileError("main must exist and take no parameters")
        program.entry_function = "main"

        with obs.span("frontend.validate"):
            validate_program(program)
        compile_span.incr("functions", len(program.functions))
        compile_span.incr("ops", program.size())
    return program
