"""The pass manager: ordered execution, observability, validation, dumps.

One :class:`PassManager` owns the ordered pass list of one
disambiguated view (:func:`repro.disambig.pipeline.disambiguate`).
``run`` threads a program through every pass, and around each pass it

* opens a ``passes.<name>`` span annotated with the op counts before
  and after (``repro trace`` shows the per-pass tree; ``--json``
  exports it),
* bumps the ``passes.<name>.runs`` and signed ``passes.<name>.ops_delta``
  counters,
* when the pass reports a change, drops from the context every
  dependence graph the pass did not build itself, and re-validates the
  whole program (``passes.validate`` span),
* dumps the IR via :mod:`repro.ir.printer` when the pass is named in
  ``dump_after``.

``reports`` keeps a JSON-ready per-pass op-delta record of the last
run; pipeline stages persist it into their artifacts so cached runs
still report what their passes did.
"""

from __future__ import annotations

import sys
from typing import Callable, Dict, List, Optional, Sequence

from .. import obs
from ..ir.printer import format_program
from ..ir.program import Program
from ..ir.validate import validate_program
from .base import Pass, PassContext

__all__ = ["PassManager"]

#: Sink for ``--dump-after`` output: (pass name, formatted IR) -> None.
DumpSink = Callable[[str, str], None]


def _stderr_dump_sink(name: str, text: str) -> None:
    print(f"; IR after pass {name}", file=sys.stderr)
    print(text, file=sys.stderr)


class PassManager:
    """Runs an ordered list of passes over a program."""

    def __init__(
        self,
        passes: Sequence[Pass],
        dump_after: Sequence[str] = (),
        dump_sink: Optional[DumpSink] = None,
    ):
        self.passes = list(passes)
        self.dump_after = frozenset(dump_after)
        self.dump_sink = dump_sink if dump_sink is not None else _stderr_dump_sink
        #: per-pass op-delta reports of the most recent :meth:`run`
        self.reports: List[Dict[str, object]] = []

    def run(self, program: Program, ctx: Optional[PassContext] = None) -> Program:
        """Thread *program* through every pass, in order."""
        if ctx is None:
            ctx = PassContext()
        self.reports = []
        for pass_ in self.passes:
            ops_before = program.size()
            graphs_before = dict(ctx.graphs)
            with obs.span(f"passes.{pass_.name}") as span:
                result = pass_.run(program, ctx)
                program = result.program
                ops_after = program.size()
                span.annotate(
                    ops_before=ops_before,
                    ops_after=ops_after,
                    changed=result.changed,
                    **result.stats,
                )
                obs.incr(f"passes.{pass_.name}.runs")
                if ops_after != ops_before:
                    obs.incr(
                        f"passes.{pass_.name}.ops_delta", ops_after - ops_before
                    )
                if result.changed:
                    ctx.graphs = {
                        key: graph
                        for key, graph in ctx.graphs.items()
                        if graphs_before.get(key) is not graph
                    }
                    with obs.span("passes.validate", after=pass_.name):
                        validate_program(program)
            self.reports.append(
                {
                    "pass": pass_.name,
                    "ops_before": ops_before,
                    "ops_after": ops_after,
                    "delta": ops_after - ops_before,
                    "changed": result.changed,
                    **result.stats,
                }
            )
            if pass_.name in self.dump_after:
                self.dump_sink(pass_.name, format_program(program))
        return program
