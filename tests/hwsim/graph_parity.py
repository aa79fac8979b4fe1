"""The hwsim tree context of a view graph against an all-NO build.

:class:`~repro.hwsim.TreeContext` keeps a graph's register RAW, ORDER,
EXIT_ORDER and COMMIT arcs and skips the kinds the hardware resolves
itself (register WAR/WAW, every memory kind).  None of the kept arcs
depends on the alias oracle, so the context of any view's graph must
equal the context of the same tree's graph built with an oracle that
answers NO to every pair: the same latencies, issue preds and guard
preds.  ``benchmarks/hw_graph_parity.py`` runs the same comparison
over the whole corpus.
"""

from __future__ import annotations

from repro.hwsim import TreeContext
from repro.ir.depgraph import AliasAnswer, build_dependence_graph

__all__ = ["context_diff"]


def _no_alias(op_a, op_b) -> AliasAnswer:
    return AliasAnswer.NO


def _rows(ctx: TreeContext):
    return {"latency": ctx.latency,
            "issue_preds": [sorted(preds) for preds in ctx.issue_preds],
            "guard_preds": [sorted(preds) for preds in ctx.guard_preds]}


def context_diff(graph, machine) -> str:
    """'' if the context of *graph* on *machine* equals that of an
    all-NO build of ``graph.tree``, else the first field that differs."""
    ours = _rows(TreeContext(graph, machine))
    fresh = _rows(TreeContext(
        build_dependence_graph(graph.tree, oracle=_no_alias), machine))
    for field, rows in ours.items():
        if rows != fresh[field]:
            return f"{field}: {rows} != all-NO build {fresh[field]}"
    return ""
