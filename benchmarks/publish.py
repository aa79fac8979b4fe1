"""Write one regenerated table or figure of the paper.

The ``test_*`` modules import :func:`publish` from here rather than from
``conftest``: once ``pytest benchmarks/`` also collects
``benchmarks/e2e/tests``, the module name ``conftest`` may already be
that directory's.
"""

from __future__ import annotations


def publish(output_dir, name: str, text: str) -> None:
    """Print a regenerated artefact and persist it."""
    print()
    print(text)
    (output_dir / f"{name}.txt").write_text(text + "\n")
