"""Golden-file regression tests for the ``repro report`` tables.

Each test renders one paper table/figure through the session pipeline and
compares the exact text against a file pinned under ``tests/golden/``.
Any toolchain change that shifts a cycle count, an SpD application
count or even column alignment fails loudly with a diff; intentional
changes are recorded by rerunning pytest with ``--update-golden`` and
committing the updated files.
"""

from __future__ import annotations

import pytest

from repro.experiments import (figure6_2, figure6_3, figure6_4, hw_compare,
                               table6_1, table6_2, table6_3)

pytestmark = pytest.mark.golden


def test_table6_1_golden(golden):
    golden("table6_1.txt", table6_1.run().render())


def test_table6_2_golden(golden):
    golden("table6_2.txt", table6_2.run().render())


def test_table6_3_golden(golden, pipeline):
    golden("table6_3.txt", table6_3.run(pipeline).render())


def test_figure6_2_golden(golden, pipeline):
    golden("figure6_2.txt", figure6_2.run(pipeline).render())


def test_figure6_3_golden(golden, pipeline):
    golden("figure6_3.txt", figure6_3.run(pipeline).render())


def test_figure6_4_golden(golden, pipeline):
    golden("figure6_4.txt", figure6_4.run(pipeline).render())


def test_hw_compare_golden(golden, pipeline):
    """Pin the new compiler-vs-hardware table on a fast subset."""
    table = hw_compare.run(pipeline, names=["perm", "quick"], widths=(1, 4))
    golden("hw_compare.txt", table.render())
