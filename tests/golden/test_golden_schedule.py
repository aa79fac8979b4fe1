"""Golden-file regression test for the ``repro schedule`` VLIW dumps.

Two paper kernels, STATIC and ``--spec``, on a 1-wide and a 5-wide
machine at the default memory latency: every cycle's instruction word,
including the order of the operations inside it, is pinned under
``tests/golden/schedule.txt``.
"""

from __future__ import annotations

import pytest

from repro.bench import get_benchmark
from repro.cli import main

pytestmark = pytest.mark.golden

KERNELS = ("perm", "bubble")


def test_schedule_dumps_golden(golden, tmp_path, capsys):
    sections = []
    for name in KERNELS:
        path = tmp_path / f"{name}.tc"
        path.write_text(get_benchmark(name).source)
        for spec in ((), ("--spec",)):
            for fus in ("1", "5"):
                args = ["schedule", str(path), "--fus", fus, *spec]
                assert main(args) == 0
                command = " ".join(["repro", *args[:1], f"{name}.tc",
                                    *args[2:]])
                sections.append(f"$ {command}\n{capsys.readouterr().out}")
    golden("schedule.txt", "".join(sections))
