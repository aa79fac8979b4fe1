"""Cycle-level simulator of the hardware dynamic-disambiguation baseline.

The paper argues that speculative disambiguation gives a *compiler* the
benefit dynamically scheduled hardware gets from its load/store queue.
This package supplies the other side of that comparison: an
R10000-style dynamically scheduled machine (register renaming, bounded
issue window, load/store queue, squash-and-replay misspeculation
recovery) executing the very same decision-tree IR under the same
Table 6-1 latencies, with pluggable memory-dependence predictors.

Layers:

* :mod:`~repro.hwsim.predictor` — bypass/wait policies (``always``,
  ``never``, ``store-set``, ``oracle``);
* :mod:`~repro.hwsim.engine` — the per-tree-execution cycle engine;
* :mod:`~repro.hwsim.core` — the program walker coupling functional
  semantics to the engine's timing; a timing that forwards a load out
  of program order raises, and the fuzz oracle reports the crash.

Machine configurations live in :mod:`repro.machine.hw`; the
``repro hwcompare`` experiment (:mod:`repro.experiments.hw_compare`)
builds the compiler-vs-hardware comparison table on top.
"""

from .core import (HwRunResult, HwSimulator, HwStats, HwTiming,
                   simulate_program)
from .engine import EngineResult, MemEvent, TreeContext, simulate_tree
from .predictor import (AlwaysSpeculate, DependencePredictor, NeverSpeculate,
                        OpKey, StoreSetPredictor, make_predictor)

__all__ = [
    "AlwaysSpeculate",
    "DependencePredictor",
    "EngineResult",
    "HwRunResult",
    "HwSimulator",
    "HwStats",
    "HwTiming",
    "MemEvent",
    "NeverSpeculate",
    "OpKey",
    "StoreSetPredictor",
    "TreeContext",
    "make_predictor",
    "simulate_program",
    "simulate_tree",
]
