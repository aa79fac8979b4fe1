"""The ``jit`` execution engine: tiered tree execution.

:class:`JitInterpreter` subclasses the reference interpreter and keeps
its CALL/RETURN loop; only the per-frame step differs.  Each function
starts *cold*: its trees run through the inherited
:meth:`~repro.sim.interpreter.Interpreter._execute_tree` (the
reference's profiling wrapper around its one tree walker), and the
engine counts the steps they take.  Once a function has spent its step
budget (:data:`TIER_THRESHOLD` steps per operation or exit, the size
its ``compile()`` cost grows with) it *tiers up*: all of its decision
trees are compiled into one specialized Python function (see
:mod:`repro.engines.codegen`), entered at the frame's current tree, so
a hot loop switches over mid-run.  The compiled dispatch loop keeps
registers in Python locals across intra-function GOTOs — the transfer
every source loop compiles to — and returns to the call loop only at
inter-function exits.

Short runs (most corpus programs, most functions) never generate or
``compile()`` any source; long-running kernels compile once per
function, after an interpreted prefix that costs about half as much
as the compile.  The engine remembers each function *shape* (name,
tree, operation and exit counts, generation flags) process-wide:

* a shape that was compiled before has its source generated on entry,
  and when the code cache holds that source — compiling it costs
  nothing — the function enters compiled on its first call;
* a shape that stayed cold resumes its step count in the next run, so
  a program run again and again — the paper kernels in a benchmark
  loop — still ends up compiled.

Both tiers record into the same profile: the interpreted trees through
``record_tree``, the compiled code through per-exit count lists that
start as the profile's own rows (see ``JitInterpreter._link``), so the
totals are the reference interpreter's.

Execution state is kept at three levels:

* per run, function name → tier state — one dict hit per step;
* process-wide, function shape → steps interpreted so far, or a mark
  that it was compiled (bounded by :data:`SEEN_CAPACITY`);
* process-wide, generated source → function object, bounded LRU
  (:data:`CODE_CACHE_CAPACITY`).  The generated source is a
  deterministic structural fingerprint of the function's trees, so
  identical functions across programs (fuzz campaigns generate
  thousands of near-identical ones) share one ``compile()``/``exec()``.

The rule — the budget, the shape memory and the code-cache probe on
entry — lives in :class:`Tier`.  The hardware simulator
(:mod:`repro.hwsim.core`) is this engine with timed code and one more
input: a profile of the same run, whose tree counts give each
function's steps in advance, so a function that will spend its budget
compiles on entry and any other never compiles.  Knowing the steps, it
budgets a function at a compile's break-even
(:data:`HW_TIER_THRESHOLD`) rather than at a fraction of it.

Cache behaviour is observable as ``engines.jit.cache_hits`` /
``cache_misses`` / ``cache_evictions`` / ``compiles`` counters, and
promotions by hotness as ``engines.jit.tier_ups`` (see
docs/observability.md).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import (Callable, Dict, Iterable, List, Mapping, Optional,
                    Tuple)

from .. import obs
from ..ir.program import Program
from ..sim.interpreter import Interpreter, _Frame
from .codegen import EXEC_GLOBALS, generate_function_source

__all__ = ["CODE_CACHE_CAPACITY", "TIER_THRESHOLD", "HW_TIER_THRESHOLD",
           "Tier", "remember",
           "compiled_fn", "code_cache_size", "clear_code_cache",
           "JitInterpreter"]

#: Process-wide bound on distinct compiled functions kept alive.
#: Sized for whole fuzz campaigns (a few hundred distinct shapes);
#: eviction only costs a recompile, never changes behaviour.
CODE_CACHE_CAPACITY = 512

#: Interpreted steps (``Interpreter.steps`` units) per operation or
#: exit of a function after which the ``jit`` engine compiles it.  On a
#: 2-core x86-64 host under CPython 3.11, ``compile()`` costs ~70 us
#: per operation and a compiled step saves ~1-1.3 us, so 24 spends a
#: third to a half of a compile on the interpreted prefix.  0 compiles
#: every function on entry; 1 tiers up after about one pass over its
#: trees.
TIER_THRESHOLD = 24

#: The same budget for a function of the hardware simulator's timed
#: code, which knows each function's steps in advance from a profile
#: (:class:`Tier`'s *expected*), so it compiles a function only when
#: the compile repays itself: at its break-even.  On the same host,
#: generating and compiling timed code costs ~41 us per operation or
#: exit (~58 us for a median function), and a compiled step saves
#: ~0.3-1.0 us over an interpreted one, 0.71 us weighted by steps (the
#: 58 hw-sweep cells: the 14 kernels' NAIVE and SPEC views and the
#: corpus smoke slice's SPEC views), because the timing sink costs
#: the same in both tiers: break-even is ~58 steps per operation or
#: exit.  :data:`TIER_THRESHOLD` would compile functions that run
#: 24-58 steps per operation and lose their compile (a smoke program
#: at 29 ran ~5 ms slower, twice its time).
HW_TIER_THRESHOLD = 60

#: Bound on the shapes whose history outlives their run.
SEEN_CAPACITY = 4096

#: ``_seen`` value of a shape that was compiled: probe the code cache.
_COMPILED = -1

_code_cache: "OrderedDict[str, Callable]" = OrderedDict()

#: shape (a function's name, trees, operations and exits and
#: generation flags) -> steps interpreted in earlier runs, or
#: ``_COMPILED``
_seen: Dict[tuple, int] = {}


def compiled_fn(source: str) -> Callable:
    """The compiled function for a generated source, LRU-cached.

    The source text *is* the cache key: it is a pure function of the
    function's structure and the generation flags.
    """
    fn = _code_cache.get(source)
    if fn is not None:
        _code_cache.move_to_end(source)
        obs.incr("engines.jit.cache_hits")
        return fn
    obs.incr("engines.jit.cache_misses")
    obs.incr("engines.jit.compiles")
    namespace = dict(EXEC_GLOBALS)
    exec(compile(source, "<repro-jit-tree>", "exec"), namespace)
    fn = namespace["_func_fn"]
    _code_cache[source] = fn
    if len(_code_cache) > CODE_CACHE_CAPACITY:
        _code_cache.popitem(last=False)
        obs.incr("engines.jit.cache_evictions")
    return fn


def code_cache_size() -> int:
    return len(_code_cache)


def clear_code_cache() -> None:
    """Forget every compiled function and every cold function's count."""
    _code_cache.clear()
    _seen.clear()


class Tier:
    """One function's tier state within a run.

    The function runs interpreted while ``fn`` is None and ``steps`` is
    below ``budget`` (*threshold* steps per operation or exit of its
    *size*); then :meth:`tier_up` compiles it.  On entry its
    *shape*'s history decides where it starts: a shape that stayed
    cold resumes its step count; one that was compiled before has its
    source generated, and enters compiled (``fn`` set) when the code
    cache holds that source.  A function that would otherwise start
    cold but whose *expected* steps in this run (known when the caller
    has a profile of it) would reach its budget compiles on entry,
    skipping the interpreted prefix.  *source* generates the text on
    demand.  :func:`remember` records the cold functions' counts when
    the run ends.
    """

    __slots__ = ("shape", "steps", "budget", "source", "fn", "_generate",
                 "tree_index", "exits")

    def __init__(self, shape: tuple, size: int, source: Callable[[], str],
                 threshold: int, expected: Optional[int] = None):
        self.shape = shape
        self.budget = threshold * size
        self.source: Optional[str] = None
        self.fn: Optional[Callable] = None
        self._generate = source
        seen = _seen.get(shape, 0)
        if seen != _COMPILED:
            self.steps = seen
            if expected is not None and seen + expected >= self.budget:
                self.tier_up()
            return
        self.steps = 0
        text = source()
        if text in _code_cache:
            self.fn = compiled_fn(text)
        else:
            self.source = text

    def tier_up(self) -> Callable:
        """Compile the function, which has spent (or will spend) its
        budget, counting the promotion."""
        obs.incr("engines.jit.tier_ups")
        self.fn = compiled_fn(self.source or self._generate())
        self.source = None
        _seen[self.shape] = _COMPILED
        return self.fn


def remember(tiers: Iterable[Tier]) -> None:
    """At the end of a run, keep each cold function's step count for
    the next run of its shape."""
    for tier in tiers:
        if tier.fn is None and _seen.get(tier.shape) != _COMPILED:
            _seen[tier.shape] = tier.steps
    while len(_seen) > SEEN_CAPACITY:
        del _seen[next(iter(_seen))]


class JitInterpreter(Interpreter):
    """Interpreter-identical execution: interpreted while a function
    is cold, compiled once it is hot or already in the code cache."""

    def __init__(self, program: Program, max_steps: int = 200_000_000,
                 collect_profile: bool = True, strict_memory: bool = False,
                 trace_stores: bool = False):
        super().__init__(program, max_steps=max_steps,
                         collect_profile=collect_profile,
                         strict_memory=strict_memory,
                         trace_stores=trace_stores)
        self._tiers: Dict[str, Tier] = {}
        #: function name -> per-exit count lists, indexed by tree index;
        #: the compiled code increments these in place
        self._fcounts: Dict[str, List[List[int]]] = {}
        #: the same lists keyed the way ``ProfileData`` keys them
        self._counts: Dict[Tuple[str, str], List[int]] = {}
        #: each tree's executions in this run, by (function, tree), when
        #: the caller knows them (a profile of the same program)
        self.tree_counts: Optional[Mapping[Tuple[str, str], int]] = None

    def _run(self, args):
        # the generated source depends on whether a tracer is
        # installed, which the inherited ``_run`` decides per run
        self._tiers.clear()
        self._fcounts.clear()
        self._counts.clear()
        try:
            return super()._run(args)
        finally:
            remember(self._tiers.values())
            if self.collect_profile:
                # tree_counts is exit_counts summed, and a tree whose
                # counts are all zero never completed an execution —
                # the reference interpreter has no row for it at all
                ec = self.profile.exit_counts
                tc = self.profile.tree_counts
                for key, counts in self._counts.items():
                    if any(counts):
                        ec[key] = counts
                        tc[key] = sum(counts)

    def _execute_tree(self, frame: _Frame):
        tier = self._tiers.get(frame.function)
        if tier is None:
            tier = self._enter(frame.function)
        fn = tier.fn
        if fn is None:
            if tier.steps < tier.budget:
                steps = self.steps
                exit_ = super()._execute_tree(frame)
                tier.steps += self.steps - steps
                return exit_
            tier.tier_up()
            fn = self._link(frame.function, tier)
        tree_idx, exit_idx = fn(frame.regs, self.memory, self,
                                tier.tree_index[frame.tree])
        if exit_idx < 0:  # no exit fired: raise the interpreter's error
            frame.tree = list(tier.tree_index)[tree_idx]
            self._take_exit(frame, self.program.functions[frame.function]
                            .trees[frame.tree])
        return tier.exits[tree_idx][exit_idx]

    def _enter(self, name: str) -> Tier:
        """The first call of *name* in this run: its tier state, linked
        at once when its shape enters compiled."""
        func = self.program.functions[name]
        size = sum(len(tree.ops) + len(tree.exits)
                   for tree in func.trees.values())
        shape = (name, len(func.trees), size, self.collect_profile,
                 self.trace_stores, self.strict_memory, self._obs_on,
                 self._timed)
        counts = self.tree_counts
        expected = None if counts is None else sum(
            counts.get((name, tname), 0) * (len(tree.ops) + 1)
            for tname, tree in func.trees.items())
        tier = self._tiers[name] = Tier(
            shape, size, lambda: self._source(name),
            HW_TIER_THRESHOLD if self._timed else TIER_THRESHOLD, expected)
        if tier.fn is not None:
            self._link(name, tier)
        return tier

    def _source(self, name: str) -> str:
        return generate_function_source(
            self.program.functions[name],
            collect_profile=self.collect_profile,
            trace_stores=self.trace_stores, strict_memory=self.strict_memory,
            # squash tallies only exist under a tracer
            count_squashes=self._obs_on, timed=self._timed)

    def _link(self, name: str, tier: Tier) -> Callable:
        """Run *name* through its compiled function ``tier.fn`` from now
        on.

        A tree the interpreted prefix already ran keeps counting in its
        ``exit_counts`` row, so the compiled code adds to what
        ``record_tree`` recorded; ``_run`` folds in the new rows.  Timed
        code counts only the exits of trees it does not report to the
        sink, from zero."""
        func = self.program.functions[name]
        if self.collect_profile or self._timed:
            ec = self.profile.exit_counts
            rows = self._fcounts[name] = []
            for tname, tree in func.trees.items():
                key = (name, tname)
                row = ec.get(key) or [0] * len(tree.exits)
                self._counts[key] = row
                rows.append(row)
        tier.tree_index = {t: i for i, t in enumerate(func.trees)}
        tier.exits = [tree.exits for tree in func.trees.values()]
        return tier.fn
