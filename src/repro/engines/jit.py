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
entry — lives in :class:`Tier`, which the hardware simulator
(:mod:`repro.hwsim.core`) applies to single trees as well, with its own
threshold (:data:`HW_TIER_THRESHOLD`, a tree compile's break-even) and
one more input: a tree whose profiled execution count says it will
spend its budget compiles on entry.

Cache behaviour is observable as ``engines.jit.cache_hits`` /
``cache_misses`` / ``cache_evictions`` / ``compiles`` counters, and
promotions by hotness as ``engines.jit.tier_ups`` (see
docs/observability.md).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from .. import obs
from ..ir.program import Program
from ..sim.interpreter import Interpreter, _Frame
from .codegen import EXEC_GLOBALS, generate_function_source

__all__ = ["CODE_CACHE_CAPACITY", "TIER_THRESHOLD", "HW_TIER_THRESHOLD",
           "Tier", "remember",
           "compiled_fn", "code_cache_size", "clear_code_cache",
           "JitInterpreter"]

#: Process-wide bound on distinct compiled tree functions kept alive.
#: Sized for whole fuzz campaigns (a few hundred distinct tree shapes);
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

#: The same budget for a hardware-simulator tree's resolve pass: its
#: break-even.  On the same host, generating and compiling a tree's
#: ``hw_resolve`` source costs ~50-56 us per operation or exit, and a
#: compiled step saves ~0.5-0.57 us over the interpreted pass (the 14
#: kernels' NAIVE and SPEC trees, from recorded entry states), so a
#: tree pays its compile back after ~100 steps per operation or exit —
#: 55 to 180 executions for most trees.  A tree whose profiled
#: execution count reaches it compiles on entry (see :class:`Tier`).
HW_TIER_THRESHOLD = 100

#: Bound on the shapes whose history outlives their run.
SEEN_CAPACITY = 4096

#: ``_seen`` value of a shape that was compiled: probe the code cache.
_COMPILED = -1

_code_cache: "OrderedDict[str, Callable]" = OrderedDict()

#: shape (a function's name, trees, operations and exits and
#: generation flags; a tree's) -> steps interpreted in earlier runs,
#: or ``_COMPILED``
_seen: Dict[tuple, int] = {}


def compiled_fn(source: str) -> Callable:
    """The compiled function for a generated tree source, LRU-cached.

    The source text *is* the cache key: it is a pure function of the
    tree structure and the generation flags.
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
    # per-tree sources define _tree_fn, whole-function sources _func_fn
    fn = namespace.get("_tree_fn") or namespace["_func_fn"]
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
    """One unit's tier state within a run — a function of the ``jit``
    engine, a tree of the hardware simulator.

    The unit runs interpreted while ``fn`` is None and ``steps`` is
    below ``budget`` (*threshold* steps per operation or exit of its
    *size*: :data:`TIER_THRESHOLD` for a function,
    :data:`HW_TIER_THRESHOLD` for a tree); then :meth:`tier_up`
    compiles it, counting the promotion under *counter*.  On entry its
    *shape*'s history decides where it starts: a shape that stayed
    cold resumes its step count; one that was compiled before has its
    source generated, and enters compiled (``fn`` set) when the code
    cache holds that source.  A unit that would otherwise start cold
    but whose *expected* steps in this run (known when the caller has
    an execution count) would reach its budget compiles on entry,
    skipping the interpreted prefix.  *source* generates the text on
    demand.  :func:`remember` records the cold units' counts when the
    run ends.
    """

    __slots__ = ("shape", "steps", "budget", "counter", "source", "fn",
                 "_generate")

    def __init__(self, shape: tuple, size: int, source: Callable[[], str],
                 threshold: int, counter: str,
                 expected: Optional[int] = None):
        self.shape = shape
        self.budget = threshold * size
        self.counter = counter
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
        """Compile the unit, which has spent (or will spend) its budget,
        counting the promotion."""
        obs.incr(self.counter)
        self.fn = compiled_fn(self.source or self._generate())
        self.source = None
        _seen[self.shape] = _COMPILED
        return self.fn


def remember(tiers: Iterable[Tier]) -> None:
    """At the end of a run, keep each cold unit's step count for the
    next run of its shape."""
    for tier in tiers:
        if tier.fn is None and _seen.get(tier.shape) != _COMPILED:
            _seen[tier.shape] = tier.steps
    while len(_seen) > SEEN_CAPACITY:
        del _seen[next(iter(_seen))]


class _FunctionTier(Tier):
    """A function's tier state, plus what its compiled dispatch loop
    needs once linked."""

    __slots__ = ("tree_index", "exits")


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
        self._tiers: Dict[str, _FunctionTier] = {}
        #: function name -> per-exit count lists, indexed by tree index;
        #: the compiled code increments these in place
        self._fcounts: Dict[str, List[List[int]]] = {}
        #: the same lists keyed the way ``ProfileData`` keys them
        self._counts: Dict[Tuple[str, str], List[int]] = {}

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

    def _enter(self, name: str) -> _FunctionTier:
        """The first call of *name* in this run: its tier state, linked
        at once when its shape enters compiled."""
        func = self.program.functions[name]
        size = sum(len(tree.ops) + len(tree.exits)
                   for tree in func.trees.values())
        shape = (name, len(func.trees), size, self.collect_profile,
                 self.trace_stores, self.strict_memory, self._obs_on)
        tier = self._tiers[name] = _FunctionTier(
            shape, size, lambda: self._source(name), TIER_THRESHOLD,
            "engines.jit.tier_ups")
        if tier.fn is not None:
            self._link(name, tier)
        return tier

    def _source(self, name: str) -> str:
        return generate_function_source(
            self.program.functions[name],
            collect_profile=self.collect_profile,
            trace_stores=self.trace_stores, strict_memory=self.strict_memory,
            # squash tallies only exist under a tracer
            count_squashes=self._obs_on)

    def _link(self, name: str, tier: _FunctionTier) -> Callable:
        """Run *name* through its compiled function ``tier.fn`` from now
        on.

        A tree the interpreted prefix already ran keeps counting in its
        ``exit_counts`` row, so the compiled code adds to what
        ``record_tree`` recorded; ``_run`` folds in the new rows."""
        func = self.program.functions[name]
        if self.collect_profile:
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
