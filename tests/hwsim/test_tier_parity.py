"""hwsim's two tiers, tree by tree: interpreted resolve vs ``hw_resolve``.

A tree starts cold, and its resolve pass runs through
``Interpreter._resolve_tree``; once hot it runs the compiled
``hw_resolve`` source of :func:`repro.engines.codegen.generate_tree_source`.
From one entry state (registers and memory) the two must return the same
exit index, events, stores and prints, leave the same registers, and
raise the same error.  The trees are every tree of the 14 kernels'
NAIVE and SPEC views at memory 2 and 6, each from the states a real run
enters it with and from synthetic ones (unset registers, out-of-range
addresses), plus the property suite's random trees.
"""

import random

import pytest
from hypothesis import HealthCheck, given, settings

from repro.bench.suite import benchmark_names, get_benchmark
from repro.disambig import Disambiguator
from repro.engines.codegen import generate_tree_source, touches_memory
from repro.engines import jit
from repro.engines.jit import compiled_fn
from repro.hwsim import HwSimulator
from repro.ir import (BOOL, FLOAT, Function, Guard, Opcode, Program,
                      Register, TreeBuilder, build_dependence_graph)
from repro.machine import hw_machine
from repro.sim.interpreter import Interpreter, InterpreterError

from ..properties.test_sched_props import guarded_trees, random_trees

#: Entry states a real run records per tree, and synthetic states per
#: tree, seeded by the tree's position.
RECORDED_STATES = 3
SYNTHETIC_STATES = 4
#: Steps each recording run may take: enough to enter the loop bodies.
RECORD_STEPS = 50_000


def _normalised(result, regs, output):
    if isinstance(result, tuple):
        exit_index, events, stores, prints = result
        result = (exit_index, [tuple(event) for event in events],
                  list(stores), list(prints))
    # repr tells 1 from 1.0 and matches NaN; the compiled pass writes
    # registers back in name order, the interpreted one in op order
    return repr((result, sorted(regs.items()), list(output)))


def _run_tier(resolve, interp, regs, memory):
    """One tier's outcome from a copy of *regs* on *memory*."""
    regs = dict(regs)
    interp.memory = list(memory)
    interp.output = []
    try:
        result = resolve(regs)
    except Exception as exc:  # noqa: BLE001 - both tiers must fail alike
        return repr(("raises", type(exc).__name__, str(exc),
                     list(interp.output)))
    assert interp.memory == memory, "a resolve pass wrote memory"
    return _normalised(result, regs, interp.output)


def assert_tiers_agree(interp, tree, regs, memory):
    """The cold and the hot resolve pass of *tree* from one entry
    state; returns the shared outcome."""
    buffers = touches_memory(tree)
    compiled = compiled_fn(generate_tree_source(tree))
    cold = _run_tier(lambda r: interp._resolve_tree(tree, r, buffers),
                     interp, regs, memory)
    hot = _run_tier(lambda r: compiled(r, interp.memory, interp),
                    interp, regs, memory)
    assert cold == hot, f"tree {tree.name}: tiers disagree"
    return cold


def _registers(tree):
    """Every register *tree* reads: data operands, op and exit guards."""
    found = {}
    for op in tree.ops:
        for src in op.srcs:
            if isinstance(src, Register):
                found[src.name] = src
        if op.dest is not None:
            found[op.dest.name] = op.dest
        if op.guard is not None:
            found[op.guard.reg.name] = op.guard.reg
    for exit_ in tree.exits:
        if exit_.guard is not None:
            found[exit_.guard.reg.name] = exit_.guard.reg
    return list(found.values())


def _synthetic_states(tree, words, seed):
    """Guards true and data unset (typed junk); guards true and every
    int at the first out-of-range address; nothing set (an undefined
    guard raises); then random mixes of unset, out-of-range and
    in-range values."""
    regs = _registers(tree)
    guards = {r.name: 1 for r in regs if r.type == BOOL}
    yield dict(guards)
    yield {**{r.name: words for r in regs if r.type != FLOAT}, **guards}
    yield {}
    rng = random.Random(seed)
    ints = (0, 1, 2, -1, words - 1, words)
    for _ in range(SYNTHETIC_STATES):
        state = {}
        for reg in regs:
            if rng.random() < 0.15:
                continue
            if reg.type == BOOL:
                state[reg.name] = rng.randint(0, 1)
            elif reg.type == FLOAT:
                state[reg.name] = rng.choice((0.0, 1.5, -2.0))
            elif rng.random() < 0.5:
                state[reg.name] = rng.randrange(words)
            else:
                state[reg.name] = rng.choice(ints)
        yield state


class _Recorder(Interpreter):
    """The reference interpreter, noting the first entry states
    (registers and memory) of every tree it runs."""

    def __init__(self, program):
        super().__init__(program, max_steps=RECORD_STEPS,
                         collect_profile=False)
        self.states = {}

    def _execute_tree(self, frame):
        seen = self.states.setdefault((frame.function, frame.tree), [])
        if len(seen) < RECORDED_STATES:
            seen.append((dict(frame.regs), list(self.memory)))
        return super()._execute_tree(frame)


def _recorded_states(program):
    recorder = _Recorder(program.copy())
    try:
        recorder.run()
    except InterpreterError:
        pass  # the step limit: the states so far are enough
    return recorder.states


@pytest.mark.parametrize("memory_latency", (2, 6))
@pytest.mark.parametrize("kind", (Disambiguator.NAIVE, Disambiguator.SPEC),
                         ids=lambda kind: kind.value)
@pytest.mark.parametrize("name", benchmark_names())
def test_kernel_trees_agree(pipeline, name, kind, memory_latency):
    view = pipeline.view(name, get_benchmark(name).source, kind,
                         memory_latency)
    program = view.program
    interp = Interpreter(program.copy(), collect_profile=False)
    words = len(interp.memory)
    states = _recorded_states(program)
    seed = 0
    for fname, function in program.functions.items():
        for tname, tree in function.trees.items():
            for regs, memory in states.get((fname, tname), ()):
                assert_tiers_agree(interp, tree, regs, memory)
            memory = [index % 7 for index in range(words)]
            for regs in _synthetic_states(tree, words, seed):
                assert_tiers_agree(interp, tree, regs, memory)
            seed += 1
    assert states, f"{name}: the recording run entered no tree"


_PROPS = settings(max_examples=60, deadline=None,
                  suppress_health_check=[HealthCheck.too_slow])


def _one_tree_program(tree, words=0):
    program = Program()
    function = Function("main")
    function.add_tree(tree)
    program.add_function(function)
    program.memory_words = words
    return program


def _tree_interp(words):
    """An interpreter on *words* words of memory, and their contents;
    the trees under test need not belong to its program."""
    builder = TreeBuilder("t")
    builder.halt()
    return (Interpreter(_one_tree_program(builder.tree, words),
                        collect_profile=False), [3] * words)


@_PROPS
@given(tree=random_trees())
def test_random_trees_agree(tree):
    # addresses 0-7 against 6 words: the top two are out of range
    for words in (8, 6):
        interp, memory = _tree_interp(words)
        for regs in _synthetic_states(tree, words, words):
            assert_tiers_agree(interp, tree, regs, memory)


@_PROPS
@given(tree=guarded_trees())
def test_guarded_trees_agree(tree):
    for words in (8, 6):
        interp, memory = _tree_interp(words)
        for regs in _synthetic_states(tree, words, words):
            assert_tiers_agree(interp, tree, regs, memory)


class TestEntryStates:
    """The entry states the resolve pass must get exactly right, on
    hand-built trees, through both tiers and through the simulator."""

    WORDS = 8

    def _agree(self, tree, regs):
        interp, memory = _tree_interp(self.WORDS)
        return assert_tiers_agree(interp, tree, regs, memory)

    def test_unset_data_registers_read_typed_junk(self):
        builder = TreeBuilder("t")
        total = builder.value(Opcode.ADD, [Register("v.i"), 1])
        real = builder.value(Opcode.FADD, [Register("v.x", FLOAT), 0.5],
                             type_=FLOAT)
        builder.emit(Opcode.PRINT, [total])
        builder.emit(Opcode.PRINT, [real])
        builder.halt()
        outcome = self._agree(builder.tree, {})
        assert "[1, 0.5]" in outcome

    def test_out_of_range_load_is_junk_without_event(self):
        builder = TreeBuilder("t")
        loaded = builder.load(Register("v.p"), FLOAT)
        kept = builder.load(2, "int")
        builder.emit(Opcode.PRINT, [loaded])
        builder.emit(Opcode.PRINT, [kept])
        builder.halt()
        outcome = self._agree(builder.tree, {"v.p": self.WORDS})
        # one event, the in-range load, and the junk float printed
        assert "(0, [(1, False, 0)], [], [0.0, 3])" in outcome

    def test_store_to_bad_address_raises_the_interpreters_error(self):
        builder = TreeBuilder("t")
        builder.store(1, Register("v.p"))
        builder.halt()
        for bad in (-1, self.WORDS, 2.0):
            outcome = self._agree(builder.tree, {"v.p": bad})
            assert "InterpreterError" in outcome
            assert ("out of range" in outcome
                    or "non-integer address" in outcome)

    def test_undefined_op_guard_raises(self):
        builder = TreeBuilder("t")
        builder.store(1, 0, guard=Guard(Register("c.never", BOOL)))
        builder.halt()
        outcome = self._agree(builder.tree, {})
        assert "guard register %c.never read before definition" in outcome

    def _undefined_exit_guard_tree(self):
        builder = TreeBuilder("t")
        builder.store(5, 1)
        builder.emit(Opcode.PRINT, [7])
        builder.goto("t", guard=Guard(Register("c.never", BOOL)))
        builder.halt()
        return builder.tree

    def test_undefined_exit_guard_returns_minus_one(self):
        outcome = self._agree(self._undefined_exit_guard_tree(), {})
        assert outcome.startswith("((-1, [(0, True, 0)], [(1, 5)], [7])")

    @pytest.mark.parametrize("threshold", (0, 1000), ids=("hot", "cold"))
    def test_simulator_raises_after_draining_stores(self, monkeypatch,
                                                    threshold):
        monkeypatch.setattr(jit, "HW_TIER_THRESHOLD", threshold)
        jit.clear_code_cache()
        tree = self._undefined_exit_guard_tree()
        program = _one_tree_program(tree, self.WORDS)
        graphs = {("main", "t"): build_dependence_graph(tree)}
        sim = HwSimulator(program, hw_machine(2, window=8), graphs)
        with pytest.raises(InterpreterError,
                           match="guard register %c.never read before"):
            sim.run()
        assert sim.memory[1] == 5
        assert sim.output == [7]
        assert (sim._trees[("main", "t")].tier.fn is not None) == (
            threshold == 0)
