"""hwsim's two tiers, tree by tree: the interpreted tree and timed code.

A function starts cold, and each of its trees runs through the
reference's ``Interpreter._execute_tree``; once hot it runs as the
timed whole-function code of
:func:`repro.engines.codegen.generate_function_source`.  From one entry
state (registers and memory) the two must report the same exit index
and, for a tree with memory operations, the same access trace to the
timing sink; leave the same registers, memory, output and store trace;
and raise the same error.  The trees are every tree of the 14 kernels'
NAIVE and SPEC views at memory 2 and 6, each from the states a real run
enters it with and from synthetic ones (unset registers, out-of-range
addresses), plus the property suite's random trees.  Each tree runs
alone in a function of its own, so an exit to any other tree leaves
the compiled code.
"""

import random

import pytest
from hypothesis import HealthCheck, given, settings

from repro.bench.suite import benchmark_names, get_benchmark
from repro.disambig import Disambiguator
from repro.engines import jit
from repro.engines.codegen import generate_function_source, touches_memory
from repro.engines.jit import compiled_fn
from repro.hwsim import HwSimulator
from repro.ir import (BOOL, FLOAT, Function, Guard, Opcode, Program,
                      Register, TreeBuilder, build_dependence_graph)
from repro.machine import hw_machine
from repro.sim.interpreter import Interpreter, InterpreterError, _Frame

from ..properties.test_sched_props import guarded_trees, random_trees

#: Entry states a real run records per tree, and synthetic states per
#: tree, seeded by the tree's position.
RECORDED_STATES = 3
SYNTHETIC_STATES = 4
#: Steps each recording run may take: enough to enter the loop bodies.
RECORD_STEPS = 50_000
#: The key a tree under test runs under, alone in its function, so
#: that each of its exits, a GOTO back to the tree too, leaves it.
PROBE = "<probe>"


class _Probe(HwSimulator):
    """The simulator with a sink that records what it is handed."""

    def __init__(self, program):
        super().__init__(program, hw_machine(2), {}, trace_stores=True)
        self.reports = []

    def _time(self, key, exit_index, trace):
        self.reports.append((exit_index, [tuple(event) for event in trace]))


def _one_tree_program(tree, words=0, function="main", key=None):
    """A program of one function that holds *tree*, under *key* when
    given: then every exit of the tree leaves the function."""
    program = Program()
    owner = Function(function)
    if key is None:
        owner.add_tree(tree)
    else:
        owner.trees[key] = tree
    program.add_function(owner)
    program.memory_words = words
    return program


def _run_tier(hot, program, tree, regs, memory):
    """One tier's outcome for *tree*, the only tree of *program* (under
    the key :data:`PROBE`), from a copy of *regs* on a copy of
    *memory*."""
    sim = _Probe(program)
    sim.memory = list(memory)
    (fname, function), = program.functions.items()
    frame = _Frame(fname, PROBE, dict(regs))
    error = None
    try:
        if hot:
            rows = sim._fcounts[fname] = [[0] * len(tree.exits)]
            fn = compiled_fn(generate_function_source(
                function, trace_stores=True, timed=True))
            if fn(frame.regs, sim.memory, sim, 0)[1] < 0:
                # as the jit engine does
                sim._take_exit(frame, tree)
            if not touches_memory(tree):
                sim.reports.extend((index, []) for index, count
                                   in enumerate(rows[0]) if count)
        else:
            Interpreter._execute_tree(sim, frame)
    except Exception as exc:  # noqa: BLE001 - both tiers must fail alike
        error = (type(exc).__name__, str(exc))
    reports = [(index, trace if touches_memory(tree) else None)
               for index, trace in sim.reports]
    # repr tells 1 from 1.0 and matches NaN; compiled code writes
    # registers back in name order, the walker in op order, and only
    # when it returns: a run that raises leaves them unused
    return {"error": error, "reports": reports,
            "regs": None if error else repr(sorted(frame.regs.items())),
            "memory": repr(sim.memory), "output": repr(sim.output),
            "stores": repr(sim.store_trace)}


def assert_tiers_agree(program, tree, regs, memory):
    """The cold and the hot tier of *tree*, alone in *program*, from one
    entry state; returns the shared outcome."""
    cold = _run_tier(False, program, tree, regs, memory)
    hot = _run_tier(True, program, tree, regs, memory)
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
    words = len(Interpreter(program.copy(), collect_profile=False).memory)
    states = _recorded_states(program)
    seed = 0
    for fname, function in program.functions.items():
        for tname, tree in function.trees.items():
            alone = _one_tree_program(tree, words, fname, PROBE)
            for regs, memory in states.get((fname, tname), ()):
                assert_tiers_agree(alone, tree, regs, memory)
            memory = [index % 7 for index in range(words)]
            for regs in _synthetic_states(tree, words, seed):
                assert_tiers_agree(alone, tree, regs, memory)
            seed += 1
    assert states, f"{name}: the recording run entered no tree"


_PROPS = settings(max_examples=60, deadline=None,
                  suppress_health_check=[HealthCheck.too_slow])


@_PROPS
@given(tree=random_trees())
def test_random_trees_agree(tree):
    # addresses 0-7 against 6 words: the top two are out of range
    for words in (8, 6):
        program = _one_tree_program(tree, words, key=PROBE)
        for regs in _synthetic_states(tree, words, words):
            assert_tiers_agree(program, tree, regs, [3] * words)


@_PROPS
@given(tree=guarded_trees())
def test_guarded_trees_agree(tree):
    for words in (8, 6):
        program = _one_tree_program(tree, words, key=PROBE)
        for regs in _synthetic_states(tree, words, words):
            assert_tiers_agree(program, tree, regs, [3] * words)


class TestEntryStates:
    """The entry states both tiers must get exactly right, on hand-built
    trees, and through the simulator."""

    WORDS = 8

    def _agree(self, tree, regs):
        return assert_tiers_agree(
            _one_tree_program(tree, self.WORDS, key=PROBE), tree, regs,
            [3] * self.WORDS)

    def test_unset_data_registers_read_typed_junk(self):
        builder = TreeBuilder("t")
        total = builder.value(Opcode.ADD, [Register("v.i"), 1])
        real = builder.value(Opcode.FADD, [Register("v.x", FLOAT), 0.5],
                             type_=FLOAT)
        builder.emit(Opcode.PRINT, [total])
        builder.emit(Opcode.PRINT, [real])
        builder.halt()
        outcome = self._agree(builder.tree, {})
        assert outcome["output"] == "[1, 0.5]"

    def test_out_of_range_load_is_junk_without_event(self):
        builder = TreeBuilder("t")
        loaded = builder.load(Register("v.p"), FLOAT)
        kept = builder.load(2, "int")
        builder.emit(Opcode.PRINT, [loaded])
        builder.emit(Opcode.PRINT, [kept])
        builder.halt()
        outcome = self._agree(builder.tree, {"v.p": self.WORDS})
        # one event, the in-range load, and the junk float printed
        assert outcome["reports"] == [(0, [(1, False, 0)])]
        assert outcome["output"] == "[0.0, 3]"

    def test_store_to_bad_address_raises_the_interpreters_error(self):
        builder = TreeBuilder("t")
        builder.store(1, Register("v.p"))
        builder.halt()
        for bad in (-1, self.WORDS, 2.0):
            error = self._agree(builder.tree, {"v.p": bad})["error"]
            assert error[0] == "InterpreterError"
            assert ("out of range" in error[1]
                    or "non-integer address" in error[1])

    def test_undefined_op_guard_raises(self):
        builder = TreeBuilder("t")
        builder.store(1, 0, guard=Guard(Register("c.never", BOOL)))
        builder.halt()
        outcome = self._agree(builder.tree, {})
        assert outcome["error"] == (
            "InterpreterError", "guard register %c.never read before "
            "definition")

    def _undefined_exit_guard_tree(self):
        builder = TreeBuilder("t")
        builder.store(5, 1)
        builder.emit(Opcode.PRINT, [7])
        builder.goto("t", guard=Guard(Register("c.never", BOOL)))
        builder.halt()
        return builder.tree

    def test_undefined_exit_guard_raises_after_the_stores(self):
        outcome = self._agree(self._undefined_exit_guard_tree(), {})
        assert outcome["error"] == (
            "InterpreterError", "guard register %c.never read before "
            "definition")
        # the tree ran, and was never timed
        assert outcome["reports"] == []
        assert outcome["stores"] == "[(1, 5)]"
        assert outcome["output"] == "[7]"

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
        assert (sim._tiers["main"].fn is not None) == (threshold == 0)
