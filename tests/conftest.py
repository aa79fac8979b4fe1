"""Shared fixtures: canonical programs, trees, and a session-wide pipeline."""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.bench import get_benchmark
from repro.disambig import Disambiguator, disambiguate
from repro.frontend import compile_source
from repro.ir import (ArrayDecl, Function, Opcode, Program,
                      TreeBuilder, validate_program)
from repro.pipeline import Pipeline
from repro.sim import run_program

# ---------------------------------------------------------------------------
# tinyc sources used across many tests
# ---------------------------------------------------------------------------

#: Paper Example 2-2: alias probability 0.01 (only iteration i = 4).
EXAMPLE_2_2 = """
float a[300];
float y[300];

int main() {
    int i;
    for (i = 1; i <= 100; i = i + 1) {
        a[2*i] = i * 1.0;
        y[i] = a[i+4] * 2.0 + 1.0;
    }
    print(y[3]);
    print(y[4]);
    print(y[50]);
    return 0;
}
"""

#: Pointer-parameter kernel: the static disambiguator cannot resolve it.
POINTER_KERNEL = """
float buf[64];

void kernel(float a[], float b[], int i, int j) {
    a[i] = b[j] * 2.0 + 1.0;
    b[j] = a[i + 1] + 3.0;
}

int main() {
    int k;
    for (k = 0; k < 10; k = k + 1) {
        buf[k] = k * 1.5;
    }
    kernel(buf, buf, 2, 7);
    kernel(buf, buf, 5, 5);
    for (k = 0; k < 10; k = k + 1) {
        print(buf[k]);
    }
    return 0;
}
"""


@pytest.fixture(scope="session")
def example22_program():
    return compile_source(EXAMPLE_2_2)


@pytest.fixture(scope="session")
def example22_result(example22_program):
    return run_program(example22_program)


@pytest.fixture(scope="session")
def pointer_program():
    return compile_source(POINTER_KERNEL)


@pytest.fixture(scope="session", autouse=True)
def _hermetic_cache(tmp_path_factory):
    """Point the artifact store at a throwaway directory for the session.

    Keeps the suite hermetic: tests never read from or write to the
    user's ``~/.cache/repro-spd``.  An explicitly set ``REPRO_CACHE_DIR``
    (e.g. in CI) is respected.
    """
    if os.environ.get("REPRO_CACHE_DIR") is not None:
        yield
        return
    cache_dir = tmp_path_factory.mktemp("repro-cache")
    os.environ["REPRO_CACHE_DIR"] = str(cache_dir)
    try:
        yield
    finally:
        os.environ.pop("REPRO_CACHE_DIR", None)


@pytest.fixture(scope="session")
def pipeline():
    """One Pipeline for the whole session (stages are cached)."""
    return Pipeline()


def spec_over_static(pipeline, name, mach) -> float:
    """SPEC's speedup over STATIC for one benchmark on *mach*."""
    source = get_benchmark(name).source
    static, spec = (pipeline.timing(name, source, kind, mach).timing
                    for kind in (Disambiguator.STATIC, Disambiguator.SPEC))
    return spec.speedup_over(static)


# ---------------------------------------------------------------------------
# golden files
# ---------------------------------------------------------------------------

def pytest_addoption(parser):
    parser.addoption(
        "--update-golden", action="store_true", default=False,
        help="rewrite tests/golden/*.txt from the current output "
             "instead of comparing against it")


@pytest.fixture
def golden(request):
    """Compare rendered text against a pinned file in ``tests/golden/``.

    ``golden("table6_1.txt", text)`` asserts byte equality with the
    checked-in file; running pytest with ``--update-golden`` rewrites
    the file instead (review the diff before committing!).
    """
    golden_dir = Path(__file__).parent / "golden"
    update = request.config.getoption("--update-golden")

    def check(filename: str, text: str) -> None:
        path = golden_dir / filename
        if not text.endswith("\n"):
            text += "\n"
        if update:
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text)
            return
        if not path.exists():
            pytest.fail(
                f"golden file {path} missing — run "
                f"pytest --update-golden to create it")
        expected = path.read_text()
        if text != expected:
            import difflib
            diff = "".join(difflib.unified_diff(
                expected.splitlines(keepends=True),
                text.splitlines(keepends=True),
                fromfile=f"golden/{filename}", tofile="current"))
            pytest.fail(
                f"output drifted from golden/{filename} "
                f"(run pytest --update-golden if intentional):\n{diff}")

    return check


# ---------------------------------------------------------------------------
# hand-built IR helpers
# ---------------------------------------------------------------------------

def build_raw_tree_program(store_index: int, load_index: int,
                           stored=3.5, multiplier=2.0) -> Program:
    """One tree with the paper's Figure 4-4 shape: store a[i]; load a[j];
    a dependent multiply; PRINT of the result."""
    program = Program()
    program.globals_.append(ArrayDecl("a", "float", (16,)))
    function = Function("main")
    builder = TreeBuilder("t0")
    addr_store = builder.value(Opcode.ADD, [store_index, 0])
    addr_load = builder.value(Opcode.ADD, [load_index, 0])
    value = builder.value(Opcode.FADD, [stored, 0.0])
    builder.store(value, addr_store)
    loaded = builder.load(addr_load, "float")
    product = builder.value(Opcode.FMUL, [loaded, multiplier])
    builder.emit(Opcode.PRINT, [product])
    builder.halt()
    function.add_tree(builder.tree)
    program.add_function(function)
    program.layout_memory()
    validate_program(program)
    return program


@pytest.fixture
def raw_tree_program():
    return build_raw_tree_program(3, 3)


def graph_rows(graph):
    """A dependence graph as comparable data: its op count and every
    arc's fields, in arc order."""
    return graph.num_ops, [(arc.src, arc.dst, arc.kind, arc.ambiguous,
                            arc.via_guard, arc.key) for arc in graph.arcs]


def naive_graphs(program):
    """Each tree's NAIVE dependence graph, by ``(function, tree)``: what
    the hardware simulator times a raw program from."""
    return disambiguate(program, Disambiguator.NAIVE).graphs
