"""Structural tests of lowering: affine capture, regions, bounds."""

from repro.frontend import compile_source
from repro.ir import RegionKind


def find_mem_ops(program, func="main"):
    out = []
    for f, tree in program.all_trees():
        if f != func:
            continue
        for op in tree.ops:
            if op.is_memory:
                out.append(op)
    return out


class TestAffineCapture:
    def test_linear_subscript(self):
        program = compile_source("""
            int a[100];
            int main() {
                int i;
                for (i = 0; i < 10; i = i + 1) { a[2*i + 3] = i; }
                return 0;
            }
        """)
        store = next(op for op in find_mem_ops(program) if op.is_store)
        sub = store.access.subscript
        assert sub is not None
        assert sub.const == 3
        assert list(sub.coeffs.values()) == [2]

    def test_nonlinear_subscript_not_affine(self):
        program = compile_source("""
            int a[100];
            int main() {
                int i = 3;
                a[i * i] = 1;
                return 0;
            }
        """)
        store = next(op for op in find_mem_ops(program) if op.is_store)
        assert store.access.subscript is None

    def test_indirect_subscript_not_affine(self):
        program = compile_source("""
            int ind[4]; int a[100];
            int main() {
                a[ind[0]] = 1;
                return 0;
            }
        """)
        store = next(op for op in find_mem_ops(program)
                     if op.is_store and op.access.region.name == "a")
        assert store.access.subscript is None

    def test_2d_subscript_linearised(self):
        program = compile_source("""
            int g[4][8];
            int main() {
                int i; int j;
                for (i = 0; i < 4; i = i + 1) {
                    for (j = 0; j < 8; j = j + 1) { g[i][j] = 0; }
                }
                return 0;
            }
        """)
        store = next(op for op in find_mem_ops(program) if op.is_store)
        coeffs = sorted(store.access.subscript.coeffs.values())
        assert coeffs == [1, 8]  # row stride times i plus j


class TestLoopBounds:
    def source(self, header):
        return ("int a[100]; int main() { int i; "
                f"for ({header}) {{ a[i] = 1; }} return 0; }}")

    def bounds_of(self, header):
        program = compile_source(self.source(header))
        store = next(op for op in find_mem_ops(program) if op.is_store)
        (bounds,) = store.access.bounds.values()
        return bounds

    def test_half_open_upward(self):
        assert self.bounds_of("i = 0; i < 10; i = i + 1") == (0, 9)

    def test_closed_upward(self):
        assert self.bounds_of("i = 1; i <= 10; i = i + 1") == (1, 10)

    def test_downward(self):
        assert self.bounds_of("i = 9; i >= 2; i = i - 1") == (2, 9)

    def test_non_constant_limit_unbounded(self):
        program = compile_source("""
            int a[100];
            int main() {
                int i; int n = 10;
                for (i = 0; i < n; i = i + 1) { a[i] = 1; }
                return 0;
            }
        """)
        store = next(op for op in find_mem_ops(program) if op.is_store)
        assert all(b == (None, None) for b in store.access.bounds.values())

    def test_body_reassigning_var_kills_bounds(self):
        program = compile_source("""
            int a[100];
            int main() {
                int i;
                for (i = 0; i < 10; i = i + 1) { a[i] = 1; i = i + 1; }
                return 0;
            }
        """)
        store = next(op for op in find_mem_ops(program) if op.is_store)
        assert all(b == (None, None) for b in store.access.bounds.values())


class TestRegions:
    def compile_kernel(self):
        return compile_source("""
            int a[16];
            void f(int p[]) {
                int buf[8];
                p[0] = a[1] + buf[2];
            }
            int main() { f(a); return 0; }
        """)

    def test_region_kinds(self):
        program = self.compile_kernel()
        kinds = {}
        for op in find_mem_ops(program, func="f"):
            kinds[op.access.region.name] = op.access.region.kind
        assert kinds["f.p"] == RegionKind.PARAM
        assert kinds["a"] == RegionKind.GLOBAL
        assert kinds["f.buf"] == RegionKind.LOCAL

    def test_local_array_has_layout_slot(self):
        program = self.compile_kernel()
        assert "f.buf" in program.layout
        assert program.layout["f.buf"] != program.layout["a"]


class TestAddressCode:
    def test_constant_subscript_folds_to_constant_address(self):
        program = compile_source(
            "int a[16]; int main() { a[3] = 1; return 0; }")
        store = next(op for op in find_mem_ops(program) if op.is_store)
        from repro.ir import Constant
        base = program.layout["a"]
        assert store.address == Constant(base + 3)

    def test_scalars_never_touch_memory(self):
        program = compile_source("""
            int main() {
                int x = 1; int y = 2;
                print(x + y);
                return 0;
            }
        """)
        assert not find_mem_ops(program)


class TestSharedLeaves:
    """Within one function, lowering makes one ``Constant`` per distinct
    value and one ``Region`` per global array, so an artifact pickles
    each of them once."""

    SOURCE = """
        float g[4];
        int main() {
            int x = 0; int y = 0;
            float u = 0.0; float v = 0.0; float w = -0.0;
            g[0] = u + v; g[1] = w; g[2] = g[0];
            print(x + y);
            return 0;
        }
    """

    def test_equal_constants_are_one_object(self):
        from repro.ir import Constant
        program = compile_source(self.SOURCE)
        constants = {}
        for _, tree in program.all_trees():
            for op in tree.ops:
                for src in op.srcs:
                    if isinstance(src, Constant):
                        key = (type(src.value), repr(src.value))
                        constants.setdefault(key, set()).add(id(src))
        assert {(int, "0"), (float, "0.0"), (float, "-0.0")} <= set(constants)
        assert all(len(ids) == 1 for ids in constants.values()), constants

    def test_global_array_accesses_share_one_region(self):
        program = compile_source(self.SOURCE)
        regions = {id(op.access.region) for op in find_mem_ops(program)}
        assert len(find_mem_ops(program)) == 4 and len(regions) == 1
