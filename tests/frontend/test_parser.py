"""Unit tests for the tinyc parser."""

import pytest

from repro.frontend import CompileError, parse
from repro.frontend import ast_nodes as ast


def parse_stmts(body):
    unit = parse("int main() { %s }" % body)
    return unit.functions[0].body


def parse_expr(text):
    stmt = parse_stmts(f"x = {text};")[0]
    return stmt.value


class TestDeclarations:
    def test_global_array(self):
        unit = parse("float a[10];")
        decl = unit.globals_[0]
        assert decl.name == "a" and decl.type == "float" and decl.dims == (10,)

    def test_global_2d(self):
        assert parse("int g[4][8];").globals_[0].dims == (4, 8)

    def test_global_scalar_rejected(self):
        with pytest.raises(CompileError, match="must be arrays"):
            parse("int x;")

    def test_three_dims_rejected(self):
        with pytest.raises(CompileError, match="2 array dimensions"):
            parse("int a[2][2][2];")

    def test_function_signature(self):
        unit = parse("float f(int n, float a[], float g[][8]) { return 0.0; }")
        func = unit.functions[0]
        assert func.return_type == "float"
        assert [p.name for p in func.params] == ["n", "a", "g"]
        assert [p.is_array for p in func.params] == [False, True, True]
        assert func.params[2].dims == (8,)

    def test_void_function(self):
        assert parse("void f() {}").functions[0].return_type is None


class TestStatements:
    def test_local_decl_with_init(self):
        stmt = parse_stmts("int x = 3;")[0]
        assert isinstance(stmt, ast.DeclStmt)
        assert isinstance(stmt.init, ast.IntLit)

    def test_local_array_decl(self):
        stmt = parse_stmts("float buf[16];")[0]
        assert isinstance(stmt, ast.ArrayDeclStmt) and stmt.dims == (16,)

    def test_scalar_assign(self):
        stmt = parse_stmts("x = 1;")[0]
        assert isinstance(stmt, ast.Assign) and stmt.name == "x"

    def test_indexed_assign(self):
        stmt = parse_stmts("a[i+1] = 2;")[0]
        assert isinstance(stmt, ast.IndexAssign)
        assert isinstance(stmt.indices[0], ast.Binary)

    def test_2d_assign(self):
        stmt = parse_stmts("g[i][j] = 2;")[0]
        assert len(stmt.indices) == 2

    def test_if_else(self):
        stmt = parse_stmts("if (x < 1) { y = 1; } else { y = 2; }")[0]
        assert isinstance(stmt, ast.If)
        assert len(stmt.then_body) == 1 and len(stmt.else_body) == 1

    def test_if_without_braces(self):
        stmt = parse_stmts("if (x) y = 1;")[0]
        assert isinstance(stmt.then_body[0], ast.Assign)

    def test_else_if_chain(self):
        stmt = parse_stmts("if (a) x = 1; else if (b) x = 2; else x = 3;")[0]
        assert isinstance(stmt.else_body[0], ast.If)

    def test_while(self):
        stmt = parse_stmts("while (i < 10) { i = i + 1; }")[0]
        assert isinstance(stmt, ast.While)

    def test_for(self):
        stmt = parse_stmts("for (i = 0; i < 10; i = i + 1) { x = i; }")[0]
        assert isinstance(stmt, ast.For)
        assert isinstance(stmt.init, ast.Assign)
        assert isinstance(stmt.step, ast.Assign)

    def test_for_with_decl_init(self):
        stmt = parse_stmts("for (int i = 0; i < 10; i = i + 1) {}")[0]
        assert isinstance(stmt.init, ast.DeclStmt)

    def test_for_empty_clauses(self):
        stmt = parse_stmts("for (;;) {}")[0]
        assert stmt.init is None and stmt.cond is None and stmt.step is None

    def test_return_value(self):
        stmt = parse_stmts("return x + 1;")[0]
        assert isinstance(stmt, ast.Return) and stmt.value is not None

    def test_print(self):
        stmt = parse_stmts("print(x);")[0]
        assert isinstance(stmt, ast.Print)

    def test_expression_statement(self):
        stmt = parse_stmts("f(1, 2);")[0]
        assert isinstance(stmt, ast.ExprStmt)
        assert isinstance(stmt.expr, ast.Call)


class TestExpressions:
    def test_precedence_mul_over_add(self):
        expr = parse_expr("1 + 2 * 3")
        assert expr.op == "+" and expr.right.op == "*"

    def test_left_associativity(self):
        expr = parse_expr("1 - 2 - 3")
        assert expr.op == "-" and expr.left.op == "-"

    def test_parentheses(self):
        expr = parse_expr("(1 + 2) * 3")
        assert expr.op == "*" and expr.left.op == "+"

    def test_comparison_below_logic(self):
        expr = parse_expr("a < b && c > d")
        assert expr.op == "&&"
        assert expr.left.op == "<" and expr.right.op == ">"

    def test_or_below_and(self):
        expr = parse_expr("a && b || c")
        assert expr.op == "||" and expr.left.op == "&&"

    def test_unary_minus(self):
        expr = parse_expr("-x * 2")
        assert expr.op == "*" and isinstance(expr.left, ast.Unary)

    def test_not(self):
        expr = parse_expr("!x")
        assert isinstance(expr, ast.Unary) and expr.op == "!"

    def test_call_with_args(self):
        expr = parse_expr("f(1, g(2), a)")
        assert isinstance(expr, ast.Call) and len(expr.args) == 3
        assert isinstance(expr.args[1], ast.Call)

    def test_index_expression(self):
        expr = parse_expr("a[i][j]")
        assert isinstance(expr, ast.Index) and len(expr.indices) == 2

    def test_float_literal(self):
        assert isinstance(parse_expr("1.5"), ast.FloatLit)


class TestErrors:
    def test_missing_semicolon(self):
        with pytest.raises(CompileError):
            parse("int main() { x = 1 }")

    def test_missing_paren(self):
        with pytest.raises(CompileError):
            parse("int main() { if (x { } }")

    def test_stray_token_at_top_level(self):
        with pytest.raises(CompileError, match="expected a declaration"):
            parse("42;")

    @pytest.mark.parametrize("header", ["g[1][2][3] = 0; 0; ",
                                        "; 0; g[1][2][3] = 0"])
    def test_for_header_takes_at_most_two_subscripts(self, header):
        source = "int g[4];\nint main() { for (%s) {} return 0; }" % header
        with pytest.raises(CompileError,
                           match="at most 2 array dimensions") as info:
            parse(source)
        column = source.index("g[1]") - source.index("\n")
        assert (info.value.line, info.value.column) == (2, column)
