"""Unit tests for the tinyc lexer."""

import pytest

from repro.frontend import CompileError, tokenize


def kinds(source):
    return [t.kind for t in tokenize(source)[:-1]]


def texts(source):
    return [t.text for t in tokenize(source)[:-1]]


class TestBasics:
    def test_empty_source(self):
        tokens = tokenize("")
        assert len(tokens) == 1 and tokens[0].kind == "eof"

    def test_identifiers_and_keywords(self):
        assert kinds("int x foo_bar") == ["kw", "ident", "ident"]

    def test_underscore_identifier(self):
        assert kinds("_x x_1") == ["ident", "ident"]

    def test_symbols(self):
        assert texts("a <= b == c && d") == ["a", "<=", "b", "==", "c", "&&", "d"]

    def test_two_char_symbols_win(self):
        assert texts("a<=b") == ["a", "<=", "b"]
        assert texts("a < = b") == ["a", "<", "=", "b"]


class TestNumbers:
    def test_int_literal(self):
        token = tokenize("42")[0]
        assert token.kind == "int" and token.value == 42

    def test_float_literal(self):
        token = tokenize("3.25")[0]
        assert token.kind == "float" and token.value == 3.25

    def test_float_exponent(self):
        token = tokenize("1.5e3")[0]
        assert token.kind == "float" and token.value == 1500.0

    def test_exponent_with_sign(self):
        token = tokenize("2e-2")[0]
        assert token.kind == "float" and token.value == 0.02

    def test_malformed_number(self):
        with pytest.raises(CompileError):
            tokenize("1.2.3")

    def test_malformed_exponent(self):
        with pytest.raises(CompileError):
            tokenize("1e+")


class TestCommentsAndWhitespace:
    def test_line_comment(self):
        assert kinds("a // comment\n b") == ["ident", "ident"]

    def test_block_comment(self):
        assert kinds("a /* x\n y */ b") == ["ident", "ident"]

    def test_unterminated_block_comment(self):
        with pytest.raises(CompileError):
            tokenize("a /* never closed")

    def test_line_tracking(self):
        tokens = tokenize("a\n  b")
        assert tokens[0].line == 1
        assert tokens[1].line == 2 and tokens[1].column == 3

    def test_line_tracking_after_block_comment(self):
        tokens = tokenize("/* a\nb */ x")
        assert tokens[0].line == 2


class TestErrors:
    def test_unexpected_character(self):
        with pytest.raises(CompileError, match="unexpected character"):
            tokenize("a @ b")

    @pytest.mark.parametrize("char", ["²", "١", "é"])
    def test_non_ascii_character_is_unexpected(self, char):
        # identifiers and digits are ASCII: no int() crash on '²', no
        # Arabic-Indic digit, no accented identifier
        with pytest.raises(CompileError, match="unexpected character") as info:
            tokenize(f"int x;\n  x = 1{char};")
        assert (info.value.line, info.value.column) == (2, 8)
        with pytest.raises(CompileError, match="unexpected character"):
            tokenize(f"int {char}x;")
