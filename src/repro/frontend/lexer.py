"""Lexer for the tinyc benchmark language.

tinyc is the C subset in which the paper's benchmarks are re-implemented
(see DESIGN.md).  The token set covers declarations (``int``, ``float``,
``void``), control flow (``if``/``else``/``while``/``for``/``return``),
the ``print`` builtin, arithmetic/logical/comparison operators, and
array indexing.  Identifiers and digits are ASCII; docs/tinyc.md
("Lexical structure") spells the token classes out.  One compiled
pattern scans the source; positions come from a line-start table.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from typing import List, NamedTuple, Union

from .errors import CompileError

__all__ = ["Token", "tokenize", "KEYWORDS"]

KEYWORDS = frozenset({
    "int", "float", "void", "if", "else", "while", "for",
    "return", "print",
})

# Alternatives are tried in order: comments before the '/' symbol, and
# two-character symbols before their one-character prefixes.  Only the
# source's last line can end in a 'comment' match.
_SCAN = re.compile(r"""
    (?P<space>[ \t\r\n]+ | /\*.*?\*/ | //[^\n]*(?=\n))
  | (?P<comment>//[^\n]*)
  | (?P<open_comment>/\*)
  | (?P<number>(?P<mantissa>\.?[0-9][0-9.]*)(?P<exponent>[eE][+-]?[0-9]*)?)
  | (?P<word>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<symbol>&& | \|\| | [=!<>]=? | [-+*/%(){}\[\];,])
  | (?P<other>.)
""", re.VERBOSE | re.DOTALL)


class Token(NamedTuple):
    """One token with its 1-based source position."""

    kind: str                      #: 'ident' | 'int' | 'float' | 'kw' | symbol text | 'eof'
    text: str
    value: Union[int, float, None] = None
    line: int = 0
    column: int = 0


def tokenize(source: str) -> List[Token]:
    """Turn source text into a token list ending with an 'eof' token."""
    line_starts = [0] + [match.end() for match in re.finditer("\n", source)]
    tokens: List[Token] = []
    end = len(source)

    def position(offset: int):
        line = bisect_right(line_starts, offset)
        return line, offset - line_starts[line - 1] + 1

    for match in _SCAN.finditer(source):
        group = match.lastgroup
        if group == "space":
            continue
        if group == "comment":  # a final '//' line: 'eof' takes its column
            end = match.start()
            continue
        text = match.group()
        line, column = position(match.start())
        if group == "word":
            kind = "kw" if text in KEYWORDS else "ident"
            tokens.append(Token(kind, text, None, line, column))
        elif group == "symbol":
            tokens.append(Token(text, text, None, line, column))
        elif group == "number":
            if match.group("mantissa").count(".") > 1:
                raise CompileError("malformed number", line, column)
            exponent = match.group("exponent")
            if exponent is None and "." not in text:
                tokens.append(Token("int", text, int(text), line, column))
            elif exponent is None or exponent[-1].isdigit():
                tokens.append(Token("float", text, float(text), line, column))
            else:
                raise CompileError("malformed exponent", line, column)
        elif group == "open_comment":
            raise CompileError("unterminated block comment", line, column)
        else:
            raise CompileError(f"unexpected character {text!r}",
                               line, column)
    tokens.append(Token("eof", "", None, *position(end)))
    return tokens
