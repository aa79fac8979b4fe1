"""Recursive-descent parser for tinyc.

Grammar (informal)::

    unit      := (global | func)*
    global    := type IDENT dims ';'
    func      := ('void' | type) IDENT '(' (param (',' param)*)? ')' block
    param     := type IDENT ('[' ']' ('[' INT ']')?)?
    stmt      := decl | assign | if | while | for | return | print
               | expr ';' | block
    decl      := type IDENT (dims | '=' expr)? ';'
    assign    := IDENT index* '=' expr ';'
    dims      := '[' INT ']' ('[' INT ']')?
    index     := '[' expr ']'
    expr      := unary (BINOP unary)*
    unary     := ('-' | '!') unary | primary
    primary   := INT | FLOAT | IDENT | IDENT '(' (expr (',' expr)*)? ')'
               | IDENT index+ | '(' expr ')'

A name takes at most two subscripts wherever it is indexed, ``for``
headers included.  BINOP is a binary operator; all associate to the
left, with C precedence from loosest to tightest binding::

    ||
    &&
    ==  !=
    <   <=  >   >=
    +   -
    *   /   %
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Tuple

from . import ast_nodes as ast
from .errors import CompileError
from .lexer import Token, tokenize

__all__ = ["parse"]

#: Binding strength of each binary operator: the table in the docstring.
_BINARY = {"||": 1, "&&": 2, "==": 3, "!=": 3, "<": 4, "<=": 4, ">": 4,
           ">=": 4, "+": 5, "-": 5, "*": 6, "/": 6, "%": 6}


def _limit_dims(dims: Sequence[object], most: int, at: Token) -> None:
    if len(dims) > most:
        raise CompileError("at most 2 array dimensions supported",
                           at.line, at.column)


class _Parser:
    def __init__(self, tokens: List[Token]):
        self.tokens = tokens
        self.pos = 0

    # -- token plumbing -----------------------------------------------------

    def peek(self, offset: int = 0) -> Token:
        return self.tokens[min(self.pos + offset, len(self.tokens) - 1)]

    def advance(self) -> Token:
        token = self.tokens[self.pos]
        if token.kind != "eof":
            self.pos += 1
        return token

    def check(self, kind: str, text: Optional[str] = None) -> bool:
        token = self.tokens[self.pos]
        return token.kind == kind and (text is None or token.text == text)

    def accept(self, kind: str, text: Optional[str] = None) -> Optional[Token]:
        if self.check(kind, text):
            return self.advance()
        return None

    def expect(self, kind: str) -> Token:
        if not self.check(kind):
            token = self.peek()
            raise CompileError(f"expected {kind!r}, found {token.text!r}",
                               token.line, token.column)
        return self.advance()

    def comma_list(self, item: Callable[[], object]) -> list:
        """``(item (',' item)*)? ')'``, after the opening parenthesis."""
        items = []
        if not self.check(")"):
            items.append(item())
            while self.accept(","):
                items.append(item())
        self.expect(")")
        return items

    def const_dims(self) -> Tuple[int, ...]:
        dims: List[int] = []
        while self.accept("["):
            dims.append(self.expect("int").value)
            self.expect("]")
        return tuple(dims)

    def indices(self) -> List[ast.Expr]:
        indices: List[ast.Expr] = []
        while self.accept("["):
            indices.append(self.parse_expr())
            self.expect("]")
        return indices

    # -- declarations --------------------------------------------------------

    def parse_unit(self) -> ast.TranslationUnit:
        unit = ast.TranslationUnit()
        while not self.check("eof"):
            token = self.peek()
            if token.kind != "kw" or token.text not in ("int", "float", "void"):
                raise CompileError("expected a declaration",
                                   token.line, token.column)
            # distinguish function from global: IDENT then '('
            if self.peek(2).kind == "(":
                unit.functions.append(self.parse_function())
            else:
                unit.globals_.append(self.parse_global())
        return unit

    def parse_global(self) -> ast.GlobalDecl:
        type_token = self.expect("kw")
        if type_token.text == "void":
            raise CompileError("globals cannot be void",
                               type_token.line, type_token.column)
        name = self.expect("ident")
        dims = self.parse_array_dims()
        self.expect(";")
        return ast.GlobalDecl(type_token.text, name.text, dims, type_token.line)

    def parse_array_dims(self) -> Tuple[int, ...]:
        dims = self.const_dims()
        if not dims:
            token = self.peek()
            raise CompileError("globals must be arrays (scalars live in "
                               "registers)", token.line, token.column)
        _limit_dims(dims, 2, self.peek())
        return dims

    def parse_function(self) -> ast.FuncDecl:
        type_token = self.expect("kw")
        return_type = None if type_token.text == "void" else type_token.text
        name = self.expect("ident")
        self.expect("(")
        params = self.comma_list(self.parse_param)
        body = self.parse_block()
        return ast.FuncDecl(name.text, return_type, params, body,
                            type_token.line)

    def parse_param(self) -> ast.Param:
        type_token = self.expect("kw")
        if type_token.text == "void":
            raise CompileError("void parameter", type_token.line,
                               type_token.column)
        name = self.expect("ident")
        if not self.accept("["):
            return ast.Param(type_token.text, name.text)
        self.expect("]")
        dims = self.const_dims()
        _limit_dims(dims, 1, type_token)
        return ast.Param(type_token.text, name.text, True, dims)

    # -- statements -----------------------------------------------------------

    def parse_block(self) -> List[ast.Stmt]:
        self.expect("{")
        body: List[ast.Stmt] = []
        while not self.check("}"):
            body.append(self.parse_statement())
        self.expect("}")
        return body

    def parse_statement(self) -> ast.Stmt:
        token = self.peek()
        if token.kind == "{":
            return ast.Block(token.line, self.parse_block())
        if token.kind == "ident":
            # IDENT index* '=' starts an assignment.  An index that fails
            # to parse here fails the same way in the expression.
            save = self.pos
            self.advance()
            self.indices()
            is_assign = self.check("=")
            self.pos = save
            if is_assign:
                return self.parse_assign(";")
            expr = self.parse_expr()
            self.expect(";")
            return ast.ExprStmt(token.line, expr)
        if token.kind == "kw" and token.text in ("int", "float"):
            return self.parse_decl()
        if token.kind != "kw" or token.text not in (
                "if", "while", "for", "return", "print"):
            raise CompileError(f"unexpected token {token.text!r}",
                               token.line, token.column)
        self.advance()
        if token.text == "if":
            cond = self.parenthesized()
            then_body = self.statement_as_body()
            else_body: List[ast.Stmt] = []
            if self.accept("kw", "else"):
                else_body = self.statement_as_body()
            return ast.If(token.line, cond, then_body, else_body)
        if token.text == "while":
            cond = self.parenthesized()
            return ast.While(token.line, cond, self.statement_as_body())
        if token.text == "for":
            return self.parse_for(token)
        if token.text == "print":
            value = self.parenthesized()
            self.expect(";")
            return ast.Print(token.line, value)
        value = None if self.check(";") else self.parse_expr()
        self.expect(";")
        return ast.Return(token.line, value)

    def parse_decl(self) -> ast.Stmt:
        type_token = self.expect("kw")
        name = self.expect("ident")
        if self.check("["):
            dims = self.parse_array_dims()
            self.expect(";")
            return ast.ArrayDeclStmt(type_token.line, type_token.text,
                                     name.text, dims)
        init = self.parse_expr() if self.accept("=") else None
        self.expect(";")
        return ast.DeclStmt(type_token.line, type_token.text, name.text, init)

    def parenthesized(self) -> ast.Expr:
        self.expect("(")
        expr = self.parse_expr()
        self.expect(")")
        return expr

    def parse_for(self, token: Token) -> ast.For:
        self.expect("(")
        init: Optional[ast.Stmt] = None
        if self.check("kw"):
            init = self.parse_decl()
        elif not self.accept(";"):
            init = self.parse_assign(";")
        cond = None if self.check(";") else self.parse_expr()
        self.expect(";")
        step = None if self.accept(")") else self.parse_assign(")")
        return ast.For(token.line, init, cond, step,
                       self.statement_as_body())

    def statement_as_body(self) -> List[ast.Stmt]:
        statement = self.parse_statement()
        if isinstance(statement, ast.Block):
            return statement.body
        return [statement]

    def parse_assign(self, end: str) -> ast.Stmt:
        """``IDENT index* '=' expr`` and then the *end* token."""
        name = self.expect("ident")
        indices = self.indices()
        self.expect("=")
        value = self.parse_expr()
        self.expect(end)
        if not indices:
            return ast.Assign(name.line, name.text, value)
        _limit_dims(indices, 2, name)
        return ast.IndexAssign(name.line, name.text, indices, value)

    # -- expressions -------------------------------------------------------------

    def parse_expr(self, lowest: int = 1) -> ast.Expr:
        """Precedence climbing over operators binding at least *lowest*."""
        expr = self.parse_unary()
        while _BINARY.get(self.tokens[self.pos].kind, 0) >= lowest:
            token = self.advance()
            expr = ast.Binary(token.line, token.text, expr,
                              self.parse_expr(_BINARY[token.text] + 1))
        return expr

    def parse_unary(self) -> ast.Expr:
        token = self.advance()
        if token.kind in ("-", "!"):
            return ast.Unary(token.line, token.text, self.parse_unary())
        if token.kind == "int":
            return ast.IntLit(token.line, token.value)
        if token.kind == "float":
            return ast.FloatLit(token.line, token.value)
        if token.kind == "(":
            expr = self.parse_expr()
            self.expect(")")
            return expr
        if token.kind == "ident":
            if self.accept("("):
                return ast.Call(token.line, token.text,
                                self.comma_list(self.parse_expr))
            indices = self.indices()
            if not indices:
                return ast.VarRef(token.line, token.text)
            _limit_dims(indices, 2, token)
            return ast.Index(token.line, token.text, indices)
        raise CompileError(f"unexpected token {token.text!r} in expression",
                           token.line, token.column)


def parse(source: str) -> ast.TranslationUnit:
    """Parse tinyc source text into a translation unit."""
    return _Parser(tokenize(source)).parse_unit()
