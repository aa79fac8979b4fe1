"""Lowering: tinyc AST -> control-flow graph of three-address operations.

Conventions established here and relied upon downstream:

* Scalars live in registers only (``v.<name>`` for locals, ``p.<name>``
  for parameters); every LOAD/STORE is an array access.
* Statement-internal values use ``t<N>`` temporaries that never cross a
  decision-tree boundary; values that must survive (variables, call
  results) always go through variable registers.
* Calls are extracted from expressions and lowered first, each ending
  its basic block with a :class:`~repro.frontend.cfg.TCall` terminator
  (evaluation order: calls before the rest of the expression).
* Every array access carries a :class:`~repro.ir.memory.MemAccess` with
  its region and, when the subscript is affine in scalar variables, the
  affine expression plus any constant loop bounds — the static
  disambiguator's entire knowledge.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, Union

from ..ir.affine import AffineExpr
from ..ir.memory import MemAccess, Region, RegionKind
from ..ir.operations import Opcode, Operation
from ..ir.program import ArrayDecl
from ..ir.values import BOOL, Constant, FLOAT, INT, Operand, Register
from . import ast_nodes as ast
from .cfg import CFGBlock, FunctionCFG, TBranch, TCall, TJump, TReturn
from .errors import CompileError
from .semantic import INTRINSICS, ProgramEnv

__all__ = ["lower_function", "Value"]


@dataclass
class Value:
    """A lowered expression: operand + type + optional affine view."""

    operand: Operand
    type: str
    affine: Optional[AffineExpr] = None


@dataclass
class _VarInfo:
    kind: str                      #: 'scalar' | 'garray' | 'larray' | 'parray'
    type: str                      #: element/scalar type
    reg: Optional[Register] = None       # scalar home or parray base
    sym: str = ""                        # affine symbol (scalars)
    dims: Tuple[int, ...] = ()           # arrays: full or trailing dims
    region: Optional[Region] = None      # arrays
    base: Optional[int] = None           # garray/larray base address


_INT_BINOPS = {"+": Opcode.ADD, "-": Opcode.SUB, "*": Opcode.MUL,
               "/": Opcode.DIV, "%": Opcode.MOD}
_FLT_BINOPS = {"+": Opcode.FADD, "-": Opcode.FSUB, "*": Opcode.FMUL,
               "/": Opcode.FDIV}
_INT_CMPS = {"==": Opcode.CMP_EQ, "!=": Opcode.CMP_NE, "<": Opcode.CMP_LT,
             "<=": Opcode.CMP_LE, ">": Opcode.CMP_GT, ">=": Opcode.CMP_GE}
_FLT_CMPS = {"==": Opcode.FCMP_EQ, "!=": Opcode.FCMP_NE, "<": Opcode.FCMP_LT,
             "<=": Opcode.FCMP_LE, ">": Opcode.FCMP_GT, ">=": Opcode.FCMP_GE}
_INTRINSIC_OPS = {"sqrt": Opcode.FSQRT, "sin": Opcode.FSIN,
                  "cos": Opcode.FCOS, "fabs": Opcode.FABS}


def _c_div(a: int, b: int) -> int:
    if b == 0:
        raise CompileError("constant division by zero")
    q = abs(a) // abs(b)
    return q if (a >= 0) == (b >= 0) else -q


class _FunctionLowerer:
    def __init__(self, func: ast.FuncDecl, env: ProgramEnv,
                 layout: Dict[str, int]):
        self.func = func
        self.env = env
        self.layout = layout
        self.cfg = FunctionCFG(func.name, [], func.return_type)
        self.scopes: List[Dict[str, _VarInfo]] = [{}]
        self.bounds_stack: List[Dict[str, Tuple[int, int]]] = []
        self._temp_count = 0
        self._block_count = 0
        self._call_count = 0
        self._name_counts: Dict[str, int] = {}
        # one Constant per distinct value and one _VarInfo per global
        # array, per function: an artifact pickles each shared object once
        self._constants: Dict[Tuple[type, str], Constant] = {}
        self._globals: Dict[str, _VarInfo] = {}
        self.current: CFGBlock = self._new_block("entry")
        self.cfg.entry = self.current.label
        self._declare_params()

    # ------------------------------------------------------------------
    # infrastructure
    # ------------------------------------------------------------------

    def _error(self, message: str, line: int = 0) -> CompileError:
        return CompileError(f"in {self.func.name}: {message}", line)

    def _new_block(self, hint: str) -> CFGBlock:
        label = f"b{self._block_count}_{hint}"
        self._block_count += 1
        block = CFGBlock(label)
        self.cfg.blocks[label] = block
        return block

    def _terminate(self, term) -> None:
        if self.current.term is None:
            self.current.term = term

    def _start(self, block: CFGBlock) -> None:
        self.current = block

    def _const(self, value: Union[int, float]) -> Constant:
        """The lowerer's one :class:`Constant` for *value*; keyed on type
        and repr so that ``0``, ``0.0`` and ``-0.0`` stay distinct."""
        key = (type(value), repr(value))
        constant = self._constants.get(key)
        if constant is None:
            constant = self._constants[key] = Constant(value)
        return constant

    def _temp(self, type_: str) -> Register:
        reg = Register(f"t{self._temp_count}.{self.func.name}", type_)
        self._temp_count += 1
        return reg

    def _emit(self, opcode: Opcode, srcs, dest: Optional[Register] = None,
              access: Optional[MemAccess] = None) -> Optional[Register]:
        self.current.ops.append(Operation(
            op_id=-1, opcode=opcode, dest=dest, srcs=tuple(srcs),
            access=access))
        return dest

    def _value_op(self, opcode: Opcode, srcs, type_: str,
                  access: Optional[MemAccess] = None) -> Register:
        dest = self._temp(type_)
        self._emit(opcode, srcs, dest=dest, access=access)
        return dest

    # -- scopes -----------------------------------------------------------

    def _unique(self, name: str) -> str:
        count = self._name_counts.get(name, 0)
        self._name_counts[name] = count + 1
        return name if count == 0 else f"{name}${count}"

    def _declare_scalar(self, name: str, type_: str,
                        prefix: str = "v") -> _VarInfo:
        sym = self._unique(name)
        info = _VarInfo("scalar", type_,
                        reg=Register(f"{prefix}.{sym}", type_), sym=sym)
        self.scopes[-1][name] = info
        return info

    def _declare_params(self) -> None:
        for param in self.func.params:
            if param.is_array:
                region = Region(RegionKind.PARAM,
                                f"{self.func.name}.{param.name}")
                reg = Register(f"p.{param.name}", INT)
                self.scopes[-1][param.name] = _VarInfo(
                    "parray", param.type, reg=reg, dims=param.dims,
                    region=region)
                self.cfg.params.append(reg)
            else:
                info = self._declare_scalar(param.name, param.type, prefix="p")
                self.cfg.params.append(info.reg)

    def _declare_local_array(self, stmt: ast.ArrayDeclStmt) -> None:
        region_name = f"{self.func.name}.{stmt.name}"
        base = self.layout.get(region_name)
        if base is None:
            raise self._error(f"array {stmt.name!r} missing from layout",
                              stmt.line)
        self.scopes[-1][stmt.name] = _VarInfo(
            "larray", stmt.type, dims=stmt.dims,
            region=Region(RegionKind.LOCAL, region_name), base=base)

    def _lookup(self, name: str, line: int = 0) -> _VarInfo:
        for scope in reversed(self.scopes):
            if name in scope:
                return scope[name]
        info = self._globals.get(name)
        if info is not None:
            return info
        decl = self.env.global_arrays.get(name)
        if decl is not None:
            info = self._globals[name] = _VarInfo(
                "garray", decl.type, dims=decl.dims,
                region=Region(RegionKind.GLOBAL, decl.name),
                base=self.layout[decl.name])
            return info
        raise self._error(f"undeclared identifier {name!r}", line)

    def _bounds_of(self, sym: str) -> Tuple[Optional[int], Optional[int]]:
        for frame in reversed(self.bounds_stack):
            if sym in frame:
                return frame[sym]
        return (None, None)

    # ------------------------------------------------------------------
    # conversions
    # ------------------------------------------------------------------

    def to_float(self, value: Value) -> Value:
        if value.type == FLOAT:
            return value
        if isinstance(value.operand, Constant):
            return Value(self._const(float(value.operand.value)), FLOAT)
        return Value(self._value_op(Opcode.I2F, [value.operand], FLOAT), FLOAT)

    def to_int(self, value: Value) -> Value:
        if value.type == INT:
            return value
        if isinstance(value.operand, Constant):
            return Value(self._const(int(value.operand.value)), INT)
        return Value(self._value_op(Opcode.F2I, [value.operand], INT), INT)

    def convert(self, value: Value, type_: str) -> Value:
        return self.to_float(value) if type_ == FLOAT else self.to_int(value)

    def _boolify(self, value: Value) -> Register:
        operand = value.operand
        if isinstance(operand, Register) and operand.type == BOOL:
            return operand
        if value.type == FLOAT:
            return self._value_op(Opcode.FCMP_NE,
                                  [operand, self._const(0.0)], BOOL)
        return self._value_op(Opcode.CMP_NE, [operand, self._const(0)], BOOL)

    # ------------------------------------------------------------------
    # call extraction
    # ------------------------------------------------------------------

    def _extract_calls(self, expr: Optional[ast.Expr]) -> Optional[ast.Expr]:
        """Hoist non-intrinsic calls out of *expr*, emitting TCall chains;
        returns the rewritten, call-free expression.  A subtree that
        holds no such call comes back as the same node, not a copy."""
        if expr is None or isinstance(expr, (ast.IntLit, ast.FloatLit,
                                             ast.VarRef)):
            return expr
        if isinstance(expr, ast.Unary):
            operand = self._extract_calls(expr.operand)
            if operand is expr.operand:
                return expr
            return ast.Unary(expr.line, expr.op, operand)
        if isinstance(expr, ast.Binary):
            left = self._extract_calls(expr.left)
            right = self._extract_calls(expr.right)
            if left is expr.left and right is expr.right:
                return expr
            return ast.Binary(expr.line, expr.op, left, right)
        if isinstance(expr, ast.Index):
            indices = self._extract_list(expr.indices)
            if indices is expr.indices:
                return expr
            return ast.Index(expr.line, expr.name, indices)
        if isinstance(expr, ast.Call):
            if expr.name in INTRINSICS:
                args = self._extract_list(expr.args)
                if args is expr.args:
                    return expr
                return ast.Call(expr.line, expr.name, args)
            return self._lower_call(expr)
        raise self._error(f"unsupported expression {type(expr).__name__}")

    def _extract_list(self, exprs: List[ast.Expr]) -> List[ast.Expr]:
        """:meth:`_extract_calls` over a list; *exprs* itself when no
        element changed."""
        rewritten = [self._extract_calls(each) for each in exprs]
        if all(new is old for new, old in zip(rewritten, exprs)):
            return exprs
        return rewritten

    def _lower_call(self, expr: ast.Call) -> ast.Expr:
        signature = self.env.signatures.get(expr.name)
        if signature is None:
            raise self._error(f"call to undeclared function {expr.name!r}",
                              expr.line)
        if len(expr.args) != len(signature.params):
            raise self._error(
                f"{expr.name} expects {len(signature.params)} args, got "
                f"{len(expr.args)}", expr.line)
        arg_operands: List[Operand] = []
        for arg, param in zip(expr.args, signature.params):
            if param.is_array:
                arg_operands.append(self._array_argument(arg, param))
            else:
                rewritten = self._extract_calls(arg)
                value = self.convert(self.lower_expr(rewritten), param.type)
                arg_operands.append(value.operand)
        dest: Optional[Register] = None
        replacement: ast.Expr = ast.IntLit(expr.line, 0)
        if signature.return_type is not None:
            info = self._declare_scalar(f"$call{self._call_count}",
                                        signature.return_type)
            self._call_count += 1
            dest = info.reg
            replacement = ast.VarRef(expr.line, f"$call{self._call_count - 1}")
        cont = self._new_block("ret")
        self._terminate(TCall(expr.name, tuple(arg_operands), dest,
                              cont.label))
        self._start(cont)
        return replacement

    def _array_argument(self, arg: ast.Expr, param: ast.Param) -> Operand:
        if not isinstance(arg, ast.VarRef):
            raise self._error(
                f"array parameter {param.name!r} requires an array name "
                f"argument", getattr(arg, "line", 0))
        info = self._lookup(arg.name, arg.line)
        if info.kind == "scalar":
            raise self._error(f"{arg.name!r} is a scalar, array expected",
                              arg.line)
        if info.type != param.type:
            raise self._error(
                f"array element type mismatch passing {arg.name!r}", arg.line)
        if info.kind == "parray":
            return info.reg
        return self._const(info.base)

    # ------------------------------------------------------------------
    # expressions (call-free after extraction)
    # ------------------------------------------------------------------

    def _expr(self, expr: ast.Expr) -> Value:
        return self.lower_expr(self._extract_calls(expr))

    def lower_expr(self, expr: ast.Expr) -> Value:
        if isinstance(expr, ast.IntLit):
            return Value(self._const(expr.value), INT, AffineExpr(expr.value))
        if isinstance(expr, ast.FloatLit):
            return Value(self._const(float(expr.value)), FLOAT)
        if isinstance(expr, ast.VarRef):
            return self._lower_varref(expr)
        if isinstance(expr, ast.Index):
            return self._lower_load(expr)
        if isinstance(expr, ast.Unary):
            return self._lower_unary(expr)
        if isinstance(expr, ast.Binary):
            return self._lower_binary(expr)
        if isinstance(expr, ast.Call):
            return self._lower_intrinsic(expr)
        raise self._error(f"unsupported expression {type(expr).__name__}")

    def _lower_varref(self, expr: ast.VarRef) -> Value:
        info = self._lookup(expr.name, expr.line)
        if info.kind == "scalar":
            affine = (AffineExpr(0, {info.sym: 1})
                      if info.type == INT else None)
            return Value(info.reg, info.type, affine)
        if info.kind == "parray":
            return Value(info.reg, INT)
        return Value(self._const(info.base), INT, AffineExpr(info.base))

    def _lower_intrinsic(self, expr: ast.Call) -> Value:
        if len(expr.args) != 1:
            raise self._error(f"{expr.name} expects one argument", expr.line)
        arg = self.to_float(self.lower_expr(expr.args[0]))
        opcode = _INTRINSIC_OPS[expr.name]
        return Value(self._value_op(opcode, [arg.operand], FLOAT), FLOAT)

    def _lower_unary(self, expr: ast.Unary) -> Value:
        value = self.lower_expr(expr.operand)
        if expr.op == "-":
            if isinstance(value.operand, Constant):
                folded = -value.operand.value
                return Value(self._const(folded), value.type,
                             value.affine.scale(-1) if value.affine else None)
            opcode = Opcode.FNEG if value.type == FLOAT else Opcode.NEG
            dest = self._value_op(opcode, [value.operand], value.type)
            return Value(dest, value.type,
                         value.affine.scale(-1) if value.affine else None)
        if expr.op == "!":
            cond = self._boolify(value)
            return Value(self._value_op(Opcode.NOT, [cond], BOOL), INT)
        raise self._error(f"unsupported unary {expr.op!r}", expr.line)

    def _lower_binary(self, expr: ast.Binary) -> Value:
        op = expr.op
        if op in ("&&", "||"):
            left = self._boolify(self.lower_expr(expr.left))
            right = self._boolify(self.lower_expr(expr.right))
            opcode = Opcode.AND if op == "&&" else Opcode.OR
            return Value(self._value_op(opcode, [left, right], BOOL), INT)
        left = self.lower_expr(expr.left)
        right = self.lower_expr(expr.right)
        is_float = left.type == FLOAT or right.type == FLOAT
        if op in _INT_CMPS:
            if is_float:
                lhs, rhs = self.to_float(left), self.to_float(right)
                opcode = _FLT_CMPS[op]
            else:
                lhs, rhs = left, right
                opcode = _INT_CMPS[op]
            if isinstance(lhs.operand, Constant) and isinstance(
                    rhs.operand, Constant):
                import operator as _op
                table = {"==": _op.eq, "!=": _op.ne, "<": _op.lt,
                         "<=": _op.le, ">": _op.gt, ">=": _op.ge}
                result = 1 if table[op](lhs.operand.value,
                                        rhs.operand.value) else 0
                return Value(self._const(result), INT, AffineExpr(result))
            return Value(self._value_op(opcode, [lhs.operand, rhs.operand],
                                        BOOL), INT)
        if op == "%" and is_float:
            raise self._error("float modulo unsupported", expr.line)
        if is_float:
            lhs, rhs = self.to_float(left), self.to_float(right)
            if isinstance(lhs.operand, Constant) and isinstance(
                    rhs.operand, Constant):
                a, b = lhs.operand.value, rhs.operand.value
                if op == "/" and b == 0:
                    raise self._error("constant division by zero", expr.line)
                folded = {"+": a + b, "-": a - b, "*": a * b,
                          "/": a / b if b else 0.0}[op]
                return Value(self._const(folded), FLOAT)
            return Value(self._value_op(_FLT_BINOPS[op],
                                        [lhs.operand, rhs.operand], FLOAT),
                         FLOAT)
        # integer arithmetic with affine tracking
        affine = self._affine_binary(op, left, right)
        if isinstance(left.operand, Constant) and isinstance(
                right.operand, Constant):
            a, b = left.operand.value, right.operand.value
            if op in ("/", "%") and b == 0:
                raise self._error("constant division by zero", expr.line)
            folded = {"+": a + b, "-": a - b, "*": a * b,
                      "/": _c_div(a, b) if b else 0,
                      "%": a - _c_div(a, b) * b if b else 0}[op]
            return Value(self._const(folded), INT, AffineExpr(folded))
        dest = self._value_op(_INT_BINOPS[op],
                              [left.operand, right.operand], INT)
        return Value(dest, INT, affine)

    @staticmethod
    def _affine_binary(op: str, left: Value, right: Value) \
            -> Optional[AffineExpr]:
        if left.affine is None or right.affine is None:
            return None
        if op == "+":
            return left.affine.add(right.affine)
        if op == "-":
            return left.affine.sub(right.affine)
        if op == "*":
            return left.affine.mul(right.affine)
        return None

    # ------------------------------------------------------------------
    # memory accesses
    # ------------------------------------------------------------------

    def _address(self, name: str, indices: List[ast.Expr], line: int) \
            -> Tuple[Operand, MemAccess, str]:
        info = self._lookup(name, line)
        if info.kind == "scalar":
            raise self._error(f"{name!r} is not an array", line)
        if info.kind == "parray":
            expected = 1 + len(info.dims)
        else:
            expected = len(info.dims)
        if len(indices) != expected:
            raise self._error(
                f"{name!r} expects {expected} subscripts, got {len(indices)}",
                line)
        index_values = [self.to_int(self.lower_expr(ix)) for ix in indices]
        if len(index_values) == 2:
            stride = info.dims[-1]
            scaled = self._int_arith("*", index_values[0],
                                     Value(self._const(stride), INT,
                                           AffineExpr(stride)))
            linear = self._int_arith("+", scaled, index_values[1])
        else:
            linear = index_values[0]
        if info.kind == "parray":
            base_value = Value(info.reg, INT)
        else:
            base_value = Value(self._const(info.base), INT,
                               AffineExpr(info.base))
        addr = self._int_arith("+", base_value, linear)
        subscript = linear.affine
        bounds = {}
        if subscript is not None:
            bounds = {sym: self._bounds_of(sym) for sym in subscript.coeffs}
        access = MemAccess(info.region, subscript, bounds)
        return addr.operand, access, info.type

    def _int_arith(self, op: str, left: Value, right: Value) -> Value:
        """Integer +/* with constant folding and affine tracking."""
        affine = self._affine_binary(op, left, right)
        if isinstance(left.operand, Constant) and isinstance(
                right.operand, Constant):
            a, b = left.operand.value, right.operand.value
            folded = a + b if op == "+" else a * b
            return Value(self._const(folded), INT, AffineExpr(folded))
        # x + 0 / x * 1 simplifications keep address code tight
        for this, other in ((left, right), (right, left)):
            if isinstance(other.operand, Constant):
                if op == "+" and other.operand.value == 0:
                    return Value(this.operand, INT, affine)
                if op == "*" and other.operand.value == 1:
                    return Value(this.operand, INT, affine)
        dest = self._value_op(_INT_BINOPS[op],
                              [left.operand, right.operand], INT)
        return Value(dest, INT, affine)

    def _lower_load(self, expr: ast.Index) -> Value:
        addr, access, elem_type = self._address(expr.name, expr.indices,
                                                expr.line)
        dest = self._value_op(Opcode.LOAD, [addr], elem_type, access=access)
        return Value(dest, elem_type)

    # ------------------------------------------------------------------
    # statements
    # ------------------------------------------------------------------

    def lower_stmts(self, stmts: List[ast.Stmt]) -> None:
        for stmt in stmts:
            self.lower_stmt(stmt)

    def lower_stmt(self, stmt: ast.Stmt) -> None:
        if isinstance(stmt, ast.DeclStmt):
            self._stmt_decl(stmt)
        elif isinstance(stmt, ast.ArrayDeclStmt):
            self._declare_local_array(stmt)
        elif isinstance(stmt, ast.Assign):
            self._stmt_assign(stmt)
        elif isinstance(stmt, ast.IndexAssign):
            self._stmt_index_assign(stmt)
        elif isinstance(stmt, ast.If):
            self._stmt_if(stmt)
        elif isinstance(stmt, ast.While):
            self._stmt_while(stmt)
        elif isinstance(stmt, ast.For):
            self._stmt_for(stmt)
        elif isinstance(stmt, ast.Return):
            self._stmt_return(stmt)
        elif isinstance(stmt, ast.Print):
            value = self._expr(stmt.value)
            self._emit(Opcode.PRINT, [value.operand])
        elif isinstance(stmt, ast.ExprStmt):
            rewritten = self._extract_calls(stmt.expr)
            if not isinstance(rewritten, (ast.IntLit, ast.VarRef)):
                self.lower_expr(rewritten)  # evaluate for errors; discard
        elif isinstance(stmt, ast.Block):
            self.scopes.append({})
            self.lower_stmts(stmt.body)
            self.scopes.pop()
        else:
            raise self._error(f"unsupported statement {type(stmt).__name__}",
                              stmt.line)

    def _assign_to(self, info: _VarInfo, value: Value) -> None:
        converted = self.convert(value, info.type)
        opcode = Opcode.FMOV if info.type == FLOAT else Opcode.MOV
        self._emit(opcode, [converted.operand], dest=info.reg)

    def _stmt_decl(self, stmt: ast.DeclStmt) -> None:
        info = self._declare_scalar(stmt.name, stmt.type)
        if stmt.init is not None:
            self._assign_to(info, self._expr(stmt.init))

    def _stmt_assign(self, stmt: ast.Assign) -> None:
        value = self._expr(stmt.value)
        info = self._lookup(stmt.name, stmt.line)
        if info.kind != "scalar":
            raise self._error(f"cannot assign to array {stmt.name!r}",
                              stmt.line)
        self._assign_to(info, value)

    def _stmt_index_assign(self, stmt: ast.IndexAssign) -> None:
        value_expr = self._extract_calls(stmt.value)
        index_exprs = [self._extract_calls(ix) for ix in stmt.indices]
        info = self._lookup(stmt.name, stmt.line)
        if info.kind == "scalar":
            raise self._error(f"{stmt.name!r} is not an array", stmt.line)
        value = self.convert(self.lower_expr(value_expr), info.type)
        addr, access, _elem = self._address(stmt.name, index_exprs, stmt.line)
        self._emit(Opcode.STORE, [value.operand, addr], access=access)

    def _branch_on(self, cond: Optional[ast.Expr], true_block: CFGBlock,
                   false_block: CFGBlock) -> None:
        """Terminate the current block on *cond* (None means 'true')."""
        if cond is None:
            self._terminate(TJump(true_block.label))
            return
        value = self._expr(cond)
        if isinstance(value.operand, Constant):
            target = true_block if value.operand.value else false_block
            self._terminate(TJump(target.label))
            return
        self._terminate(TBranch(self._boolify(value), true_block.label,
                                false_block.label))

    def _stmt_if(self, stmt: ast.If) -> None:
        then_block = self._new_block("then")
        join_block = self._new_block("join")
        else_block = self._new_block("else") if stmt.else_body else join_block
        self._branch_on(stmt.cond, then_block, else_block)
        self._start(then_block)
        self.scopes.append({})
        self.lower_stmts(stmt.then_body)
        self.scopes.pop()
        self._terminate(TJump(join_block.label))
        if stmt.else_body:
            self._start(else_block)
            self.scopes.append({})
            self.lower_stmts(stmt.else_body)
            self.scopes.pop()
            self._terminate(TJump(join_block.label))
        self._start(join_block)

    def _stmt_while(self, stmt: ast.While) -> None:
        header = self._new_block("while")
        body = self._new_block("body")
        exit_block = self._new_block("endwhile")
        self._terminate(TJump(header.label))
        self._start(header)
        self._branch_on(stmt.cond, body, exit_block)
        self._start(body)
        self.scopes.append({})
        self.lower_stmts(stmt.body)
        self.scopes.pop()
        self._terminate(TJump(header.label))
        self._start(exit_block)

    def _stmt_for(self, stmt: ast.For) -> None:
        self.scopes.append({})
        if stmt.init is not None:
            self.lower_stmt(stmt.init)
        header = self._new_block("for")
        body = self._new_block("body")
        exit_block = self._new_block("endfor")
        self._terminate(TJump(header.label))
        self._start(header)
        self._branch_on(stmt.cond, body, exit_block)
        self._start(body)
        bounds = self._loop_bounds(stmt)
        self.bounds_stack.append(bounds)
        self.scopes.append({})
        self.lower_stmts(stmt.body)
        self.scopes.pop()
        if stmt.step is not None:
            self.lower_stmt(stmt.step)
        self.bounds_stack.pop()
        self._terminate(TJump(header.label))
        self.scopes.pop()
        self._start(exit_block)

    def _loop_bounds(self, stmt: ast.For) -> Dict[str, Tuple[int, int]]:
        """Constant bounds of the canonical loop shapes, for Banerjee.

        Recognises ``for (i = c0; i <OP> c1; i = i +/- k)`` with constant
        c0/c1/k and a body that never reassigns ``i``.
        """
        init = stmt.init
        if isinstance(init, ast.DeclStmt) and isinstance(init.init, ast.IntLit):
            var, start = init.name, init.init.value
        elif isinstance(init, ast.Assign) and isinstance(init.value, ast.IntLit):
            var, start = init.name, init.value.value
        else:
            return {}
        cond = stmt.cond
        if not (isinstance(cond, ast.Binary)
                and isinstance(cond.left, ast.VarRef)
                and cond.left.name == var
                and isinstance(cond.right, ast.IntLit)
                and cond.op in ("<", "<=", ">", ">=")):
            return {}
        limit = cond.right.value
        step = stmt.step
        if not (isinstance(step, ast.Assign) and step.name == var
                and isinstance(step.value, ast.Binary)
                and step.value.op in ("+", "-")
                and isinstance(step.value.left, ast.VarRef)
                and step.value.left.name == var
                and isinstance(step.value.right, ast.IntLit)):
            return {}
        delta = step.value.right.value
        if step.value.op == "-":
            delta = -delta
        if self._assigns_var(stmt.body, var):
            return {}
        if delta > 0 and cond.op in ("<", "<="):
            low, high = start, limit if cond.op == "<=" else limit - 1
        elif delta < 0 and cond.op in (">", ">="):
            low, high = (limit if cond.op == ">=" else limit + 1), start
        else:
            return {}
        if low > high:
            return {}
        info = self._lookup(var)
        return {info.sym: (low, high)}

    @classmethod
    def _assigns_var(cls, stmts: List[ast.Stmt], name: str) -> bool:
        for stmt in stmts:
            if isinstance(stmt, (ast.Assign, ast.DeclStmt)) \
                    and stmt.name == name:
                return True
            for attr in ("body", "then_body", "else_body"):
                if cls._assigns_var(getattr(stmt, attr, []), name):
                    return True
            init = getattr(stmt, "init", None)
            step = getattr(stmt, "step", None)
            for inner in (init, step):
                if isinstance(inner, ast.Stmt) \
                        and cls._assigns_var([inner], name):
                    return True
        return False

    def _default_return(self) -> Optional[Operand]:
        if self.func.return_type is None:
            return None
        return self._const(0.0 if self.func.return_type == FLOAT else 0)

    def _stmt_return(self, stmt: ast.Return) -> None:
        if stmt.value is None:
            value_operand = self._default_return()
        else:
            if self.func.return_type is None:
                raise self._error("void function returns a value", stmt.line)
            value = self.convert(self._expr(stmt.value),
                                 self.func.return_type)
            value_operand = value.operand
        self._terminate(TReturn(value_operand))
        self._start(self._new_block("dead"))

    # ------------------------------------------------------------------

    def lower(self) -> FunctionCFG:
        self.lower_stmts(self.func.body)
        for block in self.cfg.blocks.values():
            if block.term is None:
                block.term = TReturn(self._default_return())
        for name, (elem, dims) in self.env.local_arrays[self.func.name].items():
            self.cfg.local_arrays.append(ArrayDecl(name, elem, dims))
        return self.cfg


def lower_function(func: ast.FuncDecl, env: ProgramEnv,
                   layout: Dict[str, int]) -> FunctionCFG:
    """Lower one function's AST into a CFG."""
    return _FunctionLowerer(func, env, layout).lower()
