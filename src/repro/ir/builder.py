"""Fluent construction of decision trees, used by tests and examples.

The frontend builds IR through the same interface, which keeps op-id
assignment and register typing in one place.
"""

from __future__ import annotations

from typing import Optional, Sequence, Union

from .guards import Guard
from .memory import MemAccess
from .operations import NO_PATH, Opcode, Operation, PathLiterals
from .tree import DecisionTree, ExitKind, TreeExit
from .values import BOOL, FLOAT, INT, Constant, Operand, Register

__all__ = ["TreeBuilder"]

_RESULT_TYPE = {
    Opcode.FADD: FLOAT, Opcode.FSUB: FLOAT, Opcode.FMUL: FLOAT,
    Opcode.FDIV: FLOAT, Opcode.FNEG: FLOAT, Opcode.FMOV: FLOAT,
    Opcode.I2F: FLOAT, Opcode.FSQRT: FLOAT, Opcode.FSIN: FLOAT,
    Opcode.FCOS: FLOAT, Opcode.FABS: FLOAT,
    Opcode.CMP_EQ: BOOL, Opcode.CMP_NE: BOOL, Opcode.CMP_LT: BOOL,
    Opcode.CMP_LE: BOOL, Opcode.CMP_GT: BOOL, Opcode.CMP_GE: BOOL,
    Opcode.FCMP_EQ: BOOL, Opcode.FCMP_NE: BOOL, Opcode.FCMP_LT: BOOL,
    Opcode.FCMP_LE: BOOL, Opcode.FCMP_GT: BOOL, Opcode.FCMP_GE: BOOL,
    Opcode.AND: BOOL, Opcode.ANDN: BOOL, Opcode.OR: BOOL,
    Opcode.XOR: BOOL, Opcode.NOT: BOOL,
}


def _as_operand(value: Union[Operand, int, float]) -> Operand:
    if isinstance(value, (Register, Constant)):
        return value
    return Constant(value)


class TreeBuilder:
    """Builds a :class:`DecisionTree` one operation at a time."""

    def __init__(self, name: str):
        self.tree = DecisionTree(name)
        self._guard: Optional[Guard] = None
        self._path: PathLiterals = NO_PATH

    # -- context -----------------------------------------------------------

    def set_guard(self, guard: Optional[Guard],
                  path: Optional[PathLiterals] = None) -> None:
        """Guard every subsequently emitted side-effect/variable write.

        ``path`` sets the path literals attached to subsequent ops; when
        None it is derived from the guard itself.
        """
        self._guard = guard
        if path is not None:
            self._path = path
        elif guard is None:
            self._path = NO_PATH
        else:
            self._path = frozenset({(guard.reg.name, not guard.negate)})

    # -- emission ------------------------------------------------------------

    def emit(
        self,
        opcode: Opcode,
        srcs: Sequence[Union[Operand, int, float]] = (),
        dest: Optional[Register] = None,
        guard: Optional[Guard] = None,
        access: Optional[MemAccess] = None,
        speculated: bool = False,
    ) -> Operation:
        """Append an operation; return it.

        The current guard context applies unless the op is explicitly
        ``speculated`` (side-effect-free, renamed destination) or an
        explicit ``guard`` overrides it.
        """
        effective_guard = guard if guard is not None else self._guard
        if speculated:
            effective_guard = guard
        op = Operation(
            op_id=self.tree.fresh_op_id(),
            opcode=opcode,
            dest=dest,
            srcs=tuple(_as_operand(s) for s in srcs),
            guard=effective_guard,
            path_literals=NO_PATH if speculated else self._path,
            access=access,
        )
        self.tree.append(op)
        return op

    def value(
        self,
        opcode: Opcode,
        srcs: Sequence[Union[Operand, int, float]],
        type_: Optional[str] = None,
        access: Optional[MemAccess] = None,
        speculated: bool = True,
    ) -> Register:
        """Emit a value-producing op into a fresh temporary; return it.

        Pure computations default to *speculated* (unguarded) placement,
        matching the paper's model where only side effects need guards.
        """
        result_type = type_ or _RESULT_TYPE.get(opcode, INT)
        dest = self.tree.fresh_register(result_type)
        self.emit(opcode, srcs, dest=dest, speculated=speculated, access=access)
        return dest

    # -- common idioms -------------------------------------------------------

    def load(self, addr: Union[Operand, int], type_: str = INT,
             access: Optional[MemAccess] = None) -> Register:
        return self.value(Opcode.LOAD, [addr], type_=type_, access=access)

    def store(self, value: Union[Operand, int, float], addr: Union[Operand, int],
              access: Optional[MemAccess] = None,
              guard: Optional[Guard] = None) -> Operation:
        return self.emit(Opcode.STORE, [value, addr], access=access, guard=guard)

    def assign(self, dest: Register, value: Union[Operand, int, float]) -> Operation:
        """Write a variable register (guarded by the current context)."""
        opcode = Opcode.FMOV if dest.type == FLOAT else Opcode.MOV
        return self.emit(opcode, [value], dest=dest)

    # -- exits -----------------------------------------------------------------

    def goto(self, target: str, guard: Optional[Guard] = None,
             path: Optional[PathLiterals] = None) -> TreeExit:
        return self._exit(TreeExit(
            kind=ExitKind.GOTO, guard=guard, target=target,
            path_literals=self._exit_path(guard, path)))

    def call(self, callee: str, args: Sequence[Union[Operand, int, float]],
             target: str, result: Optional[Register] = None,
             guard: Optional[Guard] = None,
             path: Optional[PathLiterals] = None) -> TreeExit:
        return self._exit(TreeExit(
            kind=ExitKind.CALL, guard=guard, target=target, callee=callee,
            args=tuple(_as_operand(a) for a in args), result=result,
            path_literals=self._exit_path(guard, path)))

    def ret(self, value: Optional[Union[Operand, int, float]] = None,
            guard: Optional[Guard] = None,
            path: Optional[PathLiterals] = None) -> TreeExit:
        operand = None if value is None else _as_operand(value)
        return self._exit(TreeExit(
            kind=ExitKind.RETURN, guard=guard, value=operand,
            path_literals=self._exit_path(guard, path)))

    def halt(self, guard: Optional[Guard] = None,
             path: Optional[PathLiterals] = None) -> TreeExit:
        return self._exit(TreeExit(kind=ExitKind.HALT, guard=guard,
                                   path_literals=self._exit_path(guard, path)))

    def _exit_path(self, guard: Optional[Guard],
                   path: Optional[PathLiterals]) -> PathLiterals:
        if path is not None:
            return path
        if guard is None:
            return self._path
        return self._path | {(guard.reg.name, not guard.negate)}

    def _exit(self, exit_: TreeExit) -> TreeExit:
        self.tree.exits.append(exit_)
        return exit_
