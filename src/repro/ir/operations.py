"""Operations of the decision-tree IR.

The operation set mirrors what the LIFE universal functional units
execute: integer/float ALU operations, compares, loads and stores — all
guardable.  Branches are not operations; control flow lives in the
:class:`~repro.ir.tree.TreeExit` records of a decision tree.

Opcode *categories* drive the latency model of Table 6-1:

=====================  =======================
category               latency (cycles)
=====================  =======================
integer multiply       3
integer/float divide   7
float compare          1
other ALU              1
other FPU              3
load/store             2 or 6 (configuration)
branch (tree exits)    2
=====================  =======================
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from typing import Optional, Tuple

from .frozen import slotted
from .guards import Guard
from .memory import MemAccess
from .values import Operand, Register

__all__ = ["Opcode", "OpCategory", "Operation", "PathLiterals", "NO_PATH",
           "opcode_category"]


class OpCategory(enum.Enum):
    """Latency class of an opcode (paper Table 6-1)."""

    INT_MUL = "int_mul"
    DIVIDE = "divide"
    FP_COMPARE = "fp_compare"
    ALU = "alu"
    FPU = "fpu"
    MEMORY = "memory"


class Opcode(enum.Enum):
    """The instruction set understood by the simulator and schedulers."""

    # members are singletons that compare by identity, so they hash by
    # it too: Enum.__hash__ hashes the member name in Python, and
    # opcode-keyed lookups run on every op the engines touch
    __hash__ = object.__hash__

    # integer ALU
    ADD = "add"
    SUB = "sub"
    MUL = "mul"
    DIV = "div"
    MOD = "mod"
    NEG = "neg"
    AND = "and"
    ANDN = "andn"  # a AND NOT b: guard-conjunction helper
    OR = "or"
    XOR = "xor"
    NOT = "not"
    SHL = "shl"
    SHR = "shr"
    MOV = "mov"
    SELECT = "select"  # dst = src0 ? src1 : src2
    # integer compares
    CMP_EQ = "cmp_eq"
    CMP_NE = "cmp_ne"
    CMP_LT = "cmp_lt"
    CMP_LE = "cmp_le"
    CMP_GT = "cmp_gt"
    CMP_GE = "cmp_ge"
    # float ALU
    FADD = "fadd"
    FSUB = "fsub"
    FMUL = "fmul"
    FDIV = "fdiv"
    FNEG = "fneg"
    FMOV = "fmov"
    I2F = "i2f"
    F2I = "f2i"
    # float transcendental / builtin helpers (FPU latency class)
    FSQRT = "fsqrt"
    FSIN = "fsin"
    FCOS = "fcos"
    FABS = "fabs"
    # float compares
    FCMP_EQ = "fcmp_eq"
    FCMP_NE = "fcmp_ne"
    FCMP_LT = "fcmp_lt"
    FCMP_LE = "fcmp_le"
    FCMP_GT = "fcmp_gt"
    FCMP_GE = "fcmp_ge"
    # memory
    LOAD = "load"
    STORE = "store"
    # observable output (serialised side effect, never reordered
    # against other PRINTs; latency class ALU)
    PRINT = "print"


_CATEGORY = {
    Opcode.MUL: OpCategory.INT_MUL,
    Opcode.DIV: OpCategory.DIVIDE,
    Opcode.MOD: OpCategory.DIVIDE,
    Opcode.FDIV: OpCategory.DIVIDE,
    Opcode.FADD: OpCategory.FPU,
    Opcode.FSUB: OpCategory.FPU,
    Opcode.FMUL: OpCategory.FPU,
    Opcode.FNEG: OpCategory.FPU,
    Opcode.FMOV: OpCategory.FPU,
    Opcode.I2F: OpCategory.FPU,
    Opcode.F2I: OpCategory.FPU,
    Opcode.FSQRT: OpCategory.FPU,
    Opcode.FSIN: OpCategory.FPU,
    Opcode.FCOS: OpCategory.FPU,
    Opcode.FABS: OpCategory.FPU,
    Opcode.FCMP_EQ: OpCategory.FP_COMPARE,
    Opcode.FCMP_NE: OpCategory.FP_COMPARE,
    Opcode.FCMP_LT: OpCategory.FP_COMPARE,
    Opcode.FCMP_LE: OpCategory.FP_COMPARE,
    Opcode.FCMP_GT: OpCategory.FP_COMPARE,
    Opcode.FCMP_GE: OpCategory.FP_COMPARE,
    Opcode.LOAD: OpCategory.MEMORY,
    Opcode.STORE: OpCategory.MEMORY,
}


def opcode_category(opcode: Opcode) -> OpCategory:
    """The Table 6-1 latency class of *opcode*."""
    return _CATEGORY.get(opcode, OpCategory.ALU)


_COMMUTATIVE = frozenset(
    {Opcode.ADD, Opcode.MUL, Opcode.AND, Opcode.OR, Opcode.XOR,
     Opcode.FADD, Opcode.FMUL, Opcode.CMP_EQ, Opcode.CMP_NE,
     Opcode.FCMP_EQ, Opcode.FCMP_NE}
)


#: Branch literals accumulated by if-conversion: a frozenset of
#: ``(register_name, polarity)`` pairs describing on which paths through
#: the decision tree an operation (or exit) lies.  Speculative
#: disambiguation's compare results are *not* path literals — both code
#: versions occupy every path's schedule.
PathLiterals = frozenset

#: The empty path-literal set.  Root-block and speculated operations
#: and exits all share this one object, so a pickled artifact stores
#: (and a loaded one holds) a single empty set rather than one each.
NO_PATH: PathLiterals = frozenset()


@slotted
@dataclass(frozen=True)
class Operation:
    """One guarded IR operation.

    Attributes
    ----------
    op_id:
        Identifier unique within the enclosing decision tree; stable
        across disambiguation passes that do not rewrite the tree, which
        is what lets profile data collected on the base program be keyed
        back to operations.
    guard:
        Conditional-execution guard; None means always commit.
    path_literals:
        Branch literals of the basic block this operation came from
        (empty for root-block and speculated operations).
    access:
        Static knowledge about a LOAD/STORE address (None otherwise).
    """

    op_id: int
    opcode: Opcode
    dest: Optional[Register] = None
    srcs: Tuple[Operand, ...] = ()
    guard: Optional[Guard] = None
    path_literals: PathLiterals = NO_PATH
    access: Optional[MemAccess] = None

    # -- classification ---------------------------------------------------

    @property
    def category(self) -> OpCategory:
        return opcode_category(self.opcode)

    @property
    def is_memory(self) -> bool:
        # identity tests: a frozenset lookup hashes the enum member, and
        # these predicates run on every op of every graph build
        opcode = self.opcode
        return opcode is Opcode.LOAD or opcode is Opcode.STORE

    @property
    def is_load(self) -> bool:
        return self.opcode is Opcode.LOAD

    @property
    def is_store(self) -> bool:
        return self.opcode is Opcode.STORE

    @property
    def is_print(self) -> bool:
        return self.opcode is Opcode.PRINT

    @property
    def has_side_effect(self) -> bool:
        """True for operations that modify state outside the register
        file (paper Section 4.1: only stores — and, here, PRINTs)."""
        opcode = self.opcode
        return opcode is Opcode.STORE or opcode is Opcode.PRINT

    @property
    def is_commutative(self) -> bool:
        return self.opcode in _COMMUTATIVE

    # -- operand views -----------------------------------------------------

    @property
    def address(self) -> Operand:
        """Address operand of a LOAD/STORE."""
        if self.opcode is Opcode.LOAD:
            return self.srcs[0]
        if self.opcode is Opcode.STORE:
            return self.srcs[1]
        raise TypeError(f"{self.opcode} has no address operand")

    @property
    def store_value(self) -> Operand:
        """Value operand of a STORE."""
        if self.opcode is not Opcode.STORE:
            raise TypeError(f"{self.opcode} has no store value")
        return self.srcs[0]

    def source_registers(self) -> Tuple[Register, ...]:
        """All registers read, including the guard register."""
        regs = [src for src in self.srcs if isinstance(src, Register)]
        if self.guard is not None:
            regs.append(self.guard.reg)
        return tuple(regs)

    def data_source_registers(self) -> Tuple[Register, ...]:
        """Registers read as data operands (guard excluded)."""
        return tuple(src for src in self.srcs if isinstance(src, Register))

    # -- rewriting helpers -------------------------------------------------

    def with_guard(self, guard: Optional[Guard]) -> "Operation":
        return replace(self, guard=guard)

    def with_dest(self, dest: Optional[Register]) -> "Operation":
        return replace(self, dest=dest)

    def with_srcs(self, srcs: Tuple[Operand, ...]) -> "Operation":
        return replace(self, srcs=srcs)

    def with_id(self, op_id: int) -> "Operation":
        return replace(self, op_id=op_id)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        guard = f" {self.guard!r}" if self.guard else ""
        dest = f"{self.dest!r} = " if self.dest else ""
        srcs = ", ".join(repr(s) for s in self.srcs)
        return f"<{self.op_id}:{guard} {dest}{self.opcode.value} {srcs}>"
