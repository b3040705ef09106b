"""Symbolic machine state: registers and byte-granular memory as terms.

The region validator executes the before/after instruction sequences of
a rewrite witness over a :class:`SymState` whose registers start as free
symbols and whose memory is an initially-unknown byte store.  Both
executions mint *structurally identical* symbols for identical initial
quantities (``Sym(("r", 3))``, ``Sym(("m", base, off))``), so two states
are equivalent exactly when their terms prove equal pairwise.

Aliasing discipline: an address splits into ``(base term, constant
offset)``; distinct base terms are assumed to address disjoint objects.
That matches the assumption every Merlin bytecode pass already makes
(`r10` never aliases another live pointer unless it visibly escapes,
which the passes bail on), so the validator is exactly as strong as the
claims it has to check.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ..isa import Instruction
from ..isa import opcodes as op
from .expr import Const, Expr, Op, Sym, const, expr_size, mkop

_U64 = (1 << 64) - 1
_U32 = (1 << 32) - 1

#: per-term growth bound: a register/byte term larger than this sends
#: the run to the concrete tier.  Loops that fold a register into
#: itself double the term every iteration, so without a bound the
#: downstream equality/normalization work explodes on exactly the
#: programs worth validating.
TERM_CAP = 1 << 14

class Unsupported(Exception):
    """An instruction outside the symbolic executor's fragment.

    Region checking treats this as "cannot certify symbolically", never
    as a failure: control transfers, calls and atomics fall back to the
    concrete tier.
    """


def _trunc32(expr: Expr) -> Expr:
    return mkop("and", 64, expr, Const(_U32))


def initial_reg(index: int) -> Sym:
    return Sym(("r", index))


def initial_byte(base: Expr, off: int) -> Sym:
    return Sym(("m", base, off))


def split_addr(addr: Expr) -> Tuple[Expr, int]:
    """Split a normalized address term into (base, constant offset)."""
    if (isinstance(addr, Op) and addr.op == "add" and addr.bits == 64
            and isinstance(addr.args[1], Const)):
        return addr.args[0], addr.args[1].value
    if isinstance(addr, Const):
        return Const(0), addr.value
    return addr, 0


class SymState:
    """Registers + written-memory-bytes, all as expression terms."""

    def __init__(self) -> None:
        self.regs: List[Expr] = [initial_reg(i) for i in range(11)]
        #: (base term, u64 offset) -> byte term; holds *writes* only —
        #: an absent key still denotes its initial symbol
        self.memory: Dict[Tuple[Expr, int], Expr] = {}

    # ------------------------------------------------------------ memory
    def read_byte(self, base: Expr, off: int) -> Expr:
        key = (base, off & _U64)
        got = self.memory.get(key)
        if got is not None:
            return got
        return initial_byte(key[0], key[1])

    def write_byte(self, base: Expr, off: int, value: Expr) -> None:
        if expr_size(value) > TERM_CAP:
            raise Unsupported(
                f"term for mem[{base}+{off:#x}] exceeds the "
                f"{TERM_CAP}-node cap")
        self.memory[(base, off & _U64)] = value

    def load(self, base: Expr, off: int, size: int) -> Expr:
        """Little-endian combine of *size* bytes starting at (base, off)."""
        value: Expr = self.read_byte(base, off)
        for i in range(1, size):
            value = mkop("or", 64,
                         value,
                         mkop("lsh", 64, self.read_byte(base, off + i),
                              Const(8 * i)))
        return value

    def store(self, base: Expr, off: int, size: int, value: Expr) -> None:
        for i in range(size):
            self.write_byte(base, off + i,
                            mkop("byte", 64, value, Const(i)))

    # --------------------------------------------------------------- step
    def step(self, insn: Instruction) -> None:
        """Execute one straightline instruction symbolically.

        Builds the terms whose evaluation is the VM's step (both read
        :mod:`repro.isa.semantics`); raises :class:`Unsupported` for
        control transfers, calls, atomics, and terms past
        :data:`TERM_CAP`.
        """
        self._step(insn)
        if insn.is_alu and expr_size(self.regs[insn.dst]) > TERM_CAP:
            raise Unsupported(
                f"term for r{insn.dst} exceeds the {TERM_CAP}-node cap")

    def _step(self, insn: Instruction) -> None:
        if insn.is_ld_imm64:
            # the VM loads the raw immediate for plain and map-fd forms
            self.regs[insn.dst] = const(insn.imm)
            return
        if insn.is_alu:
            self._alu(insn)
            return
        if insn.is_load:
            base, off = split_addr(self.regs[insn.src])
            self.regs[insn.dst] = self.load(base, off + insn.off,
                                            insn.size_bytes)
            return
        if insn.is_atomic:
            self._atomic(insn)
            return
        if insn.is_store:
            base, off = split_addr(self.regs[insn.dst])
            if insn.is_store_imm:
                value: Expr = const(insn.imm)
            else:
                value = self.regs[insn.src]
            self.store(base, off + insn.off, insn.size_bytes, value)
            return
        raise Unsupported(f"cannot execute symbolically: {insn}")

    def _atomic(self, insn: Instruction) -> None:
        if insn.imm == op.BPF_CMPXCHG:
            raise Unsupported("cmpxchg needs a conditional term")
        base, off = split_addr(self.regs[insn.dst])
        size = insn.size_bytes
        old = self.load(base, off + insn.off, size)
        operand = mkop("and", 64, self.regs[insn.src],
                       Const((1 << (size * 8)) - 1))
        aop = insn.imm & ~op.BPF_FETCH
        if insn.imm == op.BPF_XCHG:
            new = operand
        elif aop in op.ATOMIC_ALU_OPS:
            new = mkop(op.ALU_OP_NAMES[aop], 64, old, operand)
        else:
            raise Unsupported(f"unsupported atomic {insn.imm:#x}")
        self.store(base, off + insn.off, size, new)
        if insn.imm & op.BPF_FETCH:
            self.regs[insn.src] = old

    def _alu(self, insn: Instruction) -> None:
        bits = 32 if insn.is_alu32 else 64
        aop = insn.alu_op
        dst = self.regs[insn.dst]
        if insn.uses_imm:
            operand: Expr = const(insn.imm)
        else:
            operand = self.regs[insn.src]

        if aop == op.BPF_MOV:
            result = operand if bits == 64 else _trunc32(operand)
        elif aop == op.BPF_NEG:
            result = mkop("neg", bits, dst)
        elif aop == op.BPF_END:
            # in either class, END swaps the low imm bits of the 64-bit
            # register and zero-extends the result: to-LE/to-BE in the
            # 32-bit class, unconditionally in the 64-bit one, whose
            # to-BE is reserved
            if insn.imm not in (16, 32, 64) or \
                    bits == 64 and not insn.uses_imm:
                raise Unsupported(f"reserved END {insn.opcode:#x} "
                                  f"imm {insn.imm}")
            swap = bits == 64 or not insn.uses_imm
            result = mkop("be" if swap else "le", insn.imm, dst)
        else:
            name = op.ALU_OP_NAMES.get(aop)
            if name is None:
                raise Unsupported(f"unknown ALU op {aop:#x}")
            result = mkop(name, bits, dst, operand)
        self.regs[insn.dst] = result


def run_region(insns: List[Instruction]) -> SymState:
    """Execute a straightline instruction list from the initial state."""
    state = SymState()
    for insn in insns:
        state.step(insn)
    return state
