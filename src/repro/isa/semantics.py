"""eBPF's concrete semantics: what an ALU operation, a jump condition
and a byte swap compute.

This is the one definition of eBPF arithmetic.  The VM executes it,
translation validation evaluates its terms with it, and the
superoptimizer, the verifier and IR constant propagation fold constants
with it; each caller keeps only its own policy (which operations it
folds or decides, and how it reports one the ISA leaves undefined).
:func:`fits_imm32` is the one test of whether a value can be an
instruction's sign-extended 32-bit immediate; instruction selection and
every pass that makes an immediate ask it.

Values are unsigned integers of the operation width *bits*: callers
truncate register values and sign-extend immediates to that width
before the call, and every result is again a *bits*-wide unsigned
integer.  As in the kernel's instruction-set specification
(Documentation/bpf/standardization/instruction-set.rst), division by
zero gives 0, modulo by zero keeps the dividend, and a shift amount is
taken modulo the width.
"""

from __future__ import annotations

from typing import Optional

from .opcodes import (
    BPF_ADD, BPF_AND, BPF_ARSH, BPF_DIV, BPF_JEQ, BPF_JGE, BPF_JGT, BPF_JLE,
    BPF_JLT, BPF_JNE, BPF_JSET, BPF_JSGE, BPF_JSGT, BPF_JSLE, BPF_JSLT,
    BPF_LSH, BPF_MOD, BPF_MOV, BPF_MUL, BPF_NEG, BPF_OR, BPF_RSH, BPF_SUB,
    BPF_XOR,
)


#: the all-ones value of every width up to 64 bits, read by index so an
#: ALU step builds no mask
_MASKS = tuple((1 << bits) - 1 for bits in range(65))


def signed(value: int, bits: int) -> int:
    """*value*, an unsigned *bits*-wide integer, read as two's complement."""
    return value - (1 << bits) if value >> (bits - 1) else value


def fits_imm32(value: int) -> bool:
    """Whether the signed integer *value* fits an instruction's 32-bit
    immediate, which the ALU64, JMP and store classes sign-extend."""
    return -(1 << 31) <= value < (1 << 31)


def alu(aop: int, value: int, operand: int, bits: int) -> Optional[int]:
    """``value <aop> operand`` at *bits* width, for the ALU operation
    code *aop* (``opcode & 0xf0``).  NEG ignores *operand*.

    None for END, which :func:`bswap` computes, and for the undefined
    codes 0xe0 and 0xf0."""
    mask = _MASKS[bits]
    if aop == BPF_MOV:
        return operand
    if aop == BPF_ADD:
        return (value + operand) & mask
    if aop == BPF_LSH:
        return (value << (operand % bits)) & mask
    if aop == BPF_RSH:
        return value >> (operand % bits)
    if aop == BPF_AND:
        return value & operand
    if aop == BPF_OR:
        return value | operand
    if aop == BPF_SUB:
        return (value - operand) & mask
    if aop == BPF_XOR:
        return value ^ operand
    if aop == BPF_MUL:
        return (value * operand) & mask
    if aop == BPF_ARSH:
        return (signed(value, bits) >> (operand % bits)) & mask
    if aop == BPF_DIV:
        return value // operand if operand else 0
    if aop == BPF_MOD:
        return value % operand if operand else value
    if aop == BPF_NEG:
        return -value & mask
    return None


def condition(jop: int, lhs: int, rhs: int, bits: int) -> Optional[bool]:
    """Whether the conditional jump *jop* (``opcode & 0xf0``) is taken
    for the *bits*-wide operands *lhs* and *rhs*.

    None for an operation that is not a condition (JA, CALL, EXIT) and
    for the undefined codes 0xe0 and 0xf0."""
    if jop == BPF_JEQ:
        return lhs == rhs
    if jop == BPF_JNE:
        return lhs != rhs
    if jop == BPF_JGT:
        return lhs > rhs
    if jop == BPF_JGE:
        return lhs >= rhs
    if jop == BPF_JLT:
        return lhs < rhs
    if jop == BPF_JLE:
        return lhs <= rhs
    if jop == BPF_JSET:
        return bool(lhs & rhs)
    if jop == BPF_JSGT:
        return signed(lhs, bits) > signed(rhs, bits)
    if jop == BPF_JSGE:
        return signed(lhs, bits) >= signed(rhs, bits)
    if jop == BPF_JSLT:
        return signed(lhs, bits) < signed(rhs, bits)
    if jop == BPF_JSLE:
        return signed(lhs, bits) <= signed(rhs, bits)
    return None


def bswap(value: int, width: int, big: bool) -> int:
    """END: the low *width* bits (16, 32 or 64, the instruction's
    immediate) of the 64-bit register *value*, converted from host
    (little-endian) order to big-endian if *big*, else to little-endian
    (no swap), and zero-extended.  The rule holds in either ALU class;
    ``be64`` reverses all eight bytes and ``le64`` keeps the register."""
    data = (value & ((1 << width) - 1)).to_bytes(width // 8, "little")
    return int.from_bytes(data, "big" if big else "little")
