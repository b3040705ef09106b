"""Pure matchers for the rewrite idioms more than one optimizer applies.

Each takes adjacent instructions and returns the replacement, or None
when they do not match; none consumes randomness or checks liveness
(the caller's prover or oracle owns that).  Code compaction applies
:func:`collapse_shift_pair`, and the superoptimizer's enumeration and
K2's proposal moves (:mod:`repro.baselines.search`) try all three.
"""

from __future__ import annotations

from typing import Optional

from ...isa import Instruction
from ...isa import instruction as ins
from ...isa import opcodes as op
from ...isa.semantics import fits_imm32


def collapse_store_imm(first: Instruction,
                       second: Instruction) -> Optional[Instruction]:
    """``mov rX, imm ; *(rB+off) = rX``  ->  one ``store_imm``.

    Returns the replacement store (the mov is dropped by the caller),
    or None when the pair does not match.
    """
    if (
        first.is_alu64
        and first.alu_op == op.BPF_MOV
        and first.uses_imm
        and second.insn_class == op.BPF_STX
        and not second.is_atomic
        and second.src == first.dst
        and fits_imm32(first.imm)
    ):
        return ins.store_imm(second.size_bytes, second.dst, second.off,
                             first.imm)
    return None


def collapse_shift_pair(first: Instruction,
                        second: Instruction) -> Optional[Instruction]:
    """``shl r, 32 ; shr r, 32``  ->  ``mov32 r, r`` (zero-extension).

    Returns the replacement mov32 (the shr is dropped by the caller),
    or None when the pair does not match.
    """
    if (
        first.is_alu64
        and first.alu_op == op.BPF_LSH
        and first.uses_imm and first.imm == 32
        and second.is_alu64
        and second.alu_op == op.BPF_RSH
        and second.uses_imm and second.imm == 32
        and second.dst == first.dst
    ):
        return ins.mov32_reg(first.dst, first.dst)
    return None


def match_load_merge(a: Instruction, b: Instruction, c: Instruction,
                     d: Instruction) -> Optional[Instruction]:
    """``load lo ; load hi ; shl hi, 8*size ; or lo, hi``  ->  one wide
    load.  Returns the merged load (b/c/d are dropped by the caller) or
    None.  Deadness of the helper register is NOT checked here — the
    caller's oracle or prover owns that."""
    if not (a.is_load and b.is_load and a.size_bytes == b.size_bytes
            and a.size_bytes < 8 and a.src == b.src
            and b.off == a.off + a.size_bytes):
        return None
    size = a.size_bytes
    if not (
        c.is_alu64 and c.alu_op == op.BPF_LSH and c.uses_imm
        and c.imm == 8 * size and c.dst == b.dst
        and d.is_alu64 and d.alu_op == op.BPF_OR
        and not d.uses_imm and d.dst == a.dst and d.src == b.dst
    ):
        return None
    return ins.load(size * 2, a.dst, a.src, a.off)
