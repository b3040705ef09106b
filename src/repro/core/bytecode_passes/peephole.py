"""Peephole optimization in bytecode (Opt 6, PO).

The headline pattern is the masked 32-bit right shift of paper Fig. 9.
``lshr i32 x, k`` on a register whose upper half may hold garbage is
lowered by LLVM as::

    18 03 ..          // ld_imm64 rM, (0xffffffff << k) & 0xffffffff   (2 slots)
    5f 38 ..          // and  rX, rM
    77 08 00 00 1c .. // shr  rX, k
->
    67 08 00 00 20 .. // shl  rX, 32
    77 08 00 00 3c .. // shr  rX, 32 + k

Both clear the upper half and shift, but the rewrite saves two slots
(the 64-bit immediate load costs two) and frees the mask register.
The pass also deletes jumps to the immediately-following instruction.
"""

from __future__ import annotations

from ...isa import BpfProgram
from ...isa import instruction as ins
from ...isa import opcodes as op
from ..pass_manager import BytecodePass
from .analysis import BytecodeAnalysis
from .symbolic import SymbolicProgram

_U32 = 0xFFFFFFFF


def _mask_shift(mask: int) -> int:
    """If mask == (0xffffffff << k) & 0xffffffff, return k, else -1."""
    for k in range(32):
        if mask == ((_U32 << k) & _U32):
            return k
    return -1


class PeepholePass(BytecodePass):
    """Masked-shift strength reduction plus trivial jump threading."""

    name = "peephole"

    def run(self, program: BpfProgram, sym: SymbolicProgram,
            analysis: BytecodeAnalysis) -> int:
        rewrites = self._masked_shifts(sym, analysis)
        rewrites += sym.delete_jumps_to_next(
            lambda index: self._delete(sym, index, "jump-thread"))
        return rewrites

    #: how far back to look for the mask-materializing ld_imm64
    LOOKBACK = 8

    def _masked_shifts(self, sym: SymbolicProgram,
                       analysis: BytecodeAnalysis) -> int:
        live = sym.live_indices()
        pos_of = {idx: p for p, idx in enumerate(live)}
        rewrites = 0
        consumed = set()
        for and_index in live:
            if and_index in consumed:
                continue
            and_insn = sym.insns[and_index].insn
            if not (
                and_insn.is_alu64
                and and_insn.alu_op == op.BPF_AND
                and not and_insn.uses_imm
                and and_insn.src != and_insn.dst
            ):
                continue
            shr_index = sym.next_live(and_index)
            if shr_index is None:
                continue
            shr = sym.insns[shr_index].insn
            if not (
                shr.is_alu64
                and shr.alu_op == op.BPF_RSH
                and shr.uses_imm
                and shr.dst == and_insn.dst
            ):
                continue
            mask_index = self._find_mask_def(sym, analysis, live, pos_of,
                                             and_index, and_insn.src,
                                             shr.imm)
            if mask_index is None or mask_index in consumed:
                continue
            if not analysis.straightline(mask_index, shr_index):
                continue
            if not analysis.reg_dead_after(and_index, and_insn.src):
                continue
            target = and_insn.dst
            snap = self._snapshot(sym)
            sym.delete(mask_index)  # the two-slot immediate load disappears
            sym.replace(and_index, ins.alu64("lsh", target, imm=32))
            sym.replace(shr_index, ins.alu64("rsh", target, imm=32 + shr.imm))
            self._witness_region(sym, snap, mask_index, shr_index,
                                 clobbered=(and_insn.src,),
                                 note="masked-shift strength reduction")
            consumed.update({mask_index, and_index, shr_index})
            rewrites += 1
        return rewrites

    def _find_mask_def(self, sym, analysis, live, pos_of, and_index,
                       mask_reg, shift):
        """Walk back from the AND to its mask-defining ld_imm64.

        Intervening instructions may not read or write the mask register
        (other uses would observe the deleted load)."""
        pos = pos_of[and_index]
        for back in range(1, self.LOOKBACK + 1):
            if pos - back < 0:
                return None
            index = live[pos - back]
            insn = sym.insns[index].insn
            if insn.is_ld_imm64 and insn.dst == mask_reg:
                if _mask_shift(insn.imm) == shift and insn.src == 0:
                    return index
                return None
            if mask_reg in insn.defs() or mask_reg in insn.uses():
                return None
            if insn.is_jump or insn.is_exit or insn.is_call:
                return None
        return None
