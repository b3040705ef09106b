"""Code compaction with ALU32 instructions (Opt 5, CC).

The shl/shr zero-extension idiom LLVM emits for "take the low 32 bits"::

    67 00 00 00 20 00 00 00   // shlq $0x20, r0
    77 00 00 00 20 00 00 00   // shrq $0x20, r0
->  bc 00 00 00 00 00 00 00   // movl w0, w0

The 32-bit mov zero-extends its destination, so the pair collapses to
one instruction.  LLVM cannot emit this at IR level (no IR instruction
maps to ``movl rX, rX``), which is the paper's argument for the
bytecode tier.  The rewrite is gated on the target accepting v3 (ALU32)
instructions — older kernels would reject or mistrack them.
"""

from __future__ import annotations

from ...isa import BpfProgram
from ...isa import instruction as ins
from ...isa import opcodes as op
from ..pass_manager import BytecodePass
from .analysis import BytecodeAnalysis
from .symbolic import SymbolicProgram


class CodeCompactionPass(BytecodePass):
    """Rewrite zero-extension shift pairs into 32-bit moves."""

    name = "cc"

    def __init__(self, allow_alu32: bool = True):
        self.allow_alu32 = allow_alu32

    def run(self, program: BpfProgram, sym: SymbolicProgram,
            analysis: BytecodeAnalysis) -> int:
        if not self.allow_alu32:
            return 0
        rewrites = 0
        skip_until = -1
        for index in sym.live_indices():
            if index <= skip_until:
                continue
            first = sym.insns[index].insn
            if not (
                first.is_alu64
                and first.alu_op == op.BPF_LSH
                and first.uses_imm
                and first.imm == 32
            ):
                continue
            nxt = sym.next_live(index)
            if nxt is None:
                continue
            second = sym.insns[nxt].insn
            if not (
                second.is_alu64
                and second.alu_op == op.BPF_RSH
                and second.uses_imm
                and second.imm == 32
                and second.dst == first.dst
            ):
                continue
            if not analysis.straightline(index, nxt):
                continue
            snap = self._snapshot(sym)
            sym.replace(index, ins.mov32_reg(first.dst, first.dst))
            sym.delete(nxt)
            self._witness_region(sym, snap, index, nxt,
                                 note="zero-extension shift pair")
            rewrites += 1
            skip_until = nxt
        if rewrites:
            program.mcpu = "v3"  # the program now requires v3 support
        return rewrites
