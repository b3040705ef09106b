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
from ..pass_manager import BytecodePass
from .analysis import BytecodeAnalysis
from .matchers import collapse_shift_pair
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
        live = sym.live_indices()
        # a rewrite deletes only its pair's second instruction, which the
        # next pair starts with and skips
        for index, nxt in zip(live, live[1:]):
            if index <= skip_until:
                continue
            merged = collapse_shift_pair(sym.insns[index].insn,
                                         sym.insns[nxt].insn)
            if merged is None or not analysis.straightline(index, nxt):
                continue
            snap = self._snapshot(sym)
            sym.replace(index, merged)
            sym.delete(nxt)
            self._witness_region(sym, snap, index, nxt,
                                 note="zero-extension shift pair")
            rewrites += 1
            skip_until = nxt
        if rewrites:
            program.mcpu = "v3"  # the program now requires v3 support
        return rewrites
