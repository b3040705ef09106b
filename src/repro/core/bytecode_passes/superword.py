"""Bytecode-tier superword-level merging (Opt 2, SLM).

Merges pairs of adjacent constant stores into one store of twice the
width (paper Fig. 5)::

    62 0a fc ff 00 00 00 00   // movl $0, -0x4(r10)
    62 0a f8 ff 01 00 00 00   // movl $1, -0x8(r10)
->  7a 0a f8 ff 01 00 00 00   // movq $1, -0x8(r10)

The merged value is assembled little-endian (value at the lower address
fills the low bytes).  Pairs keep merging bottom-up, so four adjacent
``u8`` stores can collapse all the way into one ``u32``.
"""

from __future__ import annotations

from typing import Optional

from ...isa import BpfProgram
from ...isa import instruction as ins
from ...isa.semantics import fits_imm32, signed
from ..pass_manager import BytecodePass
from .analysis import BytecodeAnalysis
from .symbolic import SymbolicProgram

#: test-only fault injection: when True, merged stores land one byte
#: past the pair's base offset.  Exists so the differential fuzzer's
#: self-test can prove it detects, bisects, and minimizes a real
#: miscompile; never set outside tests.
PLANTED_OFFSET_BUG = False


def merged_immediate(lo_value: int, hi_value: int, size: int) -> Optional[int]:
    """Combine two *size*-byte store immediates into one 2*size value.

    Returns None when the merged constant cannot be encoded in the
    sign-extended 32-bit immediate of a store instruction.
    """
    bits = size * 8
    mask = (1 << bits) - 1
    combined = (lo_value & mask) | ((hi_value & mask) << bits)
    # the signed immediate that reproduces the pattern; an 8-byte store
    # sign-extends it from 32 bits
    imm = signed(combined, 2 * bits)
    return imm if fits_imm32(imm) else None


class SuperwordMergePass(BytecodePass):
    """Merge adjacent constant stores to consecutive addresses."""

    name = "slm"

    def run(self, program: BpfProgram, sym: SymbolicProgram,
            analysis: BytecodeAnalysis) -> int:
        rewrites = 0
        changed = True
        while changed:
            changed = False
            for index in sym.live_indices():
                if sym.insns[index].deleted:
                    continue
                if self._try_merge(sym, analysis, index):
                    rewrites += 1
                    changed = True
            analysis.refresh()
        return rewrites

    def _try_merge(self, sym: SymbolicProgram, analysis: BytecodeAnalysis,
                   index: int) -> bool:
        first = sym.insns[index].insn
        if not (first.is_store_imm and first.size_bytes < 8):
            return False
        nxt = sym.next_live(index)
        if nxt is None:
            return False
        second = sym.insns[nxt].insn
        if not (second.is_store_imm and second.size_bytes == first.size_bytes
                and second.dst == first.dst):
            return False
        if not analysis.straightline(index, nxt):
            return False
        size = first.size_bytes
        if second.off == first.off + size:
            lo, hi = first, second
        elif first.off == second.off + size:
            lo, hi = second, first
        else:
            return False
        if lo.off % (size * 2):
            return False  # merged access would be misaligned
        imm = merged_immediate(lo.imm, hi.imm, size)
        if imm is None:
            return False
        off = lo.off + 1 if PLANTED_OFFSET_BUG else lo.off
        snap = self._snapshot(sym)
        sym.replace(index, ins.store_imm(size * 2, lo.dst, off, imm))
        sym.delete(nxt)
        self._witness_region(sym, snap, index, nxt,
                             note="adjacent store merge")
        return True
