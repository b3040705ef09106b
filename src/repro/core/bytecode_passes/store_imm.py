"""Bytecode-tier constant propagation + dead code elimination (Opt 1).

The paper's Fig. 4: LLVM materializes every stored constant into a
register first::

    b7 01 00 00 01 00 00 00    // mov  r1, 1
    7b 1a c0 ff 00 00 00 00    // movq r1, -0x40(r10)

When the register dies at the store, Merlin folds the constant into a
``ST``-class store-immediate and the mov becomes dead::

    7a 0a c0 ff 01 00 00 00    // movq $1, -0x40(r10)

The pass also performs dead-store elimination on stack slots that are
overwritten before any possible read (Fig. 5, line 1) and removes dead
register definitions (including self-moves left by register allocation).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ...isa import BpfProgram, Instruction
from ...isa import instruction as ins
from ...isa import opcodes as op
from ..pass_manager import BytecodePass
from .analysis import BytecodeAnalysis
from .symbolic import SymbolicProgram

_S32_MIN, _S32_MAX = -(1 << 31), (1 << 31) - 1


def _as_signed32(imm: int) -> Optional[int]:
    if _S32_MIN <= imm <= _S32_MAX:
        return imm
    return None


class StoreImmediatePass(BytecodePass):
    """mov rX, imm; *(uN*)(rB+off) = rX  ->  *(uN*)(rB+off) = imm."""

    name = "cp-dce"

    def run(self, program: BpfProgram) -> int:
        sym = SymbolicProgram.from_program(program)
        analysis = self._analyze(sym)
        rewrites = 0
        rewrites += self._fold_store_immediates(sym, analysis)
        rewrites += self._dead_stack_stores(sym, analysis)
        rewrites += self._dead_defs(sym, analysis)
        program.insns = sym.to_insns()
        return rewrites

    # ------------------------------------------------------------------
    def _fold_store_immediates(self, sym: SymbolicProgram,
                               analysis: BytecodeAnalysis) -> int:
        # deleting a constant mov only removes uses, so liveness facts
        # refreshed once per scan stay conservative for later rewrites
        rewrites = 0
        changed = True
        while changed:
            changed = False
            analysis.refresh()
            skip_until = -1
            for index in sym.live_indices():
                if index <= skip_until or sym.insns[index].deleted:
                    continue
                insn = sym.insns[index].insn
                if not (
                    insn.is_alu64
                    and insn.alu_op == op.BPF_MOV
                    and insn.uses_imm
                ):
                    continue
                nxt = sym.next_live(index)
                if nxt is None:
                    continue
                store = sym.insns[nxt].insn
                if not (
                    store.insn_class == op.BPF_STX
                    and not store.is_atomic
                    and store.src == insn.dst
                    and store.dst != insn.dst
                ):
                    continue
                if not analysis.straightline(index, nxt):
                    continue
                if not analysis.reg_dead_after(nxt, insn.dst):
                    continue
                imm = _as_signed32(insn.imm)
                if imm is None:
                    continue
                snap = self._snapshot(sym)
                sym.replace(
                    nxt,
                    ins.store_imm(store.size_bytes, store.dst, store.off, imm),
                )
                sym.delete(index)
                self._witness_region(sym, snap, index, nxt,
                                     clobbered=(insn.dst,),
                                     note="store-immediate fold")
                rewrites += 1
                changed = True
                skip_until = nxt
        return rewrites

    # ------------------------------------------------------------------
    def _dead_stack_stores(self, sym: SymbolicProgram,
                           analysis: BytecodeAnalysis) -> int:
        """Remove stack stores fully overwritten before any possible read."""
        rewrites = 0
        analysis.refresh()
        live = sym.live_indices()
        for pos, index in enumerate(live):
            insn = sym.insns[index].insn
            if not self._is_stack_store(insn):
                continue
            lo, hi = insn.off, insn.off + insn.size_bytes
            overwriter = self._overwritten_before_read(
                sym, analysis, live, pos, lo, hi)
            if overwriter is not None:
                snap = self._snapshot(sym)
                sym.delete(index)
                self._witness_region(sym, snap, index, overwriter,
                                     note="dead stack store")
                rewrites += 1
        return rewrites

    @staticmethod
    def _is_stack_store(insn: Instruction) -> bool:
        return (
            insn.is_store
            and not insn.is_atomic
            and insn.dst == op.FP
        )

    def _overwritten_before_read(
        self,
        sym: SymbolicProgram,
        analysis: BytecodeAnalysis,
        live: List[int],
        pos: int,
        lo: int,
        hi: int,
    ) -> Optional[int]:
        """Logical index of the store that fully overwrites [lo, hi)
        before any possible read, or None."""
        for later_pos in range(pos + 1, len(live)):
            index = live[later_pos]
            if analysis.is_branch_target(index):
                return None
            insn = sym.insns[index].insn
            if insn.is_jump or insn.is_exit or insn.is_call:
                return None
            # r10 escaping into another register makes aliasing possible
            if insn.is_alu and not insn.uses_imm and insn.src == op.FP:
                return None
            if insn.is_load and insn.src == op.FP:
                if insn.off < hi and insn.off + insn.size_bytes > lo:
                    return None
            if insn.is_atomic and insn.dst == op.FP:
                if insn.off < hi and insn.off + insn.size_bytes > lo:
                    return None
            if self._is_stack_store(insn):
                if insn.off <= lo and insn.off + insn.size_bytes >= hi:
                    return index  # fully overwritten
                if insn.off < hi and insn.off + insn.size_bytes > lo:
                    return None  # partial overlap: keep it simple
        return None

    # ------------------------------------------------------------------
    def _dead_defs(self, sym: SymbolicProgram,
                   analysis: BytecodeAnalysis) -> int:
        rewrites = 0
        while True:
            analysis.refresh()
            dead = analysis.dead_defs()
            if not dead:
                return rewrites
            for index in dead:
                snap = self._snapshot(sym)
                sym.delete(index)
                self._witness_delete(snap, index, "dead-def")
                rewrites += 1
