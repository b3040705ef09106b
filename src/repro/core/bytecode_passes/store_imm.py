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

from typing import Dict, List, Tuple

from ...isa import BpfProgram, Instruction
from ...isa import instruction as ins
from ...isa import opcodes as op
from ...isa.semantics import fits_imm32
from ..pass_manager import BytecodePass
from .analysis import BytecodeAnalysis
from .symbolic import SymbolicProgram

_MOV64_IMM = op.BPF_ALU64 | op.BPF_MOV | op.BPF_K


class StoreImmediatePass(BytecodePass):
    """mov rX, imm; *(uN*)(rB+off) = rX  ->  *(uN*)(rB+off) = imm."""

    name = "cp-dce"

    def run(self, program: BpfProgram, sym: SymbolicProgram,
            analysis: BytecodeAnalysis) -> int:
        rewrites = 0
        rewrites += self._fold_store_immediates(sym, analysis)
        rewrites += self._dead_stack_stores(sym, analysis)
        analysis.refresh()
        rewrites += analysis.delete_dead_defs(
            lambda index: self._delete(sym, index, "dead-def"))
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
            skip_until = -1
            for index in sym.live_indices():
                if index <= skip_until or sym.insns[index].deleted:
                    continue
                insn = sym.insns[index].insn
                if insn.opcode != _MOV64_IMM:
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
                if not fits_imm32(insn.imm):
                    continue
                snap = self._snapshot(sym)
                sym.replace(
                    nxt,
                    ins.store_imm(store.size_bytes, store.dst, store.off,
                                  insn.imm),
                )
                sym.delete(index)
                self._witness_region(sym, snap, index, nxt,
                                     clobbered=(insn.dst,),
                                     note="store-immediate fold")
                rewrites += 1
                changed = True
                skip_until = nxt
            analysis.refresh()
        return rewrites

    # ------------------------------------------------------------------
    def _dead_stack_stores(self, sym: SymbolicProgram,
                           analysis: BytecodeAnalysis) -> int:
        """Remove stack stores fully overwritten before any possible read."""
        rewrites = 0
        for index, overwriter in self._overwritten_stores(sym, analysis):
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

    def _overwritten_stores(self, sym: SymbolicProgram,
                            analysis: BytecodeAnalysis
                            ) -> List[Tuple[int, int]]:
        """``(index, overwriter)`` for every stack store whose bytes a
        later store fully overwrites before any possible read, in index
        order.

        One sweep from the end: ``first`` maps each stack byte to the
        earliest access after the sweep point, ``(index, lo, hi,
        is_store)``.  A store is dead when the earliest access to any
        of its bytes is a store covering all of them.  Nothing is seen
        past a branch target, a jump, call or exit, or an instruction
        that copies r10 (from then on another register may alias the
        stack)."""
        found: List[Tuple[int, int]] = []
        first: Dict[int, Tuple[int, int, int, bool]] = {}
        targets, fp = analysis.targets, op.FP
        for index in reversed(sym.live_indices()):
            insn = sym.insns[index].insn
            opcode = insn.opcode
            store = self._is_stack_store(insn)
            if store:
                lo, hi = insn.off, insn.off + op.ACCESS_BYTES[opcode]
                hits = [first[b] for b in range(lo, hi) if b in first]
                if hits:
                    hit = min(hits)
                    if hit[3] and hit[1] <= lo and hit[2] >= hi:
                        found.append((index, hit[0]))
            if index in targets or op.IS_JUMP[opcode] \
                    or (op.IS_ALU[opcode] and not op.USES_IMM[opcode]
                        and insn.src == fp):
                first.clear()
            elif store or (op.IS_LOAD[opcode] and insn.src == fp) \
                    or (op.IS_ATOMIC[opcode] and insn.dst == fp):
                lo, hi = insn.off, insn.off + op.ACCESS_BYTES[opcode]
                access = (index, lo, hi, store)
                for b in range(lo, hi):
                    first[b] = access
        found.reverse()
        return found
