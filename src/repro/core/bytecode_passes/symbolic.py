"""Symbolic (index-relocated) view of a bytecode program.

Bytecode rewriting changes instruction counts, which would silently
corrupt every relative branch.  ``SymbolicProgram`` converts branch
offsets into logical instruction indices, lets passes insert/delete/
replace instructions freely, and recomputes correct slot-relative
offsets on the way out.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Set

from ...isa import BpfProgram, Instruction
from ...isa.cfg import FAULT, slot_targets


class RelocationError(Exception):
    """Raised when branch targets cannot be resolved."""


@dataclass
class SymInsn:
    insn: Instruction
    target: Optional[int] = None  # logical index of the jump target
    deleted: bool = False


class SymbolicProgram:
    """A mutable, index-addressed program."""

    def __init__(self, insns: List[SymInsn]):
        self.insns = insns

    # --- conversion ---------------------------------------------------------
    @classmethod
    def from_program(cls, program: BpfProgram) -> "SymbolicProgram":
        insns = program.insns
        targets = slot_targets(insns)
        for slot, target in zip(program.slot_offsets(), targets):
            if target == FAULT:
                raise RelocationError(
                    f"branch at slot {slot} lands inside an instruction"
                )
        return cls([SymInsn(insn, target)
                    for insn, target in zip(insns, targets)])

    def to_insns(self) -> List[Instruction]:
        """Drop deletions, recompute offsets, return final instructions."""
        # map old index -> new index of the next surviving instruction
        survivors: List[int] = []
        remap: List[int] = []
        for sym in self.insns:
            remap.append(len(survivors))
            if not sym.deleted:
                survivors.append(len(remap) - 1)
        end_index = len(survivors)

        live = [sym for sym in self.insns if not sym.deleted]
        slots: List[int] = []
        slot = 0
        for sym in live:
            slots.append(slot)
            slot += sym.insn.slots
        end_slot = slot

        result: List[Instruction] = []
        for new_index, sym in enumerate(live):
            insn = sym.insn
            if sym.target is not None:
                if sym.target >= len(self.insns):
                    target_slot = end_slot
                else:
                    new_target = remap[sym.target]
                    target_slot = (
                        end_slot if new_target >= len(live) else slots[new_target]
                    )
                rel = target_slot - (slots[new_index] + insn.slots)
                insn = insn.with_(off=rel)
            result.append(insn)
        return result

    def apply_to(self, program: BpfProgram) -> BpfProgram:
        """Return a copy of *program* with the rewritten instructions."""
        return program.copy(insns=self.to_insns())

    # --- queries ------------------------------------------------------------
    def resolve(self, index: int) -> int:
        """Where control lands when it reaches logical *index*: the next
        non-deleted entry at or after it, or ``len(self.insns)``."""
        insns = self.insns
        while index < len(insns) and insns[index].deleted:
            index += 1
        return index

    def branch_targets(self) -> Set[int]:
        """Logical indices some branch may land on (rewrite barriers)."""
        return {self.resolve(sym.target) for sym in self.insns
                if not sym.deleted and sym.target is not None}

    def live_indices(self) -> List[int]:
        return [i for i, sym in enumerate(self.insns) if not sym.deleted]

    def next_live(self, index: int) -> Optional[int]:
        following = self.resolve(index + 1)
        return following if following < len(self.insns) else None

    # --- mutation ---------------------------------------------------------------
    def delete(self, index: int) -> None:
        self.insns[index].deleted = True

    def replace(self, index: int, insn: Instruction,
                target: Optional[int] = None) -> None:
        self.insns[index] = SymInsn(insn, target)

    def insert_before(self, index: int, insn: Instruction,
                      target: Optional[int] = None) -> None:
        """Insert *insn* at logical *index*, shifting later indices up.

        Branches that targeted *index* keep targeting the original
        instruction (now at ``index + 1``) — the inserted instruction
        executes on fall-through only.  Pass *target* (pre-insertion
        index) to make the inserted instruction itself a branch.
        """
        if not 0 <= index <= len(self.insns):
            raise RelocationError(
                f"insert position {index} outside program of "
                f"{len(self.insns)} instructions")
        for sym in self.insns:
            if sym.target is not None and sym.target >= index:
                sym.target += 1
        if target is not None and target >= index:
            target += 1
        self.insns.insert(index, SymInsn(insn, target))
