"""Symbolic (index-relocated) view of a bytecode program.

Bytecode rewriting changes instruction counts, which would silently
corrupt every relative branch.  ``SymbolicProgram`` converts branch
offsets into logical instruction indices, lets passes insert/delete/
replace instructions freely, and recomputes correct slot-relative
offsets on the way out.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Set

from ...isa import BpfProgram, Instruction
from ...isa.cfg import FAULT, JA, KIND, slot_targets
from ...isa.opcodes import SLOTS


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
        if FAULT in targets:
            slot = program.slot_offsets()[targets.index(FAULT)]
            raise RelocationError(
                f"branch at slot {slot} lands inside an instruction"
            )
        return cls([SymInsn(insn, target)
                    for insn, target in zip(insns, targets)])

    def to_insns(self) -> List[Instruction]:
        """Drop deletions, recompute offsets, return final instructions."""
        # slot where control lands on reaching each logical index: that
        # of the next surviving instruction, or the end of the program
        entries = self.insns
        lands: List[int] = []
        slot = 0
        for sym in entries:
            lands.append(slot)
            if not sym.deleted:
                slot += SLOTS[sym.insn.opcode]
        lands.append(slot)
        end = len(entries)

        result: List[Instruction] = []
        for index, sym in enumerate(entries):
            if sym.deleted:
                continue
            insn = sym.insn
            if sym.target is not None:
                rel = lands[min(sym.target, end)] - lands[index] \
                    - SLOTS[insn.opcode]
                if rel != insn.off:
                    insn = insn.with_(off=rel)
            result.append(insn)
        return result

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

    def delete_jumps_to_next(self, delete: Callable[[int], None]) -> int:
        """Delete every unconditional jump to the next live instruction
        and return how many went; *delete* removes one index.  One sweep
        from the end finds them all: deleting a jump can only bring an
        earlier jump's target next to it."""
        deleted = 0
        for index in reversed(self.live_indices()):
            item = self.insns[index]
            if KIND[item.insn.opcode] == JA and item.target is not None \
                    and self.resolve(item.target) == self.next_live(index):
                delete(index)
                deleted += 1
        return deleted

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
