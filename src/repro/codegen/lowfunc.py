"""Low-level function representation used between isel and emission.

Instructions here reuse :class:`repro.isa.Instruction` but may name
*virtual* registers (numbers >= :data:`VREG_BASE`).  Jumps refer to
string labels resolved by the emitter after register allocation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple, Union

from ..isa import Instruction
from ..isa import opcodes as op

VREG_BASE = 16


def is_vreg(reg: int) -> bool:
    return reg >= VREG_BASE


@dataclass
class LowInsn:
    """One instruction plus an optional symbolic jump target.

    ``group`` ties together a helper call and its argument-setup moves
    so the register allocator can treat the whole region as clobbering
    the caller-saved registers r0-r5.
    """

    insn: Instruction
    target: Optional[str] = None
    group: Optional[int] = None

    def defs(self) -> Tuple[int, ...]:
        return self.insn.defs()

    def uses(self) -> Tuple[int, ...]:
        return self.insn.uses()


@dataclass
class Label:
    name: str


Item = Union[Label, LowInsn]


@dataclass
class LowFunction:
    """Linearized, virtually-register-allocated function body."""

    name: str
    items: List[Item] = field(default_factory=list)
    stack_used: int = 0  # bytes of stack reserved for allocas
    next_vreg: int = VREG_BASE

    def new_vreg(self) -> int:
        reg = self.next_vreg
        self.next_vreg += 1
        return reg

    def emit(self, insn: Instruction, target: Optional[str] = None,
             group: Optional[int] = None) -> LowInsn:
        low = LowInsn(insn, target, group)
        self.items.append(low)
        return low

    def label(self, name: str) -> None:
        self.items.append(Label(name))

    def insns(self) -> Iterator[LowInsn]:
        for item in self.items:
            if isinstance(item, LowInsn):
                yield item

    def alloc_stack(self, size: int, align: int) -> int:
        """Reserve *size* bytes below r10; return the negative offset."""
        self.stack_used = (self.stack_used + size + align - 1) // align * align
        if self.stack_used > op.STACK_SIZE:
            raise StackOverflowError(
                f"{self.name}: stack use {self.stack_used} exceeds "
                f"{op.STACK_SIZE} bytes"
            )
        return -self.stack_used


class StackOverflowError(Exception):
    """Raised when a function needs more than the 512-byte eBPF stack."""
