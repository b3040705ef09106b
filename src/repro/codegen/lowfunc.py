"""Low-level function representation used between isel and emission.

Instructions here carry the fields of :class:`repro.isa.Instruction`
but may name *virtual* registers (numbers >= :data:`VREG_BASE`).  Jumps
refer to string labels resolved by the emitter after register
allocation, which is where each final ``Instruction`` is built.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, List, Optional, Union

from ..isa import Instruction
from ..isa import opcodes as op

VREG_BASE = 16


def is_vreg(reg: int) -> bool:
    return reg >= VREG_BASE


class LowInsn:
    """One instruction's fields plus an optional symbolic jump target.

    The fields are ``Instruction``'s (``opcode``, ``dst``, ``src``,
    ``off``, ``imm``), so ``Instruction.uses``/``defs`` read a LowInsn
    as they read an Instruction.  They are mutable: the register
    allocator writes the physical registers in place, and the emitter
    builds the one ``Instruction`` the program keeps.  ``group`` ties
    together a helper call and its argument-setup moves so the register
    allocator can treat the whole region as clobbering the caller-saved
    registers r0-r5.
    """

    __slots__ = ("opcode", "dst", "src", "off", "imm", "target", "group")

    def __init__(self, opcode: int, dst: int = 0, src: int = 0,
                 off: int = 0, imm: int = 0, target: Optional[str] = None,
                 group: Optional[int] = None):
        self.opcode = opcode
        self.dst = dst
        self.src = src
        self.off = off
        self.imm = imm
        self.target = target
        self.group = group

    def __repr__(self) -> str:
        return (f"LowInsn({self.opcode:#x}, dst={self.dst}, src={self.src}, "
                f"off={self.off}, imm={self.imm}, target={self.target!r}, "
                f"group={self.group})")


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
        """Append the fields of *insn*."""
        return self.add(insn.opcode, insn.dst, insn.src, insn.off, insn.imm,
                        target, group)

    def add(self, opcode: int, dst: int = 0, src: int = 0, off: int = 0,
            imm: int = 0, target: Optional[str] = None,
            group: Optional[int] = None) -> LowInsn:
        """Append an instruction given by its fields."""
        low = LowInsn(opcode, dst, src, off, imm, target, group)
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
