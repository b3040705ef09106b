"""The eBPF ``Instruction`` value type with binary encode/decode.

An :class:`Instruction` models one *logical* instruction.  ``ld_imm64``
is represented as a single object with a 64-bit immediate but encodes to
two 8-byte slots (and therefore counts as 2 toward NI, the paper's
"Number of Instructions" metric).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Iterable, List, Optional, Tuple

from . import opcodes as op

_STRUCT = struct.Struct("<BBhi")

_U64 = (1 << 64) - 1
_U32 = (1 << 32) - 1

_ARG_MASK = sum(1 << reg for reg in op.ARG_REGS)
_CALLER_SAVED_MASK = sum(1 << reg for reg in op.CALLER_SAVED)


def _s32(value: int) -> int:
    """Wrap *value* to a signed 32-bit integer."""
    value &= _U32
    return value - (1 << 32) if value >= (1 << 31) else value


def _s16(value: int) -> int:
    value &= 0xFFFF
    return value - (1 << 16) if value >= (1 << 15) else value


class EncodingError(ValueError):
    """Raised when an instruction cannot be encoded or decoded."""


@dataclass(frozen=True)
class Instruction:
    """One eBPF instruction.

    Attributes mirror the wire format: ``opcode``, ``dst``/``src``
    register numbers, a signed 16-bit ``off`` and a signed immediate
    (32-bit for everything except ``ld_imm64``, which stores the full
    64-bit constant in ``imm``).
    """

    opcode: int
    dst: int = 0
    src: int = 0
    off: int = 0
    imm: int = 0

    # --- classification ---------------------------------------------------
    # every answer is a lookup in the per-opcode tables of ``opcodes``

    @property
    def insn_class(self) -> int:
        return op.INSN_CLASS[self.opcode]

    @property
    def is_ld_imm64(self) -> bool:
        return op.IS_LD_IMM64[self.opcode]

    @property
    def is_alu(self) -> bool:
        return op.IS_ALU[self.opcode]

    @property
    def is_alu64(self) -> bool:
        return op.IS_ALU64[self.opcode]

    @property
    def is_alu32(self) -> bool:
        return op.IS_ALU32[self.opcode]

    @property
    def is_jump(self) -> bool:
        return op.IS_JUMP[self.opcode]

    @property
    def is_call(self) -> bool:
        return op.IS_CALL[self.opcode]

    @property
    def is_exit(self) -> bool:
        return op.IS_EXIT[self.opcode]

    @property
    def is_load(self) -> bool:
        return op.IS_LOAD[self.opcode]

    @property
    def is_store(self) -> bool:
        return op.IS_STORE[self.opcode]

    @property
    def is_memory(self) -> bool:
        return op.IS_MEMORY[self.opcode]

    @property
    def is_atomic(self) -> bool:
        return op.IS_ATOMIC[self.opcode]

    @property
    def is_store_imm(self) -> bool:
        """A ``ST`` class store of an immediate value to memory."""
        return op.IS_STORE_IMM[self.opcode]

    @property
    def alu_op(self) -> int:
        return op.OP_CODE[self.opcode]

    @property
    def jmp_op(self) -> int:
        return op.OP_CODE[self.opcode]

    @property
    def uses_imm(self) -> bool:
        """True when the instruction's operand is the immediate field."""
        return op.USES_IMM[self.opcode]

    @property
    def size_bytes(self) -> int:
        """Memory access width in bytes (loads/stores only)."""
        size = op.ACCESS_BYTES[self.opcode]
        if not size:
            raise EncodingError(f"not a memory instruction: {self!r}")
        return size

    @property
    def slots(self) -> int:
        """Number of 8-byte encoding slots (2 for ``ld_imm64``)."""
        return op.SLOTS[self.opcode]

    # --- use/def sets -------------------------------------------------------
    def defs(self) -> Tuple[int, ...]:
        """Registers written by this instruction."""
        kind = op.DEF_KIND[self.opcode]
        if kind == op.DEF_DST:
            return (self.dst,)
        if kind == op.DEF_CALL:
            return (op.R0,)
        if kind == op.DEF_ATOMIC and self.imm & op.BPF_FETCH:
            # fetch variants write the old value back into src
            return (op.R0,) if self.imm == op.BPF_CMPXCHG else (self.src,)
        return ()

    def uses(self) -> Tuple[int, ...]:
        """Registers read by this instruction."""
        kind = op.USE_KIND[self.opcode]
        if kind == op.USE_DST:
            return (self.dst,)
        if kind == op.USE_DST_SRC:
            return (self.dst, self.src)
        if kind == op.USE_SRC:
            return (self.src,)
        if kind == op.USE_ATOMIC:
            if self.imm == op.BPF_CMPXCHG:
                return (self.dst, self.src, op.R0)
            return (self.dst, self.src)
        if kind == op.USE_ARGS:
            return op.ARG_REGS
        if kind == op.USE_R0:
            return (op.R0,)
        return ()

    # --- register bitmasks (bit n set = register rn) ------------------------
    @property
    def use_mask(self) -> int:
        """The registers of :meth:`uses` as a bitmask."""
        kind = op.USE_KIND[self.opcode]
        if kind == op.USE_DST:
            return 1 << self.dst
        if kind == op.USE_DST_SRC:
            return (1 << self.dst) | (1 << self.src)
        if kind == op.USE_SRC:
            return 1 << self.src
        if kind == op.USE_ATOMIC:
            mask = (1 << self.dst) | (1 << self.src)
            return mask | 1 if self.imm == op.BPF_CMPXCHG else mask
        if kind == op.USE_ARGS:
            return _ARG_MASK
        if kind == op.USE_R0:
            return 1
        return 0

    @property
    def def_mask(self) -> int:
        """The registers of :meth:`defs` as a bitmask, plus the r1-r5 a
        helper call clobbers: everything whose old value is gone after
        this instruction."""
        kind = op.DEF_KIND[self.opcode]
        if kind == op.DEF_DST:
            return 1 << self.dst
        if kind == op.DEF_CALL:
            return _CALLER_SAVED_MASK
        if kind == op.DEF_ATOMIC and self.imm & op.BPF_FETCH:
            return 1 if self.imm == op.BPF_CMPXCHG else 1 << self.src
        return 0

    # --- encoding -----------------------------------------------------------
    def encode(self) -> bytes:
        """Binary encoding: 8 bytes, or 16 for ``ld_imm64``."""
        for reg in (self.dst, self.src):
            if not 0 <= reg <= op.R10:
                raise EncodingError(f"register out of range: r{reg}")
        regs = (self.src << 4) | self.dst
        if self.is_ld_imm64:
            imm = self.imm & _U64
            lo = _s32(imm & _U32)
            hi = _s32(imm >> 32)
            return _STRUCT.pack(self.opcode, regs, _s16(self.off), lo) + _STRUCT.pack(
                0, 0, 0, hi
            )
        return _STRUCT.pack(self.opcode, regs, _s16(self.off), _s32(self.imm))

    @classmethod
    def decode_stream(cls, data: bytes) -> List["Instruction"]:
        """Decode a byte string into a list of logical instructions."""
        if len(data) % 8:
            raise EncodingError("encoded program length must be a multiple of 8")
        insns: List[Instruction] = []
        offset = 0
        while offset < len(data):
            opcode, regs, off, imm = _STRUCT.unpack_from(data, offset)
            offset += 8
            dst, src = regs & 0x0F, regs >> 4
            if opcode == (op.BPF_LD | op.BPF_IMM | op.BPF_DW):
                if offset >= len(data) + 1 and offset + 8 > len(data):
                    raise EncodingError("truncated ld_imm64")
                if offset + 8 > len(data):
                    raise EncodingError("truncated ld_imm64")
                _, _, _, hi = _STRUCT.unpack_from(data, offset)
                offset += 8
                imm64 = ((hi & _U32) << 32) | (imm & _U32)
                insns.append(cls(opcode, dst, src, off, imm64))
            else:
                insns.append(cls(opcode, dst, src, off, imm))
        return insns

    # --- convenience --------------------------------------------------------
    def with_(self, *, opcode: Optional[int] = None, dst: Optional[int] = None,
              src: Optional[int] = None, off: Optional[int] = None,
              imm: Optional[int] = None) -> "Instruction":
        """Return a copy with the given fields replaced.

        Built with the constructor, not ``dataclasses.replace``: codegen
        and the bytecode passes call this per instruction."""
        return Instruction(
            self.opcode if opcode is None else opcode,
            self.dst if dst is None else dst,
            self.src if src is None else src,
            self.off if off is None else off,
            self.imm if imm is None else imm,
        )

    def __str__(self) -> str:  # pragma: no cover - thin wrapper
        from .disassembler import format_instruction

        return format_instruction(self)


def encoded_length(insns: Iterable[Instruction]) -> int:
    """Total encoded size in bytes of *insns*."""
    return 8 * ni(insns)


def ni(insns: Iterable[Instruction]) -> int:
    """The paper's NI metric: encoded size in bytes divided by 8."""
    slots = op.SLOTS
    return sum([slots[insn.opcode] for insn in insns])


# --- constructor helpers ----------------------------------------------------


def _alu(cls_bits: int, name: str, dst: int, src: Optional[int], imm: int) -> Instruction:
    alu_op = op.ALU_OP_BY_NAME[name]
    if src is None:
        return Instruction(cls_bits | alu_op | op.BPF_K, dst=dst, imm=imm)
    return Instruction(cls_bits | alu_op | op.BPF_X, dst=dst, src=src)


def alu64(name: str, dst: int, src: Optional[int] = None, imm: int = 0) -> Instruction:
    """64-bit ALU instruction, register form if *src* given else immediate."""
    return _alu(op.BPF_ALU64, name, dst, src, imm)


def alu32(name: str, dst: int, src: Optional[int] = None, imm: int = 0) -> Instruction:
    """32-bit ALU instruction (zero-extends the destination)."""
    return _alu(op.BPF_ALU, name, dst, src, imm)


def mov64_imm(dst: int, imm: int) -> Instruction:
    return alu64("mov", dst, imm=imm)


def mov64_reg(dst: int, src: int) -> Instruction:
    return alu64("mov", dst, src=src)


def mov32_imm(dst: int, imm: int) -> Instruction:
    return alu32("mov", dst, imm=imm)


def mov32_reg(dst: int, src: int) -> Instruction:
    return alu32("mov", dst, src=src)


def ld_imm64(dst: int, imm: int, src: int = 0) -> Instruction:
    """Load a full 64-bit immediate (occupies two encoding slots).

    *src* carries the pseudo-relocation kind (``BPF_PSEUDO_MAP_FD``
    marks *imm* as a map file descriptor rather than a plain constant).
    """
    return Instruction(
        op.BPF_LD | op.BPF_IMM | op.BPF_DW, dst=dst, src=src, imm=imm & _U64
    )


def load(size: int, dst: int, src: int, off: int = 0) -> Instruction:
    """``dst = *(uN *)(src + off)`` where *size* is the width in bytes."""
    return Instruction(
        op.BPF_LDX | op.BYTES_SIZE[size] | op.BPF_MEM, dst=dst, src=src, off=off
    )


def store_reg(size: int, dst: int, off: int, src: int) -> Instruction:
    """``*(uN *)(dst + off) = src``."""
    return Instruction(
        op.BPF_STX | op.BYTES_SIZE[size] | op.BPF_MEM, dst=dst, src=src, off=off
    )


def store_imm(size: int, dst: int, off: int, imm: int) -> Instruction:
    """``*(uN *)(dst + off) = imm``."""
    return Instruction(
        op.BPF_ST | op.BYTES_SIZE[size] | op.BPF_MEM, dst=dst, off=off, imm=imm
    )


def atomic(size: int, atomic_op: int, dst: int, off: int, src: int) -> Instruction:
    """Atomic read-modify-write: ``lock *(uN*)(dst+off) op= src``."""
    if size not in (4, 8):
        raise EncodingError("atomic operations require 4- or 8-byte width")
    return Instruction(
        op.BPF_STX | op.BYTES_SIZE[size] | op.BPF_ATOMIC,
        dst=dst,
        src=src,
        off=off,
        imm=atomic_op,
    )


def jump(name: str, dst: int = 0, src: Optional[int] = None, imm: int = 0,
         off: int = 0) -> Instruction:
    """Conditional or unconditional jump with a relative *off*."""
    jmp_op = op.JMP_OP_BY_NAME[name]
    if name in ("ja", "exit"):
        return Instruction(op.BPF_JMP | jmp_op, off=off)
    if src is None:
        return Instruction(op.BPF_JMP | jmp_op | op.BPF_K, dst=dst, imm=imm, off=off)
    return Instruction(op.BPF_JMP | jmp_op | op.BPF_X, dst=dst, src=src, off=off)


def jump32(name: str, dst: int = 0, src: Optional[int] = None, imm: int = 0,
           off: int = 0) -> Instruction:
    """32-bit compare jump (JMP32 class)."""
    jmp_op = op.JMP_OP_BY_NAME[name]
    if src is None:
        return Instruction(op.BPF_JMP32 | jmp_op | op.BPF_K, dst=dst, imm=imm, off=off)
    return Instruction(op.BPF_JMP32 | jmp_op | op.BPF_X, dst=dst, src=src, off=off)


def call(helper_id: int) -> Instruction:
    """Call a helper function by numeric id."""
    return Instruction(op.BPF_JMP | op.BPF_CALL, imm=helper_id)


def exit_() -> Instruction:
    return Instruction(op.BPF_JMP | op.BPF_EXIT)
