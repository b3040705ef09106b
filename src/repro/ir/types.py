"""Type system for the SSA IR (a small subset of LLVM's).

Integers of 8/16/32/64 bits, pointers, fixed arrays, and named structs
with explicit field offsets (so the frontend controls layout, exactly
like clang does for eBPF's context structs).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple


class Type:
    """Base class of all IR types.

    A type's text is computed once, when it is made (``_text``): the IR
    printer renders one per operand, and cache keys hash that text."""

    #: whether this is ``void``; ``VoidType`` says so
    is_void = False
    _text = ""

    def __str__(self) -> str:
        return self._text

    @property
    def size_bytes(self) -> int:
        raise NotImplementedError

    @property
    def is_pointer(self) -> bool:
        return isinstance(self, PointerType)


@dataclass(frozen=True)
class VoidType(Type):
    is_void = True
    _text = "void"

    @property
    def size_bytes(self) -> int:
        return 0


@dataclass(frozen=True)
class IntType(Type):
    """An integer of 8, 16, 32 or 64 bits."""

    bits: int

    def __post_init__(self) -> None:
        if self.bits not in (1, 8, 16, 32, 64):
            raise ValueError(f"unsupported integer width: {self.bits}")
        object.__setattr__(self, "_text", f"i{self.bits}")

    @property
    def size_bytes(self) -> int:
        return max(1, self.bits // 8)

    @property
    def mask(self) -> int:
        return (1 << self.bits) - 1


@dataclass(frozen=True)
class PointerType(Type):
    """Pointer to *pointee*.  All pointers are 64 bits on eBPF."""

    pointee: Type

    def __post_init__(self) -> None:
        object.__setattr__(self, "_text", f"{self.pointee}*")

    @property
    def size_bytes(self) -> int:
        return 8


@dataclass(frozen=True)
class ArrayType(Type):
    element: Type
    count: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "_text", f"[{self.count} x {self.element}]")

    @property
    def size_bytes(self) -> int:
        return self.element.size_bytes * self.count


@dataclass(frozen=True)
class StructField:
    name: str
    type: Type
    offset: int


@dataclass(frozen=True)
class StructType(Type):
    """A named struct with explicit byte offsets (C layout decided by
    the frontend)."""

    name: str
    fields: Tuple[StructField, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "_text", f"%struct.{self.name}")

    @property
    def size_bytes(self) -> int:
        if not self.fields:
            return 0
        last = max(self.fields, key=lambda f: f.offset)
        size = last.offset + last.type.size_bytes
        # round up to 8-byte alignment like C would for 64-bit members
        align = self.alignment
        return (size + align - 1) // align * align

    @property
    def alignment(self) -> int:
        return max((natural_alignment(f.type) for f in self.fields), default=1)

    def field(self, name: str) -> StructField:
        for f in self.fields:
            if f.name == name:
                return f
        raise KeyError(f"struct {self.name} has no field {name!r}")


VOID = VoidType()
I1 = IntType(1)
I8 = IntType(8)
I16 = IntType(16)
I32 = IntType(32)
I64 = IntType(64)


def int_type(bits: int) -> IntType:
    return {1: I1, 8: I8, 16: I16, 32: I32, 64: I64}[bits]


def pointer(pointee: Type) -> PointerType:
    return PointerType(pointee)


def natural_alignment(ty: Type) -> int:
    """The ABI alignment of *ty* (what a well-aligned object guarantees)."""
    if isinstance(ty, IntType):
        return ty.size_bytes
    if isinstance(ty, PointerType):
        return 8
    if isinstance(ty, ArrayType):
        return natural_alignment(ty.element)
    if isinstance(ty, StructType):
        return ty.alignment
    return 1


def make_struct(name: str, members: List[Tuple[str, Type]],
                packed: bool = False) -> StructType:
    """Lay out *members* in order with C-like padding (or none if packed)."""
    fields: List[StructField] = []
    offset = 0
    for member_name, ty in members:
        if not packed:
            align = natural_alignment(ty)
            offset = (offset + align - 1) // align * align
        fields.append(StructField(member_name, ty, offset))
        offset += ty.size_bytes
    return StructType(name, tuple(fields))
