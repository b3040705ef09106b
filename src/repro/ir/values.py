"""SSA values: the common base class plus constants and arguments."""

from __future__ import annotations

from typing import List, TYPE_CHECKING

from .types import IntType, Type

if TYPE_CHECKING:  # pragma: no cover
    from .instructions import IRInstruction


class Value:
    """Anything that can appear as an operand.

    SSA discipline: an instruction value is defined exactly once; uses
    are tracked so passes can run def-use queries and RAUW.
    """

    def __init__(self, ty: Type, name: str = ""):
        self.type = ty
        self.name = name
        self.uses: List["IRInstruction"] = []

    def replace_all_uses_with(self, other: "Value") -> None:
        """Rewrite every user's operand list to refer to *other*."""
        if other is self:
            return
        for user in list(self.uses):
            user.replace_operand(self, other)

    @property
    def ref(self) -> str:
        """Printable reference, e.g. ``%x`` or a literal."""
        return f"%{self.name}"

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.ref}: {self.type}>"


class Constant(Value):
    """An integer literal (wrapped to the type's width)."""

    def __init__(self, ty: IntType, value: int):
        super().__init__(ty)
        if not isinstance(ty, IntType):
            raise TypeError("constants must have integer type")
        self.value = value & ty.mask

    @property
    def signed(self) -> int:
        """The value interpreted as signed."""
        sign_bit = 1 << (self.type.bits - 1)
        return self.value - (1 << self.type.bits) if self.value & sign_bit else self.value

    @property
    def ref(self) -> str:
        return str(self.signed)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Constant)
            and other.type == self.type
            and other.value == self.value
        )

    def __hash__(self) -> int:
        return hash((self.type, self.value))


class UndefValue(Value):
    """An undefined value (used only transiently by passes)."""

    @property
    def ref(self) -> str:
        return "undef"


class Argument(Value):
    """A function parameter."""

    def __init__(self, ty: Type, name: str, index: int):
        super().__init__(ty, name)
        self.index = index


class GlobalSymbol(Value):
    """A module-level symbol, e.g. an eBPF map referenced by ld_imm64."""

    def __init__(self, ty: Type, name: str):
        super().__init__(ty, name)

    @property
    def ref(self) -> str:
        return f"@{self.name}"
