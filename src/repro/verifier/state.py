"""Abstract register and stack state tracked by the verifier."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

from ..isa import opcodes as op
from .tnum import Tnum

_U64 = (1 << 64) - 1


class RegType(enum.Enum):
    NOT_INIT = "not_init"
    SCALAR = "scalar"
    PTR_TO_CTX = "ctx"
    PTR_TO_STACK = "stack"
    PTR_TO_PACKET = "pkt"
    PTR_TO_PACKET_END = "pkt_end"
    PTR_TO_MAP_VALUE = "map_value"
    PTR_TO_MAP_VALUE_OR_NULL = "map_value_or_null"
    CONST_MAP_PTR = "map_ptr"


POINTER_TYPES = {
    RegType.PTR_TO_CTX,
    RegType.PTR_TO_STACK,
    RegType.PTR_TO_PACKET,
    RegType.PTR_TO_PACKET_END,
    RegType.PTR_TO_MAP_VALUE,
    RegType.PTR_TO_MAP_VALUE_OR_NULL,
    RegType.CONST_MAP_PTR,
}


@dataclass(frozen=True)
class RegState:
    """One register's abstract value.

    Scalars carry a tnum plus unsigned bounds; pointers carry a fixed
    byte offset (``off``), and packet pointers additionally the proven
    readable ``pkt_range``.
    """

    type: RegType = RegType.NOT_INIT
    tnum: Tnum = Tnum.unknown()
    umin: int = 0
    umax: int = _U64
    off: int = 0
    pkt_range: int = 0
    map_id: int = 0  # for map handles and map-value pointers
    value_size: int = 0  # map value size, for bounds checks
    ref_id: int = 0  # identity shared by copies of one map_lookup result

    # --- constructors ----------------------------------------------------
    @staticmethod
    def not_init() -> "RegState":
        return RegState()

    @staticmethod
    def scalar(tnum: Optional[Tnum] = None, umin: int = 0,
               umax: int = _U64) -> "RegState":
        t = tnum if tnum is not None else Tnum.unknown()
        return RegState(
            RegType.SCALAR,
            tnum=t,
            umin=max(umin, t.umin),
            umax=min(umax, t.umax),
        )

    @staticmethod
    def const(value: int) -> "RegState":
        value &= _U64
        return RegState(RegType.SCALAR, tnum=Tnum.const(value), umin=value,
                        umax=value)

    @staticmethod
    def pointer(ptype: RegType, off: int = 0, **kwargs) -> "RegState":
        return RegState(ptype, tnum=Tnum.const(0), umin=0, umax=0, off=off,
                        **kwargs)

    # --- queries --------------------------------------------------------------
    @property
    def is_pointer(self) -> bool:
        return self.type in POINTER_TYPES

    @property
    def is_scalar(self) -> bool:
        return self.type == RegType.SCALAR

    @property
    def is_const(self) -> bool:
        return self.is_scalar and self.tnum.is_const

    @property
    def const_value(self) -> int:
        if not self.is_const:
            raise ValueError("register value is not a known constant")
        return self.tnum.value

    def with_(self, **kwargs) -> "RegState":
        return replace(self, **kwargs)

    # --- lattice ---------------------------------------------------------------
    def subsumes(self, other: "RegState", precise: bool = True) -> bool:
        """True when every concrete state of *other* is covered by self
        (pruning is safe when the stored, already-verified state
        subsumes the new one).

        ``precise=False`` is the kernel's ``regsafe`` shortcut: a scalar
        whose exact bounds were never needed for a safety decision
        matches any other scalar, which is what keeps path exploration
        from exploding on value-carrying registers (accumulators,
        verdict flags) that differ across branches.
        """
        if self.type == RegType.NOT_INIT:
            return True  # anything is safe where nothing was relied upon
        if self.type != other.type:
            return False
        if self.is_scalar:
            if not precise:
                return True
            return (
                other.tnum.is_subset_of(self.tnum)
                and self.umin <= other.umin
                and self.umax >= other.umax
            )
        if self.off != other.off:
            return False
        if self.type == RegType.PTR_TO_PACKET:
            return self.pkt_range <= other.pkt_range
        if self.type == RegType.PTR_TO_MAP_VALUE_OR_NULL:
            return self.map_id == other.map_id and self.ref_id == other.ref_id
        if self.type in (RegType.PTR_TO_MAP_VALUE, RegType.CONST_MAP_PTR):
            return self.map_id == other.map_id
        return True


class SlotKind(enum.Enum):
    INVALID = 0
    MISC = 1  # initialized scalar bytes
    ZERO = 2
    SPILLED_PTR = 3


@dataclass
class StackSlot:
    kind: SlotKind = SlotKind.INVALID
    reg: Optional[RegState] = None  # for spilled registers (8-byte aligned)


class VerifierState:
    """Registers + stack for one exploration path."""

    __slots__ = ("regs", "stack")

    def __init__(self, regs: Optional[List[RegState]] = None,
                 stack: Optional[Dict[int, StackSlot]] = None):
        if regs is None:
            regs = [RegState.not_init() for _ in range(11)]
            regs[op.R1] = RegState.pointer(RegType.PTR_TO_CTX)
            regs[op.R10] = RegState.pointer(RegType.PTR_TO_STACK)
        self.regs = regs
        # stack keyed by byte offset (negative, relative to r10)
        self.stack: Dict[int, StackSlot] = stack if stack is not None else {}

    def copy(self) -> "VerifierState":
        return VerifierState(
            regs=list(self.regs),
            stack={k: StackSlot(v.kind, v.reg) for k, v in self.stack.items()},
        )

    def subsumes(self, other: "VerifierState",
                 critical: Optional[int] = None) -> bool:
        """*critical* is the mask of registers compared precisely (bit
        n = rn); None compares every register precisely."""
        for index, (mine, theirs) in enumerate(zip(self.regs, other.regs)):
            precise = critical is None or bool(critical >> index & 1)
            if not mine.subsumes(theirs, precise=precise):
                return False
        for offset, slot in self.stack.items():
            other_slot = other.stack.get(offset)
            if slot.kind == SlotKind.INVALID:
                continue
            if other_slot is None:
                return False
            if slot.kind != other_slot.kind:
                return False
            if slot.kind == SlotKind.SPILLED_PTR:
                assert slot.reg is not None and other_slot.reg is not None
                # spilled scalars compare imprecisely, like registers do
                precise = slot.reg.is_pointer or other_slot.reg.is_pointer
                if not slot.reg.subsumes(other_slot.reg, precise=precise):
                    return False
        return True
