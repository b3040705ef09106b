"""Abstract register and stack state tracked by the verifier."""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import partial
from typing import Dict, List, NamedTuple, Optional

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
#: the complement of POINTER_TYPES; a tuple, so membership compares by
#: identity instead of calling the Python-level ``Enum.__hash__``
_NON_POINTER_TYPES = tuple(t for t in RegType if t not in POINTER_TYPES)
# the enum members that the checks here and the analyzer's steps
# compare against, as module names: on Python 3.11 every ``RegType.X``
# goes through ``EnumType.__getattr__``'s slow lookup path
_NOT_INIT, _SCALAR = RegType.NOT_INIT, RegType.SCALAR
_PTR_TO_CTX, _PTR_TO_STACK = RegType.PTR_TO_CTX, RegType.PTR_TO_STACK
_PTR_TO_PACKET = RegType.PTR_TO_PACKET
_PTR_TO_PACKET_END = RegType.PTR_TO_PACKET_END
_PTR_TO_MAP_VALUE = RegType.PTR_TO_MAP_VALUE
_PTR_TO_MAP_VALUE_OR_NULL = RegType.PTR_TO_MAP_VALUE_OR_NULL
_CONST_MAP_PTR = RegType.CONST_MAP_PTR
_MAP_ID_TYPES = (_PTR_TO_MAP_VALUE, _CONST_MAP_PTR)
_UNKNOWN = Tnum.unknown()


class RegState(NamedTuple):
    """One register's abstract value.

    Scalars carry a tnum plus unsigned bounds; pointers carry a fixed
    byte offset (``off``), and packet pointers additionally the proven
    readable ``pkt_range``.  Immutable, because copies of a state share
    their registers; a named tuple, because the verifier builds one per
    step and a frozen dataclass's ``__init__`` costs several times more.
    """

    type: RegType = _NOT_INIT
    tnum: Tnum = _UNKNOWN
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
        if tnum is None:
            if umin == 0 and umax == _U64:
                return _UNKNOWN_SCALAR
            tnum = _UNKNOWN
        value, mask = tnum
        bound = (value | mask) & _U64
        return _reg((_SCALAR, tnum, umin if umin > value else value,
                     umax if umax < bound else bound, 0, 0, 0, 0, 0))

    @staticmethod
    def const(value: int) -> "RegState":
        value &= _U64
        return _reg((_SCALAR, Tnum.const(value), value, value, 0, 0, 0, 0,
                     0))

    @staticmethod
    def pointer(ptype: RegType, off: int = 0, **kwargs) -> "RegState":
        return RegState(ptype, tnum=Tnum.const(0), umin=0, umax=0, off=off,
                        **kwargs)

    # --- queries --------------------------------------------------------------
    @property
    def is_pointer(self) -> bool:
        return self.type not in _NON_POINTER_TYPES

    @property
    def is_scalar(self) -> bool:
        return self.type is _SCALAR

    @property
    def is_const(self) -> bool:
        return self.type is _SCALAR and self.tnum.mask == 0

    @property
    def const_value(self) -> int:
        if not self.is_const:
            raise ValueError("register value is not a known constant")
        return self.tnum.value

    def with_(self, **kwargs) -> "RegState":
        return self._replace(**kwargs)

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
        kind = self.type
        if kind is _NOT_INIT:
            return True  # anything is safe where nothing was relied upon
        if kind is not other.type:
            return False
        if kind is _SCALAR:
            if not precise:
                return True
            return (
                other.tnum.is_subset_of(self.tnum)
                and self.umin <= other.umin
                and self.umax >= other.umax
            )
        if self.off != other.off:
            return False
        if kind is _PTR_TO_PACKET:
            return self.pkt_range <= other.pkt_range
        if kind is _PTR_TO_MAP_VALUE_OR_NULL:
            return self.map_id == other.map_id and self.ref_id == other.ref_id
        if kind in _MAP_ID_TYPES:
            return self.map_id == other.map_id
        return True


#: ``RegState`` from a tuple of all nine fields, positionally
_reg = partial(tuple.__new__, RegState)
#: every unknown scalar is this one (a state is immutable)
_UNKNOWN_SCALAR = _reg((_SCALAR, _UNKNOWN, 0, _U64, 0, 0, 0, 0, 0))


class SlotKind(enum.Enum):
    INVALID = 0
    MISC = 1  # initialized scalar bytes
    ZERO = 2
    SPILLED_PTR = 3


@dataclass(frozen=True)
class StackSlot:
    """One stack byte's state.  Immutable, because copies of a state
    share their slots: a change replaces the slot."""

    kind: SlotKind = SlotKind.INVALID
    reg: Optional[RegState] = None  # for spilled registers (8-byte aligned)


_INVALID, _ZERO = SlotKind.INVALID, SlotKind.ZERO
_SPILLED_PTR = SlotKind.SPILLED_PTR


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
        # registers and slots are immutable, so the copies share them
        return VerifierState(regs=list(self.regs), stack=dict(self.stack))

    def subsumes(self, other: "VerifierState",
                 critical: Optional[int] = None) -> bool:
        """*critical* is the mask of registers compared precisely (bit
        n = rn); None compares every register precisely."""
        # copies share their registers and slots, and a register or a
        # slot subsumes itself
        theirs = other.regs
        for index, mine in enumerate(self.regs):
            if mine is theirs[index]:
                continue
            precise = critical is None or bool(critical >> index & 1)
            if not mine.subsumes(theirs[index], precise):
                return False
        other_stack = other.stack
        for offset, slot in self.stack.items():
            kind = slot.kind
            if kind is _INVALID:
                continue
            other_slot = other_stack.get(offset)
            if other_slot is slot:
                continue
            if other_slot is None:
                return False
            if kind is not other_slot.kind:
                return False
            if kind is _SPILLED_PTR:
                assert slot.reg is not None and other_slot.reg is not None
                # spilled scalars compare imprecisely, like registers do
                precise = slot.reg.is_pointer or other_slot.reg.is_pointer
                if not slot.reg.subsumes(other_slot.reg, precise=precise):
                    return False
        return True
