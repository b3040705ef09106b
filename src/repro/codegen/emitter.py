"""Final emission: resolve labels to instruction indices, then to
slot-relative offsets, and build the :class:`~repro.isa.program.BpfProgram`.

Label resolution builds each instruction's one
:class:`~repro.isa.Instruction` from the fields the selector and the
register allocator left on its ``LowInsn``."""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional

from ..isa import BpfProgram, Instruction, ProgramType
from ..isa import opcodes as op
from .lowfunc import VREG_BASE, Label, LowFunction

if TYPE_CHECKING:  # pragma: no cover - repro.core imports codegen
    from ..core.bytecode_passes.symbolic import SymbolicProgram


class EmissionError(Exception):
    """Raised when a LowFunction cannot be emitted (unresolved labels,
    leftover virtual registers, out-of-range branch offsets)."""


def resolve_labels(low: LowFunction) -> "SymbolicProgram":
    """Check *low* and resolve its labels: a
    :class:`~repro.core.bytecode_passes.symbolic.SymbolicProgram` whose
    jumps name the index of the instruction they land on (a label at
    the very end resolves to the end).  Its ``to_insns`` computes the
    offsets, after the native cleanup when there is one."""
    from ..core.bytecode_passes.symbolic import SymbolicProgram, SymInsn

    # slot offset of each instruction; index and slot of each label
    label_index: Dict[str, int] = {}
    label_slot: Dict[str, int] = {}
    slots: List[int] = []
    slot = 0
    for item in low.items:
        if isinstance(item, Label):
            if item.name in label_index:
                raise EmissionError(f"duplicate label {item.name!r}")
            label_index[item.name] = len(slots)
            label_slot[item.name] = slot
        else:
            slots.append(slot)
            slot += op.SLOTS[item.opcode]

    entries: List[SymInsn] = []
    for item in low.items:
        if isinstance(item, Label):
            continue
        if item.dst >= VREG_BASE or item.src >= VREG_BASE:
            reg = item.dst if item.dst >= VREG_BASE else item.src
            raise EmissionError(
                f"virtual register v{reg} survived allocation in {low.name}")
        off = item.off
        target = item.target
        if target is not None:
            if target not in label_index:
                raise EmissionError(f"undefined label {target!r}")
            off = label_slot[target] - (slots[len(entries)]
                                        + op.SLOTS[item.opcode])
            if not -(1 << 15) <= off < (1 << 15):
                raise EmissionError(f"branch offset {off} out of 16-bit range")
            target = label_index[target]
        # a jump carries its offset before any cleanup: ``to_insns``
        # builds it again only if a deletion moved its target
        entries.append(SymInsn(
            Instruction(item.opcode, item.dst, item.src, off, item.imm),
            target))
    return SymbolicProgram(entries)


def emit(
    low: LowFunction,
    prog_type: ProgramType = ProgramType.XDP,
    maps: Optional[Dict[str, object]] = None,
    mcpu: str = "v2",
    ctx_size: int = 64,
) -> BpfProgram:
    """Resolve labels and produce a loadable program."""
    return BpfProgram(
        name=low.name,
        insns=resolve_labels(low).to_insns(),
        prog_type=prog_type,
        maps=dict(maps or {}),
        mcpu=mcpu,
        ctx_size=ctx_size,
    )
