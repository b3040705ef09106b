"""Control flow over eBPF bytecode.

The one owner of the decisions every bytecode consumer shares: how
``ld_imm64`` expands to slots, where a jump's offset lands, which
instructions start and end basic blocks, each block's terminator and
successors, and a backward dataflow solver over integer register masks
(bit n = rn).  Dep (:mod:`repro.core.bytecode_passes.analysis`), the
verifier's precision liveness and the PGO layout pass read a
:class:`Cfg`; the VM interpreter, the symbolic program, TV's region
check and the jump peepholes use its slot expansion, target resolution
and terminator kinds.

A :class:`Cfg` is built over a plain instruction sequence and, per
instruction, the index its jump lands on.  By default the targets come
from the jump offsets (:func:`slot_targets`); a caller that tracks
targets itself (a symbolic program whose entries move) passes them.
A target of ``len(insns)`` or more, or ``None``, is the end of the
program; a negative one (:data:`FAULT`) names a slot that starts no
instruction: out of bounds, or the second slot of an ``ld_imm64``.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Tuple

from . import opcodes as op
from .instruction import Instruction

#: terminator kinds: how a block's last instruction passes control on
FALL = "fall"  # not a jump: control continues at the next instruction
JA = "ja"  # unconditional jump
COND = "cond"  # conditional jump: taken target, else the next instruction
EXIT = "exit"

#: target of a jump that lands on no instruction start
FAULT = -1


def _kind(opcode: int) -> str:
    if not op.IS_JUMP[opcode] or op.IS_CALL[opcode]:
        return FALL  # helper calls return to the next instruction
    if op.IS_EXIT[opcode]:
        return EXIT
    return JA if op.OP_CODE[opcode] == op.BPF_JA else COND


#: terminator kind of every opcode
KIND: Tuple[str, ...] = tuple(_kind(opcode) for opcode in range(256))
#: whether each opcode ends a basic block: jumps and exits, not calls
ENDS_BLOCK: Tuple[bool, ...] = tuple(kind is not FALL for kind in KIND)


def expand_slots(insns: Sequence[Instruction]) -> List[Optional[Instruction]]:
    """One entry per 8-byte slot: the instruction that starts there, or
    None for the second slot of an ``ld_imm64``."""
    slots: List[Optional[Instruction]] = []
    for insn in insns:
        slots.append(insn)
        if insn.slots == 2:
            slots.append(None)
    return slots


def slot_targets(insns: Sequence[Instruction]) -> List[Optional[int]]:
    """The instruction index each jump's offset lands on: ``len(insns)``
    one slot past the last instruction, :data:`FAULT` for any other slot
    that starts no instruction, None for an instruction with no target
    (not a jump, a call or an exit)."""
    index_at = {}
    slot = 0
    for index, insn in enumerate(insns):
        index_at[slot] = index
        slot += op.SLOTS[insn.opcode]
    index_at[slot] = len(insns)
    targets: List[Optional[int]] = []
    slot = 0
    for insn in insns:
        opcode = insn.opcode
        width = op.SLOTS[opcode]
        if KIND[opcode] in (JA, COND):
            targets.append(index_at.get(slot + width + insn.off, FAULT))
        else:
            targets.append(None)
        slot += width
    return targets


class Cfg:
    """Basic blocks over an instruction sequence.

    Leaders are instruction 0, every in-bounds jump target and every
    instruction after a jump or exit (helper calls do not end blocks).
    Block ``b`` spans instructions ``first[b]`` to ``last[b]``; the last
    one decides ``kind[b]`` (:data:`FALL`, :data:`JA`, :data:`COND` or
    :data:`EXIT`).  ``taken[b]`` is the jump target's block (JA and
    COND), ``fall[b]`` the next block (COND and FALL).  A successor of
    ``len(first)`` is the end of the program and :data:`FAULT` a fault
    target; ``succs[b]`` lists the real ones, fall-through first.
    Unreachable blocks are kept.
    """

    def __init__(self, insns: Sequence[Instruction],
                 targets: Optional[Sequence[Optional[int]]] = None):
        if targets is None:
            targets = slot_targets(insns)
        n = len(insns)
        self.insns = insns
        self.targets = targets
        kinds = [KIND[insn.opcode] for insn in insns]
        ends = [index for index, kind in enumerate(kinds) if kind is not FALL]
        leaders = {0, *(index + 1 for index in ends)} if n else set()
        leaders.update(targets[index] for index in ends
                       if kinds[index] is not EXIT)
        first = sorted(t for t in leaders if t is not None and 0 <= t < n)
        end = len(first)
        block_at = {start: b for b, start in enumerate(first)}
        self.first = first
        self.last = [start - 1 for start in first[1:]] + ([n - 1] if n else [])
        self.kind: List[str] = []
        self.taken: List[Optional[int]] = []
        self.fall: List[Optional[int]] = []
        self.succs: List[Tuple[int, ...]] = []
        for b, last in enumerate(self.last):
            kind = kinds[last]
            taken = fall = None
            succs: Tuple[int, ...] = ()
            if kind is COND or kind is FALL:
                fall = b + 1
                if fall < end:
                    succs = (fall,)
            if kind is JA or kind is COND:
                target = targets[last]
                if target is None or target >= n:
                    taken = end
                elif target < 0:
                    taken = FAULT
                else:
                    taken = block_at[target]
                    if taken != fall:
                        succs += (taken,)
            self.kind.append(kind)
            self.taken.append(taken)
            self.fall.append(fall)
            self.succs.append(succs)

    def fall_through(self, b: int) -> None:
        """Block *b*'s terminator became a nop: control now falls
        through to the next block."""
        self.kind[b] = FALL
        self.taken[b] = None
        self.fall[b] = b + 1
        self.succs[b] = (b + 1,) if b + 1 < len(self.first) else ()

    def solve(self, transfer: Callable[[int, int], int]) -> List[int]:
        """Least fixpoint of a backward problem over register masks:
        ``out[b]`` is the union of ``in_[s]`` over ``succs[b]`` (the end
        of the program and fault targets contribute nothing), and
        ``in_[b] = transfer(b, out[b])``.  *transfer* must be monotone.
        Returns ``out``; a client walks each block back from it for
        per-instruction masks."""
        succs = self.succs
        nblocks = len(succs)
        live_in = [0] * nblocks
        live_out = [0] * nblocks
        order = range(nblocks - 1, -1, -1)
        changed = True
        while changed:
            changed = False
            for b in order:
                out = 0
                for s in succs[b]:
                    out |= live_in[s]
                live_out[b] = out
                new_in = transfer(b, out)
                if new_in != live_in[b]:
                    live_in[b] = new_in
                    changed = True
        return live_out
