"""Linear-scan register allocation onto the ten eBPF registers.

r0-r7 are allocatable (r6/r7 only for intervals that live across helper
calls, since calls clobber r0-r5); r8/r9 are reserved as spill scratch;
r10 is the read-only frame pointer.  Spilled virtual registers live in
8-byte stack slots below the allocas.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from itertools import accumulate
from typing import Dict, List, Optional, Set, Tuple

from ..isa import Instruction
from ..isa import opcodes as op
from ..isa.cfg import Cfg
from .lowfunc import VREG_BASE, Label, LowFunction, LowInsn, is_vreg

#: opcodes of a spill's reload and store (8-byte, through r10)
_SPILL_LOAD = op.BPF_LDX | op.BYTES_SIZE[8] | op.BPF_MEM
_SPILL_STORE = op.BPF_STX | op.BYTES_SIZE[8] | op.BPF_MEM
#: the bits of every virtual register in a register mask
_VREG_BITS = -1 << VREG_BASE

ALLOCATABLE = (op.R0, op.R1, op.R2, op.R3, op.R4, op.R5, op.R6, op.R7)
CALL_SAFE = (op.R6, op.R7)
SCRATCH_DEF = op.R8
SCRATCH_USE = op.R9


@dataclass
class Interval:
    reg: int  # virtual register id
    start: int
    end: int
    phys: Optional[int] = None
    slot: Optional[int] = None  # stack offset when spilled


def _regs(mask: int) -> List[int]:
    """The registers whose bits are set in *mask*."""
    regs = []
    while mask:
        bit = mask & -mask
        regs.append(bit.bit_length() - 1)
        mask ^= bit
    return regs


class LinearScanAllocator:
    """Allocates a :class:`LowFunction` in place.

    Each instruction's ``uses()`` and ``defs()`` are read once, and every
    later phase works from those tuples.  Liveness is solved on the
    shared bytecode CFG (:meth:`repro.isa.cfg.Cfg.liveness`), over the
    virtual registers' bits.  :meth:`_allocate` takes the intervals in
    ``(start, end, vreg)`` order, so two intervals with the same extent
    go to the lower vreg first.  The physical registers are written
    into the instructions in place; the only instructions allocation
    adds are the reloads and stores of spilled registers.
    """

    def __init__(self, low: LowFunction):
        self.low = low
        self.insns: List[LowInsn] = list(low.insns())
        self.label_pos: Dict[str, int] = self._label_positions()
        self.intervals: Dict[int, Interval] = {}
        self.call_regions: List[Tuple[int, int]] = []
        self.phys_ranges: Dict[int, List[Tuple[int, int]]] = {}
        #: ``uses()`` and ``defs()`` of each instruction, by position
        self.uses: List[Tuple[int, ...]] = []
        self.defs: List[Tuple[int, ...]] = []

    # ------------------------------------------------------------- plumbing
    def _label_positions(self) -> Dict[str, int]:
        positions: Dict[str, int] = {}
        pos = 0
        for item in self.low.items:
            if isinstance(item, Label):
                positions[item.name] = pos
            else:
                pos += 1
        return positions

    def run(self) -> LowFunction:
        # Instruction's rules, applied to the LowInsns' own fields
        uses, defs = Instruction.uses, Instruction.defs
        self.uses = [uses(low) for low in self.insns]
        self.defs = [defs(low) for low in self.insns]
        self._build_intervals()
        self._collect_call_regions()
        self._collect_phys_ranges()
        self._allocate()
        self._rewrite()
        return self.low

    # ------------------------------------------------------------ liveness
    def _build_intervals(self) -> None:
        """Each virtual register's interval, from the first position to
        the last where it is named or live at a block's entry or exit.

        Blocks are visited in position order, so a register's start is
        fixed in the first block it appears in and its end moves up to
        the last.  Within a block it counts once, at its first and last
        mention, widened to the block's entry if it is live in and to
        the block's exit if it is live out.  Only the bits that can
        move an extent are read one by one: live-in registers not yet
        started, and live-out ones that no later successor takes in."""
        insns, label_pos = self.insns, self.label_pos
        cfg = Cfg(insns, [None if low.target is None else label_pos[low.target]
                          for low in insns])
        use_mask = Instruction.use_mask.fget
        def_mask = Instruction.def_mask.fget
        live_in, live_out = cfg.liveness([use_mask(low) for low in insns],
                                         [def_mask(low) for low in insns])
        uses, defs, succs = self.uses, self.defs, cfg.succs
        start: Dict[int, int] = {}
        end: Dict[int, int] = {}
        unstarted = _VREG_BITS
        for b, first in enumerate(cfg.first):
            last = cfg.last[b]
            for reg in _regs(live_in[b] & unstarted):
                start[reg] = first
                unstarted ^= 1 << reg
            touched: Dict[int, List[int]] = {}
            for i in range(first, last + 1):
                for reg in uses[i] + defs[i]:
                    if reg >= VREG_BASE:
                        span = touched.get(reg)
                        if span is None:
                            touched[reg] = [i, i]
                        else:
                            span[1] = i
            for reg, (lo, hi) in touched.items():
                if reg not in start:
                    start[reg] = lo
                    unstarted ^= 1 << reg
                end[reg] = hi
            # a register live into a later block is named there or live
            # out of it, which takes its end past this block; only
            # those live out through a jump back end here
            back = live_out[b] & _VREG_BITS
            for s in succs[b]:
                if s > b:
                    back &= ~live_in[s]
            for reg in _regs(back):
                end[reg] = last
        self.intervals = {reg: Interval(reg, lo, end[reg])
                          for reg, lo in start.items()}

    def _collect_call_regions(self) -> None:
        groups: Dict[int, Tuple[int, int]] = {}
        for pos, low in enumerate(self.insns):
            if low.group is not None:
                first, last = groups.get(low.group, (pos, pos))
                groups[low.group] = (min(first, pos), max(last, pos))
            elif op.IS_CALL[low.opcode]:
                groups.setdefault(-pos - 1, (pos, pos))
        self.call_regions = sorted(groups.values())

    def _collect_phys_ranges(self) -> None:
        """Live ranges of *physical* registers (ABI args, call results)."""
        last_def: Dict[int, int] = {reg: -1 for reg in op.ARG_REGS}
        ranges: Dict[int, List[Tuple[int, int]]] = {}
        group_args: Dict[int, Set[int]] = {}
        for low in self.insns:
            if low.group is not None and op.IS_ALU[low.opcode] \
                    and not is_vreg(low.dst):
                group_args.setdefault(low.group, set()).add(low.dst)
        uses, defs = self.uses, self.defs
        for pos, low in enumerate(self.insns):
            call = op.IS_CALL[low.opcode]
            if call:
                used = group_args.get(low.group or 0, ())
            else:
                used = uses[pos]
            for reg in used:
                if reg >= VREG_BASE or reg == op.FP or reg not in last_def:
                    continue
                ranges.setdefault(reg, []).append((last_def[reg], pos))
            for reg in defs[pos]:
                if reg < VREG_BASE:
                    last_def[reg] = pos
            if call:
                for reg in op.CALLER_SAVED:
                    last_def[reg] = pos
        # merge ranges sharing a def point
        merged: Dict[int, List[Tuple[int, int]]] = {}
        for reg, pairs in ranges.items():
            by_def: Dict[int, int] = {}
            for start, end in pairs:
                by_def[start] = max(by_def.get(start, start), end)
            merged[reg] = sorted(by_def.items())
        self.phys_ranges = merged

    # ------------------------------------------------------------ allocation
    def _allocate(self) -> None:
        # Ranges sorted by start: those starting before an interval's
        # end are a prefix, and the interval overlaps one of them when
        # the prefix's furthest end lies past the interval's start.
        call_starts = [start for start, _ in self.call_regions]
        call_reach = list(accumulate(
            (call for _, call in self.call_regions), max))
        phys = {reg: ([start for start, _ in pairs],
                      list(accumulate((end for _, end in pairs), max)))
                for reg, pairs in self.phys_ranges.items()}
        order = sorted(self.intervals.values(),
                       key=lambda iv: (iv.start, iv.end, iv.reg))
        active: List[Interval] = []
        for interval in order:
            start, end = interval.start, interval.end
            active = [a for a in active if a.end > start]
            in_use = {a.phys for a in active if a.phys is not None}
            k = bisect_left(call_starts, end)
            crosses_call = k and call_reach[k - 1] > start
            pool = CALL_SAFE if crosses_call else ALLOCATABLE
            choice = None
            for reg in pool:
                if reg in in_use:
                    continue
                ranges = phys.get(reg)
                if ranges is not None:
                    k = bisect_left(ranges[0], end)
                    if k and ranges[1][k - 1] > start:
                        continue
                choice = reg
                break
            if choice is not None:
                interval.phys = choice
                active.append(interval)
                continue
            # no register free: spill the conflicting interval ending last
            candidates = [a for a in active if a.phys in pool] + [interval]
            victim = max(candidates, key=lambda iv: iv.end)
            if victim is interval:
                interval.slot = self.low.alloc_stack(8, 8)
            else:
                interval.phys, victim.phys = victim.phys, None
                victim.slot = self.low.alloc_stack(8, 8)
                active.remove(victim)
                active.append(interval)

    # ------------------------------------------------------------- rewriting
    def _rewrite(self) -> None:
        """Write the physical registers into the instructions that name
        virtual ones, and put each spilled register's reload before and
        store after the instruction that reads or writes it."""
        new_items: List[object] = []
        pos = -1
        for item in self.low.items:
            if isinstance(item, Label):
                new_items.append(item)
                continue
            pos += 1
            dst, src = item.dst, item.src
            # an ld_imm64's src is its pseudo-relocation kind, and a src
            # equal to dst is rewritten along with it
            ld_imm64 = op.IS_LD_IMM64[item.opcode]
            same = dst == src and not ld_imm64
            src_vreg = src >= VREG_BASE and not same and not ld_imm64
            if dst < VREG_BASE and not src_vreg:
                new_items.append(item)
                continue
            post: List[LowInsn] = []
            if dst >= VREG_BASE:
                item.dst = self._place(dst, SCRATCH_DEF, pos, new_items, post)
                if same:
                    item.src = item.dst
            if src_vreg:
                item.src = self._place(src, SCRATCH_USE, pos, new_items, post)
            new_items.append(item)
            new_items.extend(post)
        self.low.items = new_items

    def _place(self, reg: int, scratch: int, pos: int, pre: List[object],
               post: List[LowInsn]) -> int:
        """The physical register for virtual *reg* in the instruction at
        *pos*: its own, or *scratch* when it is spilled, loaded from its
        slot (appended to *pre*) if the instruction reads it and stored
        back (appended to *post*) if it writes it."""
        interval = self.intervals[reg]
        if interval.phys is not None:
            return interval.phys
        if reg in self.uses[pos]:
            pre.append(LowInsn(_SPILL_LOAD, scratch, op.FP, interval.slot))
        if reg in self.defs[pos]:
            post.append(LowInsn(_SPILL_STORE, op.FP, scratch, interval.slot))
        return scratch


def allocate(low: LowFunction) -> LowFunction:
    """Run linear-scan allocation on *low* in place and return it."""
    return LinearScanAllocator(low).run()
