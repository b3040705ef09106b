"""Linear-scan register allocation onto the ten eBPF registers.

r0-r7 are allocatable (r6/r7 only for intervals that live across helper
calls, since calls clobber r0-r5); r8/r9 are reserved as spill scratch;
r10 is the read-only frame pointer.  Spilled virtual registers live in
8-byte stack slots below the allocas.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Dict, List, Optional, Set, Tuple

from ..isa import Instruction
from ..isa import opcodes as op
from .lowfunc import VREG_BASE, Label, LowFunction, LowInsn, is_vreg

#: opcodes of a spill's reload and store (8-byte, through r10)
_SPILL_LOAD = op.BPF_LDX | op.BYTES_SIZE[8] | op.BPF_MEM
_SPILL_STORE = op.BPF_STX | op.BYTES_SIZE[8] | op.BPF_MEM

ALLOCATABLE = (op.R0, op.R1, op.R2, op.R3, op.R4, op.R5, op.R6, op.R7)
CALL_SAFE = (op.R6, op.R7)
SCRATCH_DEF = op.R8
SCRATCH_USE = op.R9


class AllocationError(Exception):
    """Raised when allocation cannot make progress (should not happen)."""


@dataclass
class Interval:
    reg: int  # virtual register id
    start: int
    end: int
    phys: Optional[int] = None
    slot: Optional[int] = None  # stack offset when spilled

    @property
    def spilled(self) -> bool:
        return self.slot is not None


@dataclass
class _Block:
    first: int
    last: int
    succs: List[int] = field(default_factory=list)
    use: Set[int] = field(default_factory=set)
    defs: Set[int] = field(default_factory=set)
    live_in: Set[int] = field(default_factory=set)
    live_out: Set[int] = field(default_factory=set)
    #: virtual register -> [first, last] position naming it in the block,
    #: in the order the block's instructions first name them
    touched: Dict[int, List[int]] = field(default_factory=dict)


class LinearScanAllocator:
    """Allocates a :class:`LowFunction` in place.

    Each instruction's ``uses()`` and ``defs()`` are read once, and every
    later phase works from those tuples.  Intervals are created in the
    order their registers are first touched (block live-in, live-out,
    then the block's instructions in order): :meth:`_allocate` sorts
    them by ``(start, end)`` and that order breaks the ties, so it
    decides which register each interval gets.  The physical registers
    are written into the instructions in place; the only instructions
    allocation adds are the reloads and stores of spilled registers.
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
        blocks = self._build_blocks()
        self._solve_liveness(blocks)
        self._build_intervals(blocks)
        self._collect_call_regions()
        self._collect_phys_ranges()
        self._allocate()
        self._rewrite()
        return self.low

    # ----------------------------------------------------------------- CFG
    def _build_blocks(self) -> List[_Block]:
        n = len(self.insns)
        leaders = {0} | set(self.label_pos.values())
        for i, low in enumerate(self.insns):
            if op.IS_JUMP[low.opcode]:  # jumps, calls and exits
                leaders.add(i + 1)
        leaders = sorted(p for p in leaders if p < n)
        blocks: List[_Block] = []
        starts = leaders + [n]
        index_of_start = {s: bi for bi, s in enumerate(leaders)}
        for bi, start in enumerate(leaders):
            block = _Block(first=start, last=starts[bi + 1] - 1)
            last = self.insns[block.last]
            code = last.opcode
            if op.IS_EXIT[code]:
                pass
            elif op.IS_JUMP[code] and not op.IS_CALL[code]:
                if last.target is not None:
                    block.succs.append(
                        index_of_start[self.label_pos[last.target]])
                if op.OP_CODE[code] != op.BPF_JA and block.last + 1 < n:
                    block.succs.append(index_of_start[block.last + 1])
            elif block.last + 1 < n:
                block.succs.append(index_of_start[block.last + 1])
            blocks.append(block)
        uses, defs = self.uses, self.defs
        for block in blocks:
            use, kill, touched = block.use, block.defs, block.touched
            for i in range(block.first, block.last + 1):
                for reg in uses[i]:
                    if reg >= VREG_BASE and reg not in kill:
                        use.add(reg)
                for reg in defs[i]:
                    if reg >= VREG_BASE:
                        kill.add(reg)
                for reg in uses[i] + defs[i]:
                    if reg >= VREG_BASE:
                        span = touched.get(reg)
                        if span is None:
                            touched[reg] = [i, i]
                        else:
                            span[1] = i
        return blocks

    def _solve_liveness(self, blocks: List[_Block]) -> None:
        changed = True
        while changed:
            changed = False
            for block in reversed(blocks):
                out: Set[int] = set()
                for si in block.succs:
                    out |= blocks[si].live_in
                new_in = block.use | (out - block.defs)
                if out != block.live_out or new_in != block.live_in:
                    block.live_out = out
                    block.live_in = new_in
                    changed = True

    def _build_intervals(self, blocks: List[_Block]) -> None:
        intervals = self.intervals

        def touch(reg: int, lo: int, hi: int) -> None:
            interval = intervals.get(reg)
            if interval is None:
                intervals[reg] = Interval(reg, lo, hi)
            else:
                if lo < interval.start:
                    interval.start = lo
                if hi > interval.end:
                    interval.end = hi

        for block in blocks:
            for reg in block.live_in:
                touch(reg, block.first, block.first)
            for reg in block.live_out:
                touch(reg, block.last, block.last)
            for reg, (lo, hi) in block.touched.items():
                touch(reg, lo, hi)

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
        order = sorted(self.intervals.values(), key=lambda iv: (iv.start, iv.end))
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
