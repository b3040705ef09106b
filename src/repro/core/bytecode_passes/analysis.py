"""Bytecode dependency analysis (the paper's "Dep" component).

Builds a CFG over logical instruction indices and solves register
liveness; the rewriting passes consult it to prove that a register is
dead after an instruction (CP/DCE, peephole) or that no branch target
splits a candidate pattern.

Register sets are integer bitmasks (bit n = rn) read from the per-opcode
tables in :mod:`repro.isa.opcodes`.  A pass builds one analysis per run:
after it deletes or replaces instructions in ``sym``, :meth:`refresh`
updates the masks of the changed positions in place, and the next
liveness query re-solves over the existing blocks.  A deleted
instruction stays in its block as a nop.  Only a replaced jump or exit,
or an insertion, forces a full rebuild.  Every answer equals what a
fresh ``BytecodeAnalysis(sym)`` would give at that point.
"""

from __future__ import annotations

import bisect
import time
from typing import List, Optional, Set

from ...isa import Instruction
from ...isa import opcodes as op
from .symbolic import SymbolicProgram

_IS_JUMP = op.IS_JUMP
_IS_CALL = op.IS_CALL
_IS_EXIT = op.IS_EXIT
_SELF_MOVE64 = op.BPF_ALU64 | op.BPF_MOV | op.BPF_X


def insn_uses(insn: Instruction) -> Set[int]:
    """Registers read, conservatively (calls read all arg registers)."""
    return set(insn.uses())


def insn_defs(insn: Instruction) -> Set[int]:
    """Registers written, including call clobbers of r1-r5."""
    defs = set(insn.defs())
    if insn.is_call:
        defs.update(op.CALLER_SAVED)
    return defs


def _ends_block(insn: Instruction) -> bool:
    """Jumps (not calls) and exits end a basic block."""
    opcode = insn.opcode
    return _IS_JUMP[opcode] and not _IS_CALL[opcode]


class BytecodeAnalysis:
    """Liveness + CFG facts for the live instructions of a symbolic
    program.  Queries take logical indices into ``sym.insns``; ``live``
    lists the non-deleted ones."""

    def __init__(self, sym: SymbolicProgram):
        self.sym = sym
        #: nanoseconds spent building, refreshing and solving
        self.elapsed_ns = 0
        self._build()

    # --------------------------------------------------------------- building
    def _build(self) -> None:
        start = time.perf_counter_ns()
        items = self.sym.insns
        self._size = len(items)
        index = [i for i, item in enumerate(items) if not item.deleted]
        #: position -> logical index; positions outlive deletions
        self._index = index
        self.live = index
        self.pos_of = {idx: p for p, idx in enumerate(index)}
        self._items = [items[i] for i in index]
        #: the instruction each position held at the last build or
        #: refresh; None once deleted (a nop)
        self._insn: List[Optional[Instruction]] = [
            item.insn for item in self._items]
        self._use = [insn.use_mask for insn in self._insn]
        self._def = [insn.def_mask for insn in self._insn]
        self.targets = self.sym.branch_targets()
        self._build_blocks()
        #: liveness is solved lazily, at the first query after a change
        self._stale = True
        self._live_after = [0] * len(index)
        self.elapsed_ns += time.perf_counter_ns() - start

    def _resolve_target_pos(self, target: int) -> Optional[int]:
        items = self.sym.insns
        while target < len(items) and items[target].deleted:
            target += 1
        return self.pos_of.get(target)

    def _build_blocks(self) -> None:
        n = len(self._index)
        leaders: Set[int] = {0} if n else set()
        for target in self.targets:
            pos = self.pos_of.get(target)
            if pos is not None:
                leaders.add(pos)
        for p, insn in enumerate(self._insn):
            if _ends_block(insn) and p + 1 < n:
                leaders.add(p + 1)
        first = sorted(leaders)
        last = [start - 1 for start in first[1:]] + [n - 1] if n else []
        block_at = {start: b for b, start in enumerate(first)}
        succs: List[tuple] = []
        for b, end in enumerate(last):
            insn = self._insn[end]
            if _IS_EXIT[insn.opcode]:
                succs.append(())
            elif _ends_block(insn):
                out = []
                target = self._items[end].target
                if target is not None:
                    tpos = self._resolve_target_pos(target)
                    if tpos is not None:
                        out.append(block_at[tpos])
                if insn.jmp_op != op.BPF_JA and end + 1 < n:
                    out.append(b + 1)
                succs.append(tuple(out))
            else:
                succs.append((b + 1,) if end + 1 < n else ())
        self._first, self._last, self._succs = first, last, succs

    # ------------------------------------------------------------- updating
    def refresh(self) -> None:
        """Catch up with the deletions and replacements made to ``sym``
        since the last build or refresh."""
        start = time.perf_counter_ns()
        items = self.sym.insns
        if len(items) != self._size:  # an insertion shifted indices
            self._rebuild(start)
            return
        retarget = False
        deleted = False
        for p, idx in enumerate(self._index):
            item = items[idx]
            old = self._insn[p]
            if item.deleted:
                if old is None:
                    continue  # already a nop
                new = None
                deleted = True
                ends = _ends_block(old)
                retarget |= ends or idx in self.targets
                if ends:
                    # the block now falls through its nop
                    b = bisect.bisect_right(self._first, p) - 1
                    self._succs[b] = ((b + 1,) if b + 1 < len(self._first)
                                      else ())
            elif item is self._items[p] and old is not None:
                continue
            else:
                new = item.insn
                if old is None or _ends_block(old) or _ends_block(new) \
                        or item.target is not None:
                    # a revived nop, or control flow changed
                    self._rebuild(start)
                    return
            self._items[p] = item
            self._insn[p] = new
            self._use[p] = new.use_mask if new is not None else 0
            self._def[p] = new.def_mask if new is not None else 0
            self._stale = True
        if retarget:
            self.targets = self.sym.branch_targets()
        if deleted:
            self.live = [idx for idx, insn in zip(self._index, self._insn)
                         if insn is not None]
            self.pos_of = {idx: p for p, idx in enumerate(self._index)
                           if self._insn[p] is not None}
        self.elapsed_ns += time.perf_counter_ns() - start

    def _rebuild(self, start: int) -> None:
        self.elapsed_ns += time.perf_counter_ns() - start
        self._build()

    # -------------------------------------------------------------- solving
    def _solve(self) -> None:
        """Least fixpoint of backward liveness over the blocks, then the
        live-after mask of every position."""
        start = time.perf_counter_ns()
        first, last, succs = self._first, self._last, self._succs
        uses, defs = self._use, self._def
        nblocks = len(first)
        gen = [0] * nblocks
        kill = [0] * nblocks
        for b in range(nblocks):
            g = k = 0
            for p in range(last[b], first[b] - 1, -1):
                d = defs[p]
                g = uses[p] | (g & ~d)
                k |= d
            gen[b], kill[b] = g, k
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
                new_in = gen[b] | (out & ~kill[b])
                if new_in != live_in[b]:
                    live_in[b] = new_in
                    changed = True
        after = self._live_after
        for b in range(nblocks):
            live = live_out[b]
            for p in range(last[b], first[b] - 1, -1):
                after[p] = live
                live = uses[p] | (live & ~defs[p])
        self._stale = False
        self.elapsed_ns += time.perf_counter_ns() - start

    # ----------------------------------------------------------------- queries
    def reg_dead_after(self, index: int, reg: int) -> bool:
        """True when *reg* is not read after the instruction at logical
        *index* before being redefined."""
        pos = self.pos_of.get(index)
        if pos is None:
            raise KeyError(f"instruction {index} is deleted")
        if self._stale:
            self._solve()
        return not (self._live_after[pos] >> reg) & 1

    def is_branch_target(self, index: int) -> bool:
        return index in self.targets

    def straightline(self, first: int, last: int) -> bool:
        """True when control cannot enter or leave (first, last] except by
        falling through: no branch targets strictly inside, and no jumps,
        calls or exits in [first, last)."""
        p1, p2 = self.pos_of.get(first), self.pos_of.get(last)
        if p1 is None or p2 is None or p2 < p1:
            return False
        targets, index, insns = self.targets, self._index, self._insn
        for p in range(p1, p2 + 1):
            insn = insns[p]
            if insn is None:
                continue
            if p > p1 and index[p] in targets:
                return False
            if p < p2 and _IS_JUMP[insn.opcode]:
                return False
        return True

    def dead_defs(self) -> List[int]:
        """Logical indices whose only effect is defining never-read,
        side-effect-free registers (includes self-moves)."""
        if self._stale:
            self._solve()
        dead: List[int] = []
        after = self._live_after
        for p, insn in enumerate(self._insn):
            if insn is None:
                continue
            opcode = insn.opcode
            if not (op.IS_ALU[opcode] or op.IS_LD_IMM64[opcode]):
                continue
            # self-move: mov rX, rX is a no-op regardless of liveness
            if (opcode == _SELF_MOVE64 and insn.dst == insn.src) \
                    or not (after[p] >> insn.dst) & 1:
                dead.append(self._index[p])
        return dead
