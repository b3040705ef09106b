"""Bytecode dependency analysis (the paper's "Dep" component).

Builds a :class:`repro.isa.cfg.Cfg` over the live instructions and
solves register liveness on it; the rewriting passes consult it to
prove that a register is dead after an instruction (CP/DCE, peephole)
or that no branch target splits a candidate pattern.

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
from ...isa.cfg import ENDS_BLOCK, Cfg
from .symbolic import SymbolicProgram

_IS_JUMP = op.IS_JUMP
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
        resolve, n = self.sym.resolve, len(index)
        self.cfg = Cfg(self._insn, [
            None if item.target is None
            else self.pos_of.get(resolve(item.target), n)
            for item in self._items])
        #: liveness is solved lazily, at the first query after a change
        self._stale = True
        self._live_after = [0] * len(index)
        self.elapsed_ns += time.perf_counter_ns() - start

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
                ends = ENDS_BLOCK[old.opcode]
                retarget |= ends or idx in self.targets
                if ends:
                    # the block now falls through its nop
                    cfg = self.cfg
                    cfg.fall_through(bisect.bisect_right(cfg.first, p) - 1)
            elif item is self._items[p] and old is not None:
                continue
            else:
                new = item.insn
                if old is None or ENDS_BLOCK[old.opcode] \
                        or ENDS_BLOCK[new.opcode] or item.target is not None:
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
        cfg = self.cfg
        first, last = cfg.first, cfg.last
        uses, defs = self._use, self._def
        gen = []
        kill = []
        for b, end in enumerate(last):
            g = k = 0
            for p in range(end, first[b] - 1, -1):
                d = defs[p]
                g = uses[p] | (g & ~d)
                k |= d
            gen.append(g)
            kill.append(k)
        live_out = cfg.solve(lambda b, out: gen[b] | (out & ~kill[b]))
        after = self._live_after
        for b, live in enumerate(live_out):
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
