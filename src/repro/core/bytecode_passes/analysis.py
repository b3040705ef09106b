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
fresh ``BytecodeAnalysis(sym)`` would give at that point.  A caller
deleting dead defs round by round asks :meth:`newly_dead` for the next
round instead of solving again.
"""

from __future__ import annotations

import bisect
import time
from typing import Callable, List, Optional, Sequence, Set

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
        #: register masks per position, read at the first solve (a
        #: pass that only asks ``straightline`` never needs them)
        self._use: Optional[List[int]] = None
        self._def: Optional[List[int]] = None
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
            if self._use is not None:
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
    def _read_masks(self) -> None:
        if self._use is None:
            insns = self._insn
            self._use = [0 if insn is None else insn.use_mask
                         for insn in insns]
            self._def = [0 if insn is None else insn.def_mask
                         for insn in insns]

    def _solve(self) -> None:
        """Liveness over the blocks (:meth:`Cfg.liveness`), then the
        live-after mask of every position."""
        start = time.perf_counter_ns()
        self._read_masks()
        cfg = self.cfg
        first, last = cfg.first, cfg.last
        uses, defs = self._use, self._def
        _, live_out = cfg.liveness(uses, defs)
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

    def newly_dead(self, deleted: Sequence[int]) -> List[int]:
        """The defs that died with the instructions at logical indices
        *deleted*, which the caller has just deleted from ``sym`` and
        which are everything the last :meth:`dead_defs` or
        :meth:`newly_dead` returned: what :meth:`dead_defs` would
        answer after :meth:`refresh`.

        Deleting a dead def only removes reads, so a def dies only when
        a read it reached is gone.  The candidates are the defs that
        reach a deleted read of their register; one is dead when no
        remaining read of its register is reachable before the
        register is written again.  Both are walks from the deleted
        instructions, not a new solve over the whole program."""
        start = time.perf_counter_ns()
        self._read_masks()
        insns, uses, defs = self._insn, self._use, self._def
        reads = []
        for index in deleted:
            p = self.pos_of.pop(index)
            reads.append((p, uses[p]))
            insns[p] = None
            uses[p] = defs[p] = 0
        self._stale = True
        self.live = [idx for idx, insn in zip(self._index, insns)
                     if insn is not None]
        if any(index in self.targets for index in deleted):
            self.targets = self.sym.branch_targets()
        cfg = self.cfg
        first, last = cfg.first, cfg.last
        preds: List[List[int]] = [[] for _ in first]
        for b, succs in enumerate(cfg.succs):
            for s in succs:
                preds[s].append(b)
        candidates: Set[int] = set()
        for p, mask in reads:
            while mask:
                bit = mask & -mask
                mask ^= bit
                # back from p to the writes of the register that reach
                # it, stopping where a remaining read keeps them alive
                work = [(bisect.bisect_right(first, p) - 1, p - 1)]
                entered: Set[int] = set()
                while work:
                    b, q = work.pop()
                    lo = first[b]
                    while q >= lo:
                        if defs[q] & bit:
                            opcode = insns[q].opcode
                            if op.IS_ALU[opcode] or op.IS_LD_IMM64[opcode]:
                                candidates.add(q)
                            break
                        if uses[q] & bit:
                            break
                        q -= 1
                    else:
                        for pb in preds[b]:
                            if pb not in entered:
                                entered.add(pb)
                                work.append((pb, last[pb]))
        dead = [self._index[q] for q in sorted(candidates)
                if insns[q] is not None and not self._read_after(q)]
        self.elapsed_ns += time.perf_counter_ns() - start
        return dead

    def delete_dead_defs(self, delete: Callable[[int], None]) -> int:
        """Delete every dead def of ``sym``, and every def that dies
        with them, and return how many went.  *delete* removes one
        logical index from ``sym``; the first round is
        :meth:`dead_defs` and each later one :meth:`newly_dead` of the
        round before.  Call after :meth:`refresh`."""
        deleted = 0
        dead = self.dead_defs()
        while dead:
            for index in dead:
                delete(index)
            deleted += len(dead)
            dead = self.newly_dead(dead)
        return deleted

    def _read_after(self, p: int) -> bool:
        """Whether the register position *p* writes is read on some path
        from *p* before it is written again (a self-move counts as
        never read, as in :meth:`dead_defs`)."""
        insn = self._insn[p]
        if insn.opcode == _SELF_MOVE64 and insn.dst == insn.src:
            return False
        bit = 1 << insn.dst
        cfg, uses, defs = self.cfg, self._use, self._def
        first, last, succs = cfg.first, cfg.last, cfg.succs
        work = [(bisect.bisect_right(first, p) - 1, p + 1)]
        entered: Set[int] = set()
        while work:
            b, q = work.pop()
            end = last[b]
            while q <= end:
                if uses[q] & bit:
                    return True
                if defs[q] & bit:
                    break
                q += 1
            else:
                for s in succs[b]:
                    if s not in entered:
                        entered.add(s)
                        work.append((s, first[s]))
        return False
