"""Backedge-aware region formation for the method JIT.

This module recovers structure over the *full* control flow graph so
the JIT (:mod:`.jit`) can emit one generated-Python function per
program, with conditionals as real ``if``/``else`` and loops as real
``while`` statements.

Two pieces live here:

* :func:`build_cfg` partitions the expanded slot list into basic
  blocks (leaders are slot 0, every jump target and every post-jump
  slot) and resolves each terminator's successor labels.  Targets that
  can never be dispatched to a real instruction — out-of-bounds pcs,
  the one-past-the-end sentinel, and ld_imm64 second slots — stay as
  *fault labels*: the JIT raises the reference engine's exact
  :class:`~repro.vm.interpreter.VmFault` message at the branch site.

* :class:`Relooper` reconstructs structured control flow from the
  arbitrary CFG (the classic Emscripten relooper shapes).  Python has
  no ``goto``, so transfers are rendered through a label variable
  ``_L`` plus ``continue``/``break``:

  - **Simple** — a single entry that cannot be re-reached is emitted
    in line; its out-edges fall through to code emitted later at the
    same syntactic level.
  - **Loop** — if any pending entry can be re-reached, the entries
    become the continue-labels of a ``while True:`` frame.  Backedges
    render as ``_L = t; continue``; edges that leave the loop render
    as ``_L = t; break`` and a *cascade dispatch* after the loop
    routes multi-level transfers further out (Python's ``break`` only
    exits one loop).
  - **Multiple** — independent entries become a chain of
    ``if _L == e:`` arms (plain ``if``, not ``elif``: an arm may set
    ``_L`` to a later arm's label and fall through to its test).

  Reachability deliberately ignores edges into any enclosing frame's
  continue-labels — those edges are already rendered as ``continue``
  and no longer re-enter the sequence — which both guarantees progress
  (a loop body can always be structured) and handles irreducible
  graphs: a second entry into a loop simply becomes another
  continue-label dispatched at the loop head.

The relooper is codegen-agnostic: callers provide an emitter with
``block_lines`` / ``term_lines`` hooks and receive indented Python
source lines.  :mod:`.jit` is the only consumer today.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from ...isa import Instruction
from ...isa import opcodes as op


@dataclass
class Terminator:
    """How a basic block ends.

    ``kind`` is one of ``"cond"`` (conditional jump), ``"ja"``
    (unconditional jump), ``"exit"`` or ``"fall"`` (no jump — control
    continues at the next leader, which may be the out-of-bounds
    sentinel).  ``taken``/``fall`` are successor *labels*: slot indices
    that either name a real block or a fault label.
    """

    kind: str
    pc: int = -1
    insn: Optional[Instruction] = None
    taken: int = -1
    fall: int = -1


@dataclass
class CfgBlock:
    """One basic block over the expanded slot list."""

    label: int
    body: List[Tuple[int, Instruction]]  # (slot, insn), terminator excluded
    term: Terminator
    succs: Tuple[int, ...] = ()  # successor labels that are real blocks


class Cfg:
    """The control-flow graph of one program's expanded slots."""

    def __init__(self, slots: Sequence[Optional[Instruction]]):
        self.slots = slots
        self.n = len(slots)
        self.blocks: Dict[int, CfgBlock] = {}
        self._build()

    # ------------------------------------------------------------- structure
    def is_real(self, label: int) -> bool:
        """Does *label* name a dispatchable instruction slot?"""
        return 0 <= label < self.n and self.slots[label] is not None

    def fault_message(self, label: int) -> str:
        """The reference engine's fault for dispatching to *label*."""
        if 0 <= label < self.n and self.slots[label] is None:
            return f"jump into the middle of ld_imm64 at slot {label}"
        return f"pc {label} out of program bounds"

    def _build(self) -> None:
        slots, n = self.slots, self.n
        leaders: Set[int] = {0} if n else set()
        pc = 0
        while pc < n:
            insn = slots[pc]
            if insn is None:
                pc += 1
                continue
            cls = insn.opcode & op.CLASS_MASK
            if cls in (op.BPF_JMP, op.BPF_JMP32):
                jop = insn.opcode & op.JMP_OP_MASK
                if jop != op.BPF_CALL:  # calls fall through: not terminators
                    if jop not in (op.BPF_EXIT,):
                        target = pc + 1 + insn.off
                        if self.is_real(target):
                            leaders.add(target)
                    if pc + 1 < n:
                        leaders.add(pc + 1)
            pc += insn.slots
        for leader in sorted(leaders):
            if not self.is_real(leader):
                continue
            self.blocks[leader] = self._scan_block(leader, leaders)
        self._prune_unreachable()

    def _scan_block(self, start: int, leaders: Set[int]) -> CfgBlock:
        slots, n = self.slots, self.n
        body: List[Tuple[int, Instruction]] = []
        pc = start
        while True:
            if pc >= n:
                term = Terminator(kind="fall", pc=pc, fall=pc)
                break
            insn = slots[pc]
            if insn is None:  # can't happen: leaders are real slots and
                # ld_imm64 advances by 2, but keep the fault label exact
                term = Terminator(kind="fall", pc=pc, fall=pc)
                break
            if pc != start and pc in leaders:
                term = Terminator(kind="fall", pc=pc, fall=pc)
                break
            cls = insn.opcode & op.CLASS_MASK
            if cls in (op.BPF_JMP, op.BPF_JMP32):
                jop = insn.opcode & op.JMP_OP_MASK
                if jop == op.BPF_EXIT:
                    term = Terminator(kind="exit", pc=pc, insn=insn)
                    break
                if jop == op.BPF_JA:
                    term = Terminator(kind="ja", pc=pc, insn=insn,
                                      taken=pc + 1 + insn.off)
                    break
                if jop != op.BPF_CALL:
                    term = Terminator(kind="cond", pc=pc, insn=insn,
                                      taken=pc + 1 + insn.off, fall=pc + 1)
                    break
            body.append((pc, insn))
            pc += insn.slots
        succs = []
        if term.kind == "cond":
            for t in (term.fall, term.taken):
                if self.is_real(t) and t not in succs:
                    succs.append(t)
        elif term.kind == "ja":
            if self.is_real(term.taken):
                succs.append(term.taken)
        elif term.kind == "fall":
            if self.is_real(term.fall):
                succs.append(term.fall)
        return CfgBlock(label=start, body=body, term=term,
                        succs=tuple(succs))

    def _prune_unreachable(self) -> None:
        if not self.blocks:
            return
        seen: Set[int] = set()
        work = [0]
        while work:
            label = work.pop()
            if label in seen or label not in self.blocks:
                continue
            seen.add(label)
            work.extend(self.blocks[label].succs)
        self.blocks = {l: b for l, b in self.blocks.items() if l in seen}


def build_cfg(slots: Sequence[Optional[Instruction]]) -> Cfg:
    """Partition *slots* into basic blocks reachable from slot 0."""
    return Cfg(slots)


# ------------------------------------------------------------------ relooper
class StructureError(Exception):
    """The relooper could not structure this CFG (caller falls back)."""


@dataclass
class _Frame:
    """One ``while True:`` loop the emitter is currently inside."""

    entries: Set[int]  # continue-labels: transfer = _L = t; continue
    exits: List[int] = field(default_factory=list)  # break-cascade labels


class _Seq:
    """One driver invocation: an ordered worklist over an owned label
    set, emitted at a fixed frame depth."""

    def __init__(self, avail: Set[int], pending: Sequence[int],
                 depth: int) -> None:
        self.avail = avail
        self.pending: List[int] = []
        self.pending_set: Set[int] = set()
        self.depth = depth
        for label in pending:
            self.add_pending(label)

    def add_pending(self, label: int) -> None:
        if label in self.avail and label not in self.pending_set:
            self.pending.append(label)
            self.pending_set.add(label)


#: hard ceiling on emitted source lines before falling back (a pathologic
#: CFG could otherwise produce quadratic cascade code)
MAX_LINES = 200_000


class Relooper:
    """Emit structured Python source for a :class:`Cfg`.

    *emitter* provides the instruction semantics:

    - ``block_lines(block) -> List[str]`` — the block body, terminator
      excluded (unindented);
    - ``term_lines(block, render) -> List[str]`` — the terminator,
      where ``render(label) -> List[str]`` returns the transfer code
      for one successor label (fault raise, fall, continue or break);
    - ``fault_lines(msg) -> List[str]`` — raise the out-of-bounds /
      mid-ld_imm64 fault for a transfer to an unreal label.
    """

    def __init__(self, cfg: Cfg, emitter) -> None:
        self.cfg = cfg
        self.emitter = emitter
        self.frames: List[_Frame] = []
        self.seqs: List[_Seq] = []
        self.lines: List[str] = []

    # -------------------------------------------------------------- helpers
    def _succs(self, label: int) -> Tuple[int, ...]:
        return self.cfg.blocks[label].succs

    def _blocked(self) -> Set[int]:
        out: Set[int] = set()
        for frame in self.frames:
            out |= frame.entries
        return out

    def _reach(self, roots: Sequence[int], avail: Set[int]) -> Set[int]:
        """Labels in *avail* reachable from *roots* (roots included),
        never traversing an edge into an enclosing frame's entries."""
        blocked = self._blocked()
        seen: Set[int] = set()
        work = [r for r in roots if r in avail]
        while work:
            label = work.pop()
            if label in seen:
                continue
            seen.add(label)
            for nxt in self._succs(label):
                if nxt in avail and nxt not in blocked and nxt not in seen:
                    work.append(nxt)
        return seen

    # --------------------------------------------------------------- render
    def _render(self, target: int) -> List[str]:
        """Transfer code for a branch to *target* from the current
        emission point (innermost frame / sequence context)."""
        cfg = self.cfg
        if not cfg.is_real(target):
            return list(self.emitter.fault_lines(cfg.fault_message(target)))
        if target not in cfg.blocks:  # pragma: no cover - defensive
            raise StructureError(f"transfer to unscanned block {target}")
        if self.frames and target in self.frames[-1].entries:
            return [f"_L = {target}", "continue"]
        # which enclosing context owns the target?
        owner_depth: Optional[int] = None
        owner_seq: Optional[_Seq] = None
        for seq in reversed(self.seqs):
            if target in seq.avail:
                owner_depth = seq.depth
                owner_seq = seq
                break
        if owner_depth is None:
            for index in range(len(self.frames) - 1, -1, -1):
                if target in self.frames[index].entries:
                    # continuing frame *index* is legal at depth index+1
                    owner_depth = index + 1
                    break
        if owner_depth is None:  # pragma: no cover - defensive
            raise StructureError(f"unowned transfer target {target}")
        depth = len(self.frames)
        if depth > owner_depth:
            # leave one loop; the after-loop cascade re-dispatches the
            # remaining (depth - owner_depth - 1) levels outward
            self.frames[-1].exits.append(target)
            return [f"_L = {target}", "break"]
        if owner_seq is not None:
            owner_seq.add_pending(target)
            return [f"_L = {target}"]
        # owner is the innermost frame at exactly this depth; the early
        # frames[-1] check normally catches this
        return [f"_L = {target}", "continue"]  # pragma: no cover

    # ----------------------------------------------------------------- emit
    def emit(self, entry: int = 0) -> List[str]:
        """Structure the whole CFG; returns source lines (nested
        constructs carry their own indentation)."""
        if entry not in self.cfg.blocks:
            raise StructureError("empty program")
        self._emit_seq(set(self.cfg.blocks), [entry], 0)
        return self.lines

    def _line(self, indent: int, text: str) -> None:
        self.lines.append("    " * indent + text)
        if len(self.lines) > MAX_LINES:
            raise StructureError("generated function too large")

    def _extend(self, indent: int, sub: List[str]) -> None:
        for text in sub:
            self._line(indent, text)

    def _emit_seq(self, avail: Set[int], entries: Sequence[int],
                  indent: int) -> None:
        """The shape driver: emit every label in *avail* reachable from
        the evolving pending worklist, at one syntactic level."""
        seq = _Seq(avail, entries, depth=len(self.frames))
        self.seqs.append(seq)
        try:
            while True:
                pending = [p for p in seq.pending if p in seq.avail]
                seq.pending = list(pending)
                seq.pending_set = set(pending)
                if not pending:
                    break
                blocked = self._blocked()
                reach = self._reach(pending, seq.avail)
                # an entry is *returnable* if some emitted-or-reachable
                # block branches back into it (edges into enclosing
                # frames' continue-labels render as `continue` and do
                # not re-enter this sequence)
                returnable = [
                    e for e in pending
                    if e not in blocked
                    and any(e in self._succs(u) for u in reach)
                ]
                if returnable:
                    self._emit_loop(seq, pending, indent)
                elif len(pending) == 1:
                    self._emit_simple(seq, pending[0], indent)
                else:
                    self._emit_multiple(seq, pending, indent)
        finally:
            self.seqs.pop()

    def _emit_simple(self, seq: _Seq, label: int, indent: int) -> None:
        block = self.cfg.blocks[label]
        seq.avail.discard(label)
        self._extend(indent, self.emitter.block_lines(block))
        self._extend(indent, self.emitter.term_lines(block, self._render))

    def _emit_loop(self, seq: _Seq, entries: List[int],
                   indent: int) -> None:
        entry_set = set(entries)
        outer_blocked = self._blocked()
        # the loop body owns every label that can flow back to an entry;
        # blocks that only flow *out* are emitted after the loop
        back: Set[int] = set(entry_set)
        changed = True
        while changed:
            changed = False
            for label in seq.avail:
                if label in back:
                    continue
                for nxt in self._succs(label):
                    if nxt in back and nxt not in outer_blocked:
                        back.add(label)
                        changed = True
                        break
        inner = back & seq.avail
        seq.avail -= inner
        frame = _Frame(entries=entry_set)
        self._line(indent, "while True:")
        self.frames.append(frame)
        try:
            self._emit_seq(inner, entries, indent + 1)
        finally:
            self.frames.pop()
        # cascade dispatch: re-route each break-target from out here.
        # A target owned by this very sequence needs no code (_L already
        # holds it and falls into the later guarded arms); targets bound
        # further out re-render as continue/break one level at a time.
        for target in sorted(set(frame.exits)):
            sub = self._render(target)
            if sub == [f"_L = {target}"]:
                continue
            self._line(indent, f"if _L == {target}:")
            self._extend(indent + 1, sub)

    def _emit_multiple(self, seq: _Seq, pending: List[int],
                       indent: int) -> None:
        # no entry is returnable here, so no entry is reachable from
        # another entry's reach-set: every entry gets an arm.  Labels
        # reachable from two or more entries are join points — they stay
        # available and are re-dispatched by a later driver round.
        reach_of: Dict[int, Set[int]] = {
            e: self._reach([e], seq.avail) for e in pending
        }
        for e in pending:
            group = {
                l for l in reach_of[e]
                if not any(l in reach_of[o] for o in pending if o != e)
            }
            seq.avail -= group
            self._line(indent, f"if _L == {e}:")
            self._emit_seq(group, [e], indent + 1)


def structure(cfg: Cfg, emitter, entry: int = 0) -> List[str]:
    """Convenience wrapper: structure *cfg* with *emitter*."""
    return Relooper(cfg, emitter).emit(entry)
