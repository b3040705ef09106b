"""Backedge-aware region formation for the method JIT.

:class:`Relooper` reconstructs structured control flow from the
program's control flow graph (:class:`repro.isa.cfg.Cfg`, which the
JIT (:mod:`.jit`) labels by the slot each reachable block starts at) so
that the JIT can emit one generated-Python function per program, with
conditionals as real ``if``/``else`` and loops as real ``while``
statements.  A transfer to a label that names no block — an
out-of-bounds pc, the one-past-the-end sentinel or an ld_imm64 second
slot — is a *fault label*: the JIT raises the reference engine's exact
:class:`~repro.vm.interpreter.VmFault` message at the branch site.

The relooper follows the classic Emscripten shapes.  Python has no
``goto``, so transfers are rendered through a label variable ``_L``
plus ``continue``/``break``:

- **Simple** — a single entry that cannot be re-reached is emitted in
  line; its out-edges fall through to code emitted later at the same
  syntactic level.
- **Loop** — if any pending entry can be re-reached, the entries
  become the continue-labels of a ``while True:`` frame.  Backedges
  render as ``_L = t; continue``; edges that leave the loop render as
  ``_L = t; break`` and a *cascade dispatch* after the loop routes
  multi-level transfers further out (Python's ``break`` only exits one
  loop).
- **Multiple** — independent entries become a chain of ``if _L == e:``
  arms (plain ``if``, not ``elif``: an arm may set ``_L`` to a later
  arm's label and fall through to its test).

Reachability deliberately ignores edges into any enclosing frame's
continue-labels — those edges are already rendered as ``continue`` and
no longer re-enter the sequence — which both guarantees progress (a
loop body can always be structured) and handles irreducible graphs: a
second entry into a loop simply becomes another continue-label
dispatched at the loop head.

The relooper is codegen-agnostic: callers provide an emitter with
``block_lines`` / ``term_lines`` hooks and receive indented Python
source lines.  :mod:`.jit` is the only consumer today.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple


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
    """Emit structured Python source for a control flow graph.

    *succs* maps the label of every reachable block to the labels of
    its successor blocks.  *emitter* provides the instruction
    semantics:

    - ``block_lines(label) -> List[str]`` — the block body, terminator
      excluded (unindented);
    - ``term_lines(label, render) -> List[str]`` — the terminator,
      where ``render(label) -> List[str]`` returns the transfer code
      for one successor label (fault raise, fall, continue or break);
    - ``jump_fault_lines(label) -> List[str]`` — raise the
      out-of-bounds / mid-ld_imm64 fault for a transfer to a label
      with no block.
    """

    def __init__(self, succs: Dict[int, Tuple[int, ...]], emitter) -> None:
        self.succs = succs
        self.emitter = emitter
        self.frames: List[_Frame] = []
        self.seqs: List[_Seq] = []
        self.lines: List[str] = []

    # -------------------------------------------------------------- helpers
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
            for nxt in self.succs[label]:
                if nxt in avail and nxt not in blocked and nxt not in seen:
                    work.append(nxt)
        return seen

    # --------------------------------------------------------------- render
    def _render(self, target: int) -> List[str]:
        """Transfer code for a branch to *target* from the current
        emission point (innermost frame / sequence context)."""
        if target not in self.succs:
            return list(self.emitter.jump_fault_lines(target))
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
        if entry not in self.succs:
            raise StructureError("empty program")
        self._emit_seq(set(self.succs), [entry], 0)
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
                    and any(e in self.succs[u] for u in reach)
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
        seq.avail.discard(label)
        self._extend(indent, self.emitter.block_lines(label))
        self._extend(indent, self.emitter.term_lines(label, self._render))

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
                for nxt in self.succs[label]:
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

