"""Pass infrastructure: stats, timing, the two pass base classes, and
:func:`run_bytecode_passes`, which runs the bytecode tier's passes over
one program.

Merlin is multi-tier: IR passes transform :class:`repro.ir.Function`
objects before code generation; bytecode passes rewrite the final
:class:`repro.isa.BpfProgram` right before it would be loaded.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from .. import ir
from ..isa import BpfProgram
from .bytecode_passes.analysis import BytecodeAnalysis
from .bytecode_passes.symbolic import SymbolicProgram


@dataclass
class PassStats:
    """What one pass did to one function/program."""

    name: str
    tier: str  # "ir" or "bytecode"
    rewrites: int = 0
    time_seconds: float = 0.0
    details: Dict[str, int] = field(default_factory=dict)


class IRPass:
    """Base class for IR-tier passes (the custom LLVM passes of the paper)."""

    name = "ir-pass"

    #: translation-validation hook: a :class:`repro.tv.WitnessRecorder`
    #: (or None).  IR passes rewrite whole functions, so the pipeline
    #: emits one whole-function witness per pass via
    #: :meth:`run_witnessed` rather than per-rewrite hooks.
    recorder = None

    def run(self, func: ir.Function, module: Optional[ir.Module] = None) -> int:
        """Transform *func* in place; return the number of rewrites."""
        raise NotImplementedError

    def run_timed(self, func: ir.Function,
                  module: Optional[ir.Module] = None) -> PassStats:
        start = time.perf_counter()
        rewrites = self.run(func, module)
        elapsed = time.perf_counter() - start
        return PassStats(self.name, "ir", rewrites=rewrites,
                         time_seconds=elapsed)

    def run_witnessed(self, func: ir.Function,
                      module: Optional[ir.Module] = None) -> PassStats:
        """Like :meth:`run_timed`, but snapshot the textual IR around the
        pass and emit an ``ir-pass`` witness when anything changed."""
        if self.recorder is None:
            return self.run_timed(func, module)
        from ..tv.witness import RewriteWitness

        before_text = ir.print_function(func)
        stats = self.run_timed(func, module)
        if stats.rewrites:
            after_text = ir.print_function(func)
            self.recorder.emit(RewriteWitness(
                pass_name=self.name, tier="ir", kind="ir-pass",
                before_text=before_text, after_text=after_text,
                note=f"{stats.rewrites} rewrite(s)",
            ))
        return stats


class BytecodePass:
    """Base class for bytecode-tier passes (Merlin's bytecode refinement).

    A pass is a rewrite of a symbolic program that
    :func:`run_bytecode_passes` converts once for every pass of the
    tier and encodes once after the last."""

    name = "bytecode-pass"

    #: translation-validation hook: a :class:`repro.tv.WitnessRecorder`
    #: (or None).  When set, every individual rewrite the pass performs
    #: must be reported through :meth:`_delete` or the ``_witness_*``
    #: helpers below — each call deposits a
    #: :class:`repro.tv.RewriteWitness` that the validator certifies
    #: independently of the pass.
    recorder = None

    def run(self, program: BpfProgram, sym: SymbolicProgram,
            analysis: BytecodeAnalysis) -> int:
        """Rewrite *sym*, the tier's symbolic view of *program*, in
        place and return the number of rewrites.  *analysis* is the
        tier's one dependency analysis of *sym*, current when the pass
        starts: after changing *sym*, call its ``refresh()`` before
        querying it again.  *program* is read for its attributes only;
        its instructions are encoded from *sym* once every pass has
        run."""
        raise NotImplementedError

    # ------------------------------------------------- witness emission
    def _snapshot(self, sym):
        """Freeze the pre-rewrite SymbolicProgram state, or None when no
        recorder is attached (the common, zero-overhead path).

        Call *before* mutating; pass the result to a ``_witness_*``
        helper after.  ``replace``/``delete`` keep logical indices
        stable, so region bounds survive the mutation.
        """
        if self.recorder is None:
            return None
        return tuple((item.insn, item.target, item.deleted)
                     for item in sym.insns)

    def _witness_region(self, sym, snapshot, first: int, last: int,
                        clobbered=(), note: str = "") -> None:
        """Report a straightline in-place rewrite of [first, last]."""
        if snapshot is None:
            return
        from ..tv.witness import RewriteWitness

        before = [insn for insn, _target, deleted
                  in snapshot[first:last + 1] if not deleted]
        after = [sym.insns[i].insn for i in range(first, last + 1)
                 if not sym.insns[i].deleted]
        self.recorder.emit(RewriteWitness(
            pass_name=self.name, tier="bytecode", kind="region",
            first=first, last=last, slot=_slot_of(snapshot, first),
            before_insns=before, after_insns=after,
            clobbered=tuple(clobbered), snapshot=snapshot, note=note,
        ))

    def _delete(self, sym, index: int, kind: str) -> None:
        """Delete the instruction at *index* as a deletion-only rewrite
        (``dead-def``/``jump-thread``), witnessed when recording."""
        snapshot = self._snapshot(sym)
        sym.delete(index)
        if snapshot is None:
            return
        from ..tv.witness import RewriteWitness

        self.recorder.emit(RewriteWitness(
            pass_name=self.name, tier="bytecode", kind=kind,
            first=index, last=index, slot=_slot_of(snapshot, index),
            snapshot=snapshot,
        ))

    def _witness_layout(self, snapshot, after_insns, note: str = "") -> None:
        """Report a whole-program re-layout: the snapshot is the entire
        pre-rewrite program, ``after_insns`` the final relocated
        instruction list.  The validator certifies the two CFGs
        isomorphic (bodies equal, terminators matched up to condition
        inversion and ``ja`` insertion/removal)."""
        if snapshot is None:
            return
        from ..tv.witness import RewriteWitness

        self.recorder.emit(RewriteWitness(
            pass_name=self.name, tier="bytecode", kind="layout",
            first=0, last=max(len(snapshot) - 1, 0), slot=0,
            after_insns=list(after_insns), snapshot=snapshot, note=note,
        ))


def run_bytecode_passes(program: BpfProgram, passes: Sequence[BytecodePass],
                        recorder=None) -> List[PassStats]:
    """Run *passes* in order over *program* in place and return their
    stats: one :class:`SymbolicProgram` conversion, one
    :class:`BytecodeAnalysis`, refreshed before each pass, and one
    encoding at the end.  With a *recorder*, every rewrite deposits a
    witness whose indices are into that one symbolic program.

    A pass's ``time_seconds`` runs from the end of the previous pass
    and ``details["analysis_ns"]`` is the analysis time inside it, so
    the first pass pays the conversion and the analysis build and the
    last pays the encoding, as each did when every pass converted the
    program itself."""
    if not passes:
        return []
    start = time.perf_counter()
    sym = SymbolicProgram.from_program(program)
    analysis = BytecodeAnalysis(sym)
    stats: List[PassStats] = []
    spent_ns = 0
    for bytecode_pass in passes:
        if recorder is not None:
            bytecode_pass.recorder = recorder
        analysis.refresh()
        rewrites = bytecode_pass.run(program, sym, analysis)
        now = time.perf_counter()
        stats.append(PassStats(
            bytecode_pass.name, "bytecode", rewrites=rewrites,
            time_seconds=now - start,
            details={"analysis_ns": analysis.elapsed_ns - spent_ns}))
        start, spent_ns = now, analysis.elapsed_ns
    if any(s.rewrites for s in stats):
        program.insns = sym.to_insns()
        stats[-1].time_seconds += time.perf_counter() - start
    return stats


def _slot_of(snapshot, index: int) -> int:
    """Encoded slot offset of logical *index* in a program snapshot."""
    slot = 0
    for insn, _target, deleted in snapshot[:index]:
        if not deleted:
            slot += insn.slots
    return slot
