"""Pass infrastructure: stats, timing, and the two pass base classes.

Merlin is multi-tier: IR passes transform :class:`repro.ir.Function`
objects before code generation; bytecode passes rewrite the final
:class:`repro.isa.BpfProgram` right before it would be loaded.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

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
    ni_before: int = 0
    ni_after: int = 0
    details: Dict[str, int] = field(default_factory=dict)

    @property
    def ni_saved(self) -> int:
        return self.ni_before - self.ni_after


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
    """Base class for bytecode-tier passes (Merlin's bytecode refinement)."""

    name = "bytecode-pass"

    #: translation-validation hook: a :class:`repro.tv.WitnessRecorder`
    #: (or None).  When set, every individual rewrite the pass performs
    #: must be reported through the ``_witness_*`` helpers below —
    #: each call deposits a :class:`repro.tv.RewriteWitness` that the
    #: validator certifies independently of the pass.
    recorder = None

    #: the analyses built through :meth:`_analyze` during the current
    #: :meth:`run_timed` (None outside one)
    _analyses: Optional[List[BytecodeAnalysis]] = None

    def run(self, program: BpfProgram) -> int:
        """Rewrite *program* in place; return the number of rewrites."""
        raise NotImplementedError

    def run_timed(self, program: BpfProgram) -> PassStats:
        """Run the pass and time it.  When it built a dependency
        analysis, ``details["analysis_ns"]`` is the part of the time
        spent building and solving it (the paper's "Dep")."""
        ni_before = program.ni
        self._analyses = analyses = []
        start = time.perf_counter()
        try:
            rewrites = self.run(program)
        finally:
            self._analyses = None
        elapsed = time.perf_counter() - start
        details = {}
        if analyses:
            details["analysis_ns"] = sum(a.elapsed_ns for a in analyses)
        return PassStats(self.name, "bytecode", rewrites=rewrites,
                         time_seconds=elapsed, ni_before=ni_before,
                         ni_after=program.ni, details=details)

    def _analyze(self, sym: SymbolicProgram) -> BytecodeAnalysis:
        """Build the dependency analysis of *sym* (one per pass run;
        keep it current with :meth:`BytecodeAnalysis.refresh`)."""
        analysis = BytecodeAnalysis(sym)
        if self._analyses is not None:
            self._analyses.append(analysis)
        return analysis

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

    def _witness_delete(self, snapshot, index: int, kind: str,
                        note: str = "") -> None:
        """Report a deletion-only rewrite (``dead-def``/``jump-thread``)."""
        if snapshot is None:
            return
        from ..tv.witness import RewriteWitness

        self.recorder.emit(RewriteWitness(
            pass_name=self.name, tier="bytecode", kind=kind,
            first=index, last=index, slot=_slot_of(snapshot, index),
            snapshot=snapshot, note=note,
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


def _slot_of(snapshot, index: int) -> int:
    """Encoded slot offset of logical *index* in a program snapshot."""
    slot = 0
    for insn, _target, deleted in snapshot[:index]:
        if not deleted:
            slot += insn.slots
    return slot
