"""The Merlin pipeline: IR refinement + bytecode refinement.

Mirrors the paper's Fig. 1 integration: IR passes run after clang's own
optimizations (our frontend) and before llc (our backend); bytecode
passes run on the final program right before it would be loaded via
``bpf()``.  Merlin never touches the verifier.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Tuple, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..cache import CompilationCache

from .. import ir
from ..codegen import compile_function
from ..isa import BpfProgram, ProgramType
from ..verifier import DEFAULT_KERNEL, KernelConfig
from .bytecode_passes.compaction import CodeCompactionPass
from .bytecode_passes.peephole import PeepholePass
from .bytecode_passes.store_imm import StoreImmediatePass
from .bytecode_passes.superword import SuperwordMergePass
from .ir_passes.alignment import AlignmentInferencePass
from .ir_passes.constprop import ConstantPropagationPass
from .ir_passes.dce import DeadCodeEliminationPass
from .ir_passes.macro_fusion import MacroOpFusionPass
from .ir_passes.superword import SuperwordMergeIRPass
from .pass_manager import BytecodePass, IRPass, PassStats, run_bytecode_passes

#: canonical short names used throughout the evaluation (paper Fig. 13)
OPTIMIZER_NAMES = ("dao", "mof", "dep", "cc", "po", "slm", "cpdce")
ALL_OPTIMIZERS = frozenset(OPTIMIZER_NAMES)

#: the post-pass tiers, in the order the pipeline applies them after the
#: Merlin passes: the superoptimizer shrinks the program, then layout
#: orders what is left for the branch predictor
TIERS = ("superopt", "layout")


def tier_spec(tier: str, value):
    """Normalize a tier argument (``superopt=``, or ``pgo=`` for
    layout): ``None``/``False`` -> off (None), ``True`` -> the tier's
    default spec, a mapping -> parsed spec; a spec passes through."""
    if value is None or value is False:
        return None
    # lazy: the tier modules import back into repro.core
    if tier == "superopt":
        from .superopt import SuperoptSpec as spec_type
    elif tier == "layout":
        from .bytecode_passes.layout import PgoSpec as spec_type
    else:
        raise ValueError(f"unknown tier {tier!r} (choose from "
                         f"{', '.join(TIERS)})")
    if value is True:
        return spec_type()
    if isinstance(value, dict):
        return spec_type.from_dict(value)
    return value


def run_tier(tier: str, program: BpfProgram, spec=None, *, tests=None,
             memo=None, recorder=None) -> PassStats:
    """Run post-pass *tier* (one of :data:`TIERS`) over *program* in
    place and return its stats; *spec* None means the tier's defaults.

    ``superopt`` searches every straightline window through the rewrite
    memo *memo* (any ``get_object``/``put_object`` store) and reports
    its counters in ``details``.  ``layout`` first profiles *program* on
    *tests* when given, else on the spec's generated battery; its time
    includes the profiling, and ``details`` carries ``profiled_runs``
    and ``profiled_faults``.  With a *recorder*, every rewrite deposits
    a witness for translation validation.
    """
    if tier == "superopt":
        from .superopt import SuperoptimizerPass

        superopt = SuperoptimizerPass(spec, memo=memo)
        stats, = run_bytecode_passes(program, [superopt], recorder)
        # its details are its counters; its Dep time stays in its time
        stats.details = dict(superopt.counters)
        return stats
    if tier == "layout":
        from .bytecode_passes.layout import (ProfileGuidedLayoutPass,
                                             collect_profile)

        start = time.perf_counter()
        profile = collect_profile(program, spec=spec, tests=tests)
        layout = ProfileGuidedLayoutPass(profile)
        layout.recorder = recorder
        rewrites = layout.run(program)
        return PassStats(layout.name, "bytecode", rewrites=rewrites,
                         time_seconds=time.perf_counter() - start,
                         details={"profiled_runs": profile.entries,
                                  "profiled_faults": profile.faults})
    raise ValueError(f"unknown tier {tier!r} (choose from "
                     f"{', '.join(TIERS)})")


@dataclass
class MerlinReport:
    """Everything Merlin did to one program."""

    name: str
    ni_original: int
    ni_optimized: int
    pass_stats: List[PassStats] = field(default_factory=list)
    compile_seconds: float = 0.0
    cached: bool = False  # served from a CompilationCache, not recompiled
    #: the content-addressed cache key this result lives under (None
    #: when compiled without a cache); lets a service memoize
    #: source-text -> key and skip the frontend on repeat requests
    cache_key: Optional[str] = None
    #: per-pass-application equivalence certificates
    #: (:class:`repro.tv.Certificate`), populated by ``validate=`` modes
    certificates: List = field(default_factory=list)

    @property
    def ni_reduction(self) -> float:
        """Fraction of instructions removed (the paper's headline metric)."""
        if not self.ni_original:
            return 0.0
        return 1.0 - self.ni_optimized / self.ni_original

    def time_of(self, pass_name: str) -> float:
        return sum(s.time_seconds for s in self.pass_stats if s.name == pass_name)

    def rewrites_of(self, pass_name: str) -> int:
        return sum(s.rewrites for s in self.pass_stats if s.name == pass_name)


class MerlinPipeline:
    """Configurable multi-tier optimizer.

    ``enabled`` selects optimizers by short name: ``dao`` (data
    alignment), ``mof`` (macro-op fusion), ``cpdce`` (constant
    propagation + DCE, both tiers), ``slm`` (superword merging, both
    tiers), ``cc`` (code compaction), ``po`` (peephole).  ``dep`` (the
    bytecode dependency analysis) is implied by any bytecode pass.
    """

    def __init__(
        self,
        kernel: KernelConfig = DEFAULT_KERNEL,
        enabled: Optional[Iterable[str]] = None,
    ):
        self.kernel = kernel
        self.enabled = frozenset(enabled) if enabled is not None else ALL_OPTIMIZERS
        unknown = self.enabled - ALL_OPTIMIZERS
        if unknown:
            raise ValueError(f"unknown optimizers: {sorted(unknown)}")

    # ------------------------------------------------------------------
    def ir_passes(self) -> List[IRPass]:
        passes: List[IRPass] = []
        if "cpdce" in self.enabled:
            passes.append(ConstantPropagationPass())
            passes.append(DeadCodeEliminationPass())
        if "dao" in self.enabled:
            # runs before fusion/merging: both need the proven alignments
            passes.append(AlignmentInferencePass())
        if "mof" in self.enabled:
            passes.append(MacroOpFusionPass())
        if "slm" in self.enabled:
            passes.append(SuperwordMergeIRPass())
        if "cpdce" in self.enabled:
            passes.append(DeadCodeEliminationPass())
        return passes

    def bytecode_passes(self) -> List[BytecodePass]:
        passes: List[BytecodePass] = []
        if "cpdce" in self.enabled:
            passes.append(StoreImmediatePass())
        if "slm" in self.enabled:
            passes.append(SuperwordMergePass())
        if "cc" in self.enabled:
            # Gate on the *loading kernel* only: a v2-compiled program may
            # still gain ALU32 instructions when the kernel accepts them —
            # the pass then promotes program.mcpu to "v3" (compaction.py).
            passes.append(CodeCompactionPass(allow_alu32=self.kernel.supports_v3))
        if "po" in self.enabled:
            passes.append(PeepholePass())
        if "cpdce" in self.enabled:
            passes.append(StoreImmediatePass())  # sweep newly dead defs
        return passes

    # ------------------------------------------------------------------
    def optimize_ir(self, func: ir.Function,
                    module: Optional[ir.Module] = None,
                    recorder=None) -> List[PassStats]:
        stats = []
        for p in self.ir_passes():
            if recorder is not None:
                p.recorder = recorder
                stats.append(p.run_witnessed(func, module))
            else:
                stats.append(p.run_timed(func, module))
        return stats

    def compile(
        self,
        func: ir.Function,
        module: Optional[ir.Module] = None,
        prog_type: ProgramType = ProgramType.XDP,
        mcpu: str = "v2",
        ctx_size: int = 64,
        cache: Optional["CompilationCache"] = None,
        validate=False,
        pgo=None,
        superopt=None,
    ) -> Tuple[BpfProgram, MerlinReport]:
        """Full pipeline: baseline compile for reference, IR refinement,
        re-compile, bytecode refinement, optional superoptimization and
        optional profile-guided layout.  Verifying the result is the
        caller's step (:func:`repro.verifier.verify`).

        ``pgo`` enables the BOLT-style layout tier: pass a
        :class:`repro.core.bytecode_passes.layout.PgoSpec` (or ``True``
        for the defaults) and the optimized program is executed on a
        deterministic generated workload to collect per-branch profiles,
        then hot/cold-split, straightened, and chain-reordered.  The
        spec's fingerprint is folded into the cache key, and under
        ``validate`` every re-layout carries its own certified witness.

        ``superopt`` enables the caching windowed superoptimizer tier
        (:mod:`repro.core.superopt`): pass a
        :class:`~repro.core.superopt.SuperoptSpec` (or ``True`` for the
        defaults) and every straightline window of the Merlin-optimized
        bytecode is searched for a certified smaller equivalent.  It
        runs after the hand-written passes and before layout; *cache*
        doubles as the shared rewrite memo, so discoveries replay
        across programs.  The spec's fingerprint is folded into the
        cache key.

        ``compile`` is pure: the IR passes run on a private clone, so the
        caller's *func*/*module* are never mutated and a second call
        yields an identical report.  With *cache*, the result is looked
        up / stored under the content-addressed key of the canonical IR
        text plus the full pipeline configuration.

        ``validate`` turns on translation validation: every pass
        application reports a rewrite witness and the :mod:`repro.tv`
        validator certifies it.  Certificates land in
        ``report.certificates``; with ``validate=True`` a non-certified
        application raises
        :class:`repro.tv.TranslationValidationError`, while
        ``validate="report"`` only records the verdicts.

        Validation composes with *cache*: certificates are stored in
        the cached report (under a key that folds in the validate
        flag, so validated and unvalidated entries never mix), and a
        warm validated request replays the stored verdicts instead of
        re-certifying — with ``validate=True`` a cached refuted
        certificate still raises, exactly like a fresh one.
        """
        pgo = tier_spec("layout", pgo)
        superopt = tier_spec("superopt", superopt)
        key = None
        if cache is not None:
            key = cache.key_for_function(
                func, module, enabled=self.enabled, kernel=self.kernel,
                prog_type=prog_type, mcpu=mcpu, ctx_size=ctx_size,
                validate=bool(validate),
                pgo=pgo.fingerprint() if pgo is not None else None,
                superopt=(superopt.fingerprint()
                          if superopt is not None else None),
            )
            hit = cache.get(key)
            if hit is not None:
                program, report = hit
                report.cached = True
                report.cache_key = key
                if validate is True:
                    from ..tv import raise_on_alarm

                    raise_on_alarm(report.certificates)
                return program, report

        recorder = None
        if validate:
            from ..tv import WitnessRecorder

            recorder = WitnessRecorder()

        start = time.perf_counter()
        baseline = compile_function(func, module, prog_type=prog_type,
                                    mcpu=mcpu, ctx_size=ctx_size)
        # IR passes rewrite in place: run them on a clone so the caller's
        # function stays pristine.  The clone is what the textual round
        # trip gives (the fuzzer's and TV's form), built by one walk over
        # the blocks, so no use-def chain is followed recursively.  The
        # module is never mutated by IR passes.
        work_func = ir.clone_function(func)
        stats = self.optimize_ir(work_func, module, recorder=recorder)
        program = compile_function(work_func, module, prog_type=prog_type,
                                   mcpu=mcpu, ctx_size=ctx_size)
        stats += run_bytecode_passes(program, self.bytecode_passes(),
                                     recorder)
        if program.ni > baseline.ni:
            # the IR tier can hand the register allocator a longer live
            # range that costs a copy more than the native build; Merlin
            # never ships a program larger than the one it started from
            program = baseline.copy()
        stats += self._apply_tiers(program, superopt, pgo, memo=cache,
                                   recorder=recorder)
        elapsed = time.perf_counter() - start

        report = MerlinReport(
            name=func.name,
            ni_original=baseline.ni,
            ni_optimized=program.ni,
            pass_stats=stats,
            compile_seconds=elapsed,
            cache_key=key,
        )
        if recorder is not None:
            report.certificates = self._certify(
                recorder, module=module, prog_type=prog_type, mcpu=mcpu,
                ctx_size=ctx_size)
            if validate is True:
                from ..tv import raise_on_alarm

                raise_on_alarm(report.certificates)
        if cache is not None and key is not None:
            cache.put(key, program, report)
        return program, report

    def _apply_tiers(self, program: BpfProgram, superopt, pgo, memo=None,
                     recorder=None) -> List[PassStats]:
        """Run the requested post-pass tiers over *program* in place, in
        :data:`TIERS` order (normalized specs; None skips a tier).
        *memo* is the superoptimizer's shared rewrite memo (normally
        the compilation cache itself)."""
        stats = []
        if superopt is not None:
            stats.append(run_tier("superopt", program, superopt, memo=memo,
                                  recorder=recorder))
        if pgo is not None:
            stats.append(self._apply_layout(program, pgo, recorder=recorder))
        return stats

    def _apply_layout(self, program: BpfProgram, spec,
                      recorder=None) -> PassStats:
        """The layout tier; a method of its own so perfbench's tracer
        can time it by name."""
        return run_tier("layout", program, spec, recorder=recorder)

    def _certify(self, recorder, module=None, prog_type=None,
                 mcpu: str = "v2", ctx_size: int = 64):
        from ..tv import TranslationValidator

        validator = TranslationValidator()
        return validator.validate_all(
            recorder.witnesses, module=module, prog_type=prog_type,
            mcpu=mcpu, ctx_size=ctx_size)

    def optimize_program(self, program: BpfProgram, validate=False,
                         pgo=None, superopt=None,
                         cache=None) -> Tuple[BpfProgram, MerlinReport]:
        """Bytecode tier only, for programs without IR (assembled code).

        ``validate``, ``pgo`` and ``superopt`` work as in
        :meth:`compile` (bytecode-tier witnesses only); *cache* is only
        used as the superopt rewrite-memo store here."""
        pgo = tier_spec("layout", pgo)
        superopt = tier_spec("superopt", superopt)
        recorder = None
        if validate:
            from ..tv import WitnessRecorder

            recorder = WitnessRecorder()
        start = time.perf_counter()
        optimized = program.copy()
        ni_before = program.ni
        stats = run_bytecode_passes(optimized, self.bytecode_passes(),
                                    recorder)
        stats += self._apply_tiers(optimized, superopt, pgo, memo=cache,
                                   recorder=recorder)
        report = MerlinReport(
            name=program.name,
            ni_original=ni_before,
            ni_optimized=optimized.ni,
            pass_stats=stats,
            compile_seconds=time.perf_counter() - start,
        )
        if recorder is not None:
            report.certificates = self._certify(recorder, mcpu=program.mcpu)
            if validate is True:
                from ..tv import raise_on_alarm

                raise_on_alarm(report.certificates)
        return optimized, report

