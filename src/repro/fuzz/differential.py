"""Differential executor: one generated program, many pass pipelines.

Builds the baseline (no Merlin) and an optimized variant per enabled-
pass configuration — rebuilding from the layer's surface text every
time, since IR passes mutate their input — and compares observable
behaviour with the shared oracle.  A disagreement in return value, map
contents, memory effects, fault behaviour, or verifier verdict is a
:class:`Divergence`; a pass that crashes while the baseline compiles is
one too.  After the configurations, each post-pass tier and the
per-pass certificates are checked the same way (:func:`check_axes`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, List, Optional, Sequence, Tuple

from ..core.pass_manager import run_bytecode_passes
from ..core.pipeline import (ALL_OPTIMIZERS, MerlinPipeline, MerlinReport,
                             run_tier)
from ..frontend import compile_source
from ..codegen import compile_function
from ..ir import Function, Module, parse_function
from ..isa import BpfProgram, assemble
from ..verifier import DEFAULT_KERNEL, KernelConfig, verify
from .generator import GeneratedProgram
from .oracle import (
    Observation,
    TestCase,
    first_divergence,
    generate_tests,
    observe_battery,
)

#: the configurations every program is checked under: the full pipeline,
#: each optimizer alone, and the combinations whose passes feed each
#: other (store-immediate folding creates the stores superword merging
#: and compaction consume)
PASS_CONFIGS: Tuple[FrozenSet[str], ...] = (
    frozenset(ALL_OPTIMIZERS),
    frozenset({"cpdce"}),
    frozenset({"slm"}),
    frozenset({"dao"}),
    frozenset({"mof"}),
    frozenset({"cc"}),
    frozenset({"po"}),
    frozenset({"cpdce", "slm"}),
    frozenset({"cpdce", "cc", "po"}),
)


@dataclass
class Divergence:
    """A generated program behaving differently after optimization."""

    case: GeneratedProgram
    enabled: Tuple[str, ...]  # sorted optimizer names
    kind: str  # "return"|"state"|"fault"|"verifier"|"build"|"certificate"
    test_index: Optional[int] = None
    detail: str = ""

    def describe(self) -> str:
        config = "+".join(self.enabled) or "<none>"
        where = f" on test {self.test_index}" if self.test_index is not None \
            else ""
        return (f"[{self.case.layer}/seed={self.case.seed}] {self.kind} "
                f"divergence under {config}{where}: {self.detail}")


def pass_sequence(case: GeneratedProgram, enabled: FrozenSet[str],
                  kernel: KernelConfig = DEFAULT_KERNEL,
                  ) -> List[Tuple[str, object]]:
    """The ordered (tier, pass) pipeline a config applies to *case*.

    Fresh pass objects every call: passes are cheap to build and the
    bisector needs to re-run arbitrary sub-sequences.  Bytecode-layer
    programs never see the IR tier, so it is filtered out of their
    sequence (bisection positions then index real work only).
    """
    pipeline = MerlinPipeline(kernel=kernel, enabled=enabled)
    sequence: List[Tuple[str, object]] = []
    if case.layer != "bytecode":
        sequence.extend(("ir", p) for p in pipeline.ir_passes())
    sequence.extend(("bytecode", p) for p in pipeline.bytecode_passes())
    return sequence


def build_program(case: GeneratedProgram,
                  enabled: FrozenSet[str] = frozenset(),
                  kernel: KernelConfig = DEFAULT_KERNEL,
                  keep: Optional[Sequence[int]] = None) -> BpfProgram:
    """Compile *case* from its surface text, applying a pass pipeline.

    ``keep`` restricts the sequence to the given positions (the
    bisector's ablation knob); None applies every pass of the config.
    """
    sequence = pass_sequence(case, enabled, kernel)
    if keep is not None:
        sequence = [sequence[i] for i in keep]

    if case.layer == "bytecode":
        program = _assemble_case(case)
    else:
        func, module = _parse_case(case)
        for tier, ir_pass in sequence:
            if tier == "ir":
                ir_pass.run(func, module)
        program = compile_function(func, module, prog_type=case.prog_type,
                                   mcpu=case.mcpu, ctx_size=case.ctx_size)
    run_bytecode_passes(program, [p for tier, p in sequence
                                  if tier == "bytecode"])
    return program


def _assemble_case(case: GeneratedProgram) -> BpfProgram:
    """A bytecode-layer case as a program."""
    return BpfProgram(case.name, assemble(case.text),
                      prog_type=case.prog_type, ctx_size=case.ctx_size,
                      mcpu=case.mcpu)


def _parse_case(case: GeneratedProgram) -> Tuple[Function, Optional[Module]]:
    """A source- or IR-layer case as a fresh (function, module)."""
    if case.layer == "source":
        module = compile_source(case.text)
        return module.get(case.name), module
    return parse_function(case.text), None  # "ir"


@dataclass
class BaselineRecord:
    """The reference against which every config is compared."""

    program: BpfProgram
    tests: List[TestCase]
    observations: List[Observation]
    verifier_ok: bool
    oracle_seed: int


def observe_baseline(case: GeneratedProgram,
                     kernel: KernelConfig = DEFAULT_KERNEL,
                     tests_per_program: int = 4,
                     oracle_seed: int = 7) -> BaselineRecord:
    """Compile the un-optimized program and record its behaviour."""
    program = build_program(case, frozenset(), kernel)
    tests = generate_tests(program, count=tests_per_program, seed=oracle_seed)
    observations = observe_battery(program, tests, seed=oracle_seed)
    verifier_ok = verify(program, kernel).ok
    return BaselineRecord(program, tests, observations, verifier_ok,
                          oracle_seed)


def _behaviour_divergence(case: GeneratedProgram, config: Tuple[str, ...],
                          before: Sequence[Observation],
                          after: Sequence[Observation],
                          off: str, on: str) -> Optional[Divergence]:
    """The first run on which *after* behaves unlike *before*, as a
    divergence whose detail names the two sides *off* and *on*."""
    hit = first_divergence(before, after)
    if hit is None:
        return None
    index, kind = hit
    base, opt = before[index], after[index]
    if kind == "fault":
        detail = f"{off} fault={base.fault} {on} fault={opt.fault}"
    elif kind == "return":
        detail = (f"{off} r0={base.return_value:#x} "
                  f"{on} r0={opt.return_value:#x}")
    else:
        detail = "map/memory/output state differs"
    return Divergence(case, config, kind, index, detail)


def check_config(case: GeneratedProgram, enabled: FrozenSet[str],
                 baseline: BaselineRecord,
                 kernel: KernelConfig = DEFAULT_KERNEL,
                 keep: Optional[Sequence[int]] = None,
                 ) -> Optional[Divergence]:
    """Compare one pass configuration against the baseline record."""
    config = tuple(sorted(enabled))
    try:
        optimized = build_program(case, enabled, kernel, keep=keep)
    except Exception as exc:  # a pass crashed: that's a finding, not noise
        return Divergence(case, config, "build",
                          detail=f"{type(exc).__name__}: {exc}")
    observations = observe_battery(optimized, baseline.tests,
                                   seed=baseline.oracle_seed)
    divergence = _behaviour_divergence(case, config, baseline.observations,
                                       observations, "baseline", "optimized")
    if divergence is not None:
        return divergence
    if baseline.verifier_ok:
        result = verify(optimized, kernel)
        if not result.ok:
            return Divergence(case, config, "verifier",
                              detail=f"optimized rejected: {result.reason}")
    return None


#: the post-pass tiers (:data:`repro.core.pipeline.TIERS`) as fuzz axes,
#: in check order: layout first, so a case that breaks both tiers is
#: reported as a layout finding.  Each reports under the pseudo-config
#: ``(tier,)``.
TIER_AXES = ("layout", "superopt")


def check_tier(case: GeneratedProgram, baseline: BaselineRecord,
               tier: str) -> Optional[Divergence]:
    """Tier-on vs tier-off axis: run post-pass *tier* over the baseline
    program (layout profiles it on its own oracle battery) and require
    identical return value, fault behaviour, and map/memory state on
    the reference interpreter (counters legitimately change — layout
    exists to change them).  On top of the behavioral check, every
    rewrite the tier performed must carry a witness the TV layer
    certifies; an uncertified rewrite is a divergence even when
    behaviour agrees."""
    from ..tv import WitnessRecorder
    from ..tv.regioncheck import validate_bytecode_witness

    config = (tier,)
    program = baseline.program.copy()
    recorder = WitnessRecorder()
    try:
        run_tier(tier, program, tests=baseline.tests, recorder=recorder)
    except Exception as exc:
        return Divergence(case, config, "build",
                          detail=f"{type(exc).__name__}: {exc}")
    divergence = _behaviour_divergence(
        case, config, baseline.observations,
        observe_battery(program, baseline.tests, seed=baseline.oracle_seed),
        f"{tier}-off", f"{tier}-on")
    if divergence is not None:
        return divergence
    for witness in recorder.witnesses:
        cert = validate_bytecode_witness(witness)
        if not cert.certified:
            return Divergence(
                case, config, "certificate",
                detail=f"{tier} witness not certified: {cert.detail}")
    return None


#: pseudo-config name the translation-validation axis reports under
CERT_CONFIG = ("certificates",)

#: the axes that name the guilty pass themselves: their divergences
#: skip bisection and minimization
PSEUDO_CONFIGS = tuple((tier,) for tier in TIER_AXES) + (CERT_CONFIG,)


def certify_case(case: GeneratedProgram,
                 kernel: KernelConfig = DEFAULT_KERNEL) -> MerlinReport:
    """Build *case* through the full pipeline in ``validate="report"``
    mode and return the report, with one certificate per pass
    application (bytecode cases run the bytecode tier only).  A case
    that does not build raises."""
    pipeline = MerlinPipeline(kernel=kernel)
    if case.layer == "bytecode":
        _, report = pipeline.optimize_program(_assemble_case(case),
                                              validate="report")
        return report
    func, module = _parse_case(case)
    _, report = pipeline.compile(func, module, prog_type=case.prog_type,
                                 mcpu=case.mcpu, ctx_size=case.ctx_size,
                                 validate="report")
    return report


def check_certificates(case: GeneratedProgram,
                       kernel: KernelConfig = DEFAULT_KERNEL,
                       ) -> Optional[Divergence]:
    """Translation-validation axis: run the full pipeline in
    ``validate="report"`` mode and demand a certificate for every pass
    application.  A non-certified application is a per-pass semantic
    divergence — finer-grained than the end-to-end config checks, and it
    names the faulting pass and program point directly (no bisection
    needed)."""
    try:
        report = certify_case(case, kernel)
    except Exception as exc:
        return Divergence(case, CERT_CONFIG, "build",
                          detail=f"{type(exc).__name__}: {exc}")
    for cert in report.certificates:
        if not cert.certified:
            detail = f"{cert.pass_name} at {cert.point}: {cert.detail}"
            if cert.counterexample:
                rendered = ", ".join(
                    f"{k}={v}" for k, v in sorted(cert.counterexample.items()))
                detail += f" [{rendered}]"
            return Divergence(case, CERT_CONFIG, "certificate", detail=detail)
    return None


def check_axes(case: GeneratedProgram, baseline: BaselineRecord,
               configs: Sequence[FrozenSet[str]] = PASS_CONFIGS,
               kernel: KernelConfig = DEFAULT_KERNEL,
               tiers: Sequence[str] = TIER_AXES,
               certify: bool = True) -> Optional[Divergence]:
    """Check *case* axis by axis — every pass config, then each tier of
    *tiers*, then (with *certify*) the per-pass certificates — and
    return the first divergence.  Behavioral configs go first: their
    divergences are bisectable and minimizable, a tier or certificate
    hit is not."""
    for enabled in configs:
        divergence = check_config(case, enabled, baseline, kernel)
        if divergence is not None:
            return divergence
    for tier in tiers:
        divergence = check_tier(case, baseline, tier)
        if divergence is not None:
            return divergence
    return check_certificates(case, kernel) if certify else None


def diff_case(case: GeneratedProgram,
              configs: Sequence[FrozenSet[str]] = PASS_CONFIGS,
              kernel: KernelConfig = DEFAULT_KERNEL,
              tests_per_program: int = 4,
              oracle_seed: int = 7,
              certify: bool = True,
              tiers: Sequence[str] = TIER_AXES) -> Optional[Divergence]:
    """Run *case* under every axis; first divergence wins."""
    baseline = observe_baseline(case, kernel, tests_per_program, oracle_seed)
    return check_axes(case, baseline, configs, kernel, tiers, certify)


def replay(layer: str, text: str, entry: str = "f",
           enabled: Sequence[str] = tuple(sorted(ALL_OPTIMIZERS)),
           prog_type: str = "tracepoint", ctx_size: int = 64,
           mcpu: str = "v2", kernel_version: str = "6.5",
           tests_per_program: int = 4,
           oracle_seed: int = 7) -> Optional[Divergence]:
    """Re-check one program/config pair; the entry point emitted into
    auto-generated regression tests (everything JSON-serializable)."""
    from ..isa import ProgramType
    from ..verifier import KERNELS

    case = GeneratedProgram(layer, entry, text, seed=0,
                            prog_type=ProgramType(prog_type),
                            ctx_size=ctx_size, mcpu=mcpu)
    kernel = KERNELS[kernel_version]
    baseline = observe_baseline(case, kernel, tests_per_program, oracle_seed)
    return check_config(case, frozenset(enabled), baseline, kernel)
