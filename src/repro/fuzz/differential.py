"""Differential executor: one generated program, many pass pipelines.

Builds the baseline (no Merlin) and an optimized variant per enabled-
pass configuration — rebuilding from the layer's surface text every
time, since IR passes mutate their input — and compares observable
behaviour with the shared oracle.  A disagreement in return value, map
contents, memory effects, fault behaviour, or verifier verdict is a
:class:`Divergence`; a pass that crashes while the baseline compiles is
one too.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import FrozenSet, List, Optional, Sequence, Tuple

from ..core.pipeline import ALL_OPTIMIZERS, MerlinPipeline
from ..frontend import compile_source
from ..codegen import compile_function
from ..ir import parse_function
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
    sequence.extend(("bytecode", p) for p in pipeline.bytecode_passes(case.mcpu))
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
        program = BpfProgram(case.name, assemble(case.text),
                             prog_type=case.prog_type, ctx_size=case.ctx_size,
                             mcpu=case.mcpu)
        for _, bc_pass in sequence:
            bc_pass.run(program)
        return program

    if case.layer == "source":
        module = compile_source(case.text)
        func = module.get(case.name)
    else:  # "ir"
        module = None
        func = parse_function(case.text)
    for tier, ir_pass in sequence:
        if tier == "ir":
            ir_pass.run(func, module)
    program = compile_function(func, module, prog_type=case.prog_type,
                               mcpu=case.mcpu, ctx_size=case.ctx_size)
    for tier, bc_pass in sequence:
        if tier == "bytecode":
            bc_pass.run(program)
    return program


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
    hit = first_divergence(baseline.observations, observations)
    if hit is not None:
        index, kind = hit
        base, opt = baseline.observations[index], observations[index]
        if kind == "fault":
            detail = f"baseline fault={base.fault} optimized fault={opt.fault}"
        elif kind == "return":
            detail = (f"baseline r0={base.return_value:#x} "
                      f"optimized r0={opt.return_value:#x}")
        else:
            detail = "map/memory/output state differs"
        return Divergence(case, config, kind, index, detail)
    if baseline.verifier_ok:
        result = verify(optimized, kernel)
        if not result.ok:
            return Divergence(case, config, "verifier",
                              detail=f"optimized rejected: {result.reason}")
    return None


#: pseudo-config name the layout axis reports divergences under
LAYOUT_CONFIG = ("layout",)


def check_layout(case: GeneratedProgram, baseline: BaselineRecord,
                 kernel: KernelConfig = DEFAULT_KERNEL,
                 ) -> Optional[Divergence]:
    """Layout-on vs layout-off axis: profile the baseline program on
    its own oracle battery, re-lay it out, and require identical return
    value, fault behaviour, and map/memory state on the reference
    interpreter (counters legitimately change — layout exists to change
    them).  On top of the behavioral check, every rewrite the pass
    performed must carry a witness the TV layer certifies; an
    uncertified layout is a divergence even when behaviour agrees."""
    from ..core.bytecode_passes.layout import (ProfileGuidedLayoutPass,
                                               collect_profile)
    from ..tv import WitnessRecorder
    from ..tv.regioncheck import validate_bytecode_witness

    program = baseline.program.copy()
    try:
        profile = collect_profile(program, tests=baseline.tests)
        layout = ProfileGuidedLayoutPass(profile)
        recorder = WitnessRecorder()
        layout.recorder = recorder
        layout.run(program)
    except Exception as exc:
        return Divergence(case, LAYOUT_CONFIG, "build",
                          detail=f"{type(exc).__name__}: {exc}")
    reference = observe_battery(baseline.program, baseline.tests,
                                seed=baseline.oracle_seed)
    relaid = observe_battery(program, baseline.tests,
                             seed=baseline.oracle_seed)
    hit = first_divergence(reference, relaid)
    if hit is not None:
        index, kind = hit
        base, opt = reference[index], relaid[index]
        if kind == "fault":
            detail = (f"layout-off fault={base.fault} "
                      f"layout-on fault={opt.fault}")
        elif kind == "return":
            detail = (f"layout-off r0={base.return_value:#x} "
                      f"layout-on r0={opt.return_value:#x}")
        else:
            detail = "map/memory/output state differs"
        return Divergence(case, LAYOUT_CONFIG, kind, index, detail)
    for witness in recorder.witnesses:
        cert = validate_bytecode_witness(witness)
        if not cert.certified:
            return Divergence(
                case, LAYOUT_CONFIG, "certificate",
                detail=f"layout witness not certified: {cert.detail}")
    return None


#: pseudo-config name the superopt-on/off axis reports under
SUPEROPT_CONFIG = ("superopt",)


def check_superopt(case: GeneratedProgram, baseline: BaselineRecord,
                   kernel: KernelConfig = DEFAULT_KERNEL,
                   ) -> Optional[Divergence]:
    """Superopt-on vs superopt-off axis: run the windowed
    superoptimizer over the baseline program and require identical
    return value, fault behaviour, and map/memory state on the
    reference interpreter.  Every rewrite the pass applied must carry a
    witness
    the TV layer certifies; an uncertified rewrite is a divergence
    even when behaviour agrees."""
    from ..core.superopt import SuperoptimizerPass, SuperoptSpec
    from ..tv import WitnessRecorder
    from ..tv.regioncheck import validate_bytecode_witness

    program = baseline.program.copy()
    try:
        superopt = SuperoptimizerPass(SuperoptSpec())
        recorder = WitnessRecorder()
        superopt.recorder = recorder
        superopt.run(program)
    except Exception as exc:
        return Divergence(case, SUPEROPT_CONFIG, "build",
                          detail=f"{type(exc).__name__}: {exc}")
    reference = observe_battery(baseline.program, baseline.tests,
                                seed=baseline.oracle_seed)
    rewritten = observe_battery(program, baseline.tests,
                                seed=baseline.oracle_seed)
    hit = first_divergence(reference, rewritten)
    if hit is not None:
        index, kind = hit
        base, opt = reference[index], rewritten[index]
        if kind == "fault":
            detail = (f"superopt-off fault={base.fault} "
                      f"superopt-on fault={opt.fault}")
        elif kind == "return":
            detail = (f"superopt-off r0={base.return_value:#x} "
                      f"superopt-on r0={opt.return_value:#x}")
        else:
            detail = "map/memory/output state differs"
        return Divergence(case, SUPEROPT_CONFIG, kind, index, detail)
    for witness in recorder.witnesses:
        cert = validate_bytecode_witness(witness)
        if not cert.certified:
            return Divergence(
                case, SUPEROPT_CONFIG, "certificate",
                detail=f"superopt witness not certified: {cert.detail}")
    return None


#: pseudo-config name the translation-validation axis reports under
CERT_CONFIG = ("certificates",)


def check_certificates(case: GeneratedProgram,
                       kernel: KernelConfig = DEFAULT_KERNEL,
                       ) -> Optional[Divergence]:
    """Translation-validation axis: run the full pipeline in
    ``validate="report"`` mode and demand a certificate for every pass
    application.  A non-certified application is a per-pass semantic
    divergence — finer-grained than the end-to-end config checks, and it
    names the faulting pass and program point directly (no bisection
    needed)."""
    pipeline = MerlinPipeline(kernel=kernel)
    try:
        if case.layer == "bytecode":
            program = BpfProgram(case.name, assemble(case.text),
                                 prog_type=case.prog_type,
                                 ctx_size=case.ctx_size, mcpu=case.mcpu)
            _, report = pipeline.optimize_program(program, validate="report")
        else:
            if case.layer == "source":
                module = compile_source(case.text)
                func = module.get(case.name)
            else:  # "ir"
                module = None
                func = parse_function(case.text)
            _, report = pipeline.compile(func, module,
                                         prog_type=case.prog_type,
                                         mcpu=case.mcpu,
                                         ctx_size=case.ctx_size,
                                         validate="report")
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


def diff_case(case: GeneratedProgram,
              configs: Sequence[FrozenSet[str]] = PASS_CONFIGS,
              kernel: KernelConfig = DEFAULT_KERNEL,
              tests_per_program: int = 4,
              oracle_seed: int = 7,
              certify: bool = True,
              layout: bool = True,
              superopt: bool = True) -> Optional[Divergence]:
    """Run *case* under every config; first divergence wins."""
    baseline = observe_baseline(case, kernel, tests_per_program, oracle_seed)
    for enabled in configs:
        divergence = check_config(case, enabled, baseline, kernel)
        if divergence is not None:
            return divergence
    if layout:
        divergence = check_layout(case, baseline, kernel)
        if divergence is not None:
            return divergence
    if superopt:
        divergence = check_superopt(case, baseline, kernel)
        if divergence is not None:
            return divergence
    if certify:
        # behavioral configs take precedence: their divergences are
        # bisectable and minimizable, a certificate hit is not
        divergence = check_certificates(case, kernel)
        if divergence is not None:
            return divergence
    return None


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
