"""Campaign driver: generate → diff → bisect → minimize → persist.

One campaign runs ``budget`` generated programs round-robin across the
enabled layers, checks each against every pass configuration with the
differential oracle, and — for each divergence — bisects the guilty
pass, shrinks the program with the delta debugger, and writes a
ready-to-commit regression test into the corpus directory.  Every
program also gets an assembler/disassembler round-trip check for free,
since the baseline bytecode is already in hand.
"""

from __future__ import annotations

import json
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import FrozenSet, List, Optional, Sequence, Tuple

from ..isa import assemble, disassemble
from ..verifier import DEFAULT_KERNEL, KernelConfig
from .bisect import BisectResult, bisect_divergence
from .corpus import write_reproducer
from .differential import (
    PASS_CONFIGS,
    Divergence,
    check_certificates,
    check_config,
    check_layout,
    check_superopt,
    observe_baseline,
)
from .generator import LAYERS, GeneratedProgram, generate
from .minimize import minimize_divergence


@dataclass
class FuzzFinding:
    """One confirmed divergence, fully triaged."""

    divergence: Divergence
    bisect: Optional[BisectResult] = None
    minimized: Optional[GeneratedProgram] = None
    reproducer_path: Optional[str] = None

    def to_dict(self) -> dict:
        case = self.divergence.case
        out = {
            "layer": case.layer,
            "seed": case.seed,
            "kind": self.divergence.kind,
            "enabled": list(self.divergence.enabled),
            "detail": self.divergence.detail,
            "test_index": self.divergence.test_index,
            "statements": case.statements,
        }
        if self.bisect is not None:
            out["guilty_pass"] = self.bisect.guilty_pass
            out["guilty_tier"] = self.bisect.guilty_tier
            out["standalone"] = self.bisect.standalone
        if self.minimized is not None:
            out["minimized_statements"] = self.minimized.statements
            out["minimized_text"] = self.minimized.text
        if self.reproducer_path is not None:
            out["reproducer"] = self.reproducer_path
        return out


@dataclass
class FuzzReport:
    """Everything a campaign did, JSON-serializable for the CLI."""

    seed: int
    budget: int
    layers: List[str]
    programs_run: int = 0
    programs_skipped: int = 0  # generated program failed to build at all
    roundtrip_failures: int = 0
    findings: List[FuzzFinding] = field(default_factory=list)
    elapsed_seconds: float = 0.0

    @property
    def clean(self) -> bool:
        return not self.findings and not self.roundtrip_failures

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "budget": self.budget,
            "layers": self.layers,
            "programs_run": self.programs_run,
            "programs_skipped": self.programs_skipped,
            "roundtrip_failures": self.roundtrip_failures,
            "divergences": len(self.findings),
            "clean": self.clean,
            "elapsed_seconds": round(self.elapsed_seconds, 3),
            "findings": [finding.to_dict() for finding in self.findings],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)


def check_roundtrip(program) -> bool:
    """``assemble(disassemble(p)) == p`` — the ISA text format must be
    lossless or minimized reproducers would lie about the program."""
    return assemble(disassemble(program.insns)) == list(program.insns)


def _check_index(index: int, seed: int, layers: Sequence[str],
                 configs: Sequence[FrozenSet[str]], kernel: KernelConfig,
                 tests_per_program: int, minimize: bool,
                 certify: bool = True, layout: bool = True,
                 superopt: bool = True
                 ) -> Tuple[str, Optional[FuzzFinding]]:
    """Generate and triage one campaign index.

    Returns ``(status, finding)`` with status in ``"skipped"`` /
    ``"ok"`` / ``"roundtrip"``; shared verbatim by the sequential loop
    and the parallel workers so a campaign's outcome is independent of
    ``jobs``.
    """
    layer = layers[index % len(layers)]
    # distinct seed stream per layer so adding a layer does not
    # reshuffle every other layer's programs
    case = generate(layer, seed * 1_000_003 + index)

    try:
        baseline = observe_baseline(case, kernel, tests_per_program)
    except Exception:
        # generator produced something the toolchain rejects outright
        # (both sides agree, so nothing differential to learn)
        return "skipped", None

    status = "ok"
    if not check_roundtrip(baseline.program):
        status = "roundtrip"

    divergence: Optional[Divergence] = None
    for enabled in configs:
        divergence = check_config(case, enabled, baseline, kernel)
        if divergence is not None:
            break
    if divergence is None:
        if layout:
            # layout-on vs layout-off axis: profile-guided re-layout
            # must preserve behaviour on the reference interpreter and
            # certify every rewrite.  A hit names the layout pass directly, so
            # it skips pass bisection like the other pseudo-configs.
            layout_divergence = check_layout(case, baseline, kernel)
            if layout_divergence is not None:
                return status, FuzzFinding(layout_divergence)
        if superopt:
            # superopt-on vs superopt-off axis: windowed
            # superoptimization must preserve behaviour on the
            # reference interpreter and certify every rewrite.  A hit names the
            # superopt pass directly, so it skips pass bisection.
            superopt_divergence = check_superopt(case, baseline, kernel)
            if superopt_divergence is not None:
                return status, FuzzFinding(superopt_divergence)
        if certify:
            # translation-validation axis: every pass application of
            # the full pipeline must earn an equivalence certificate.
            # Runs after the behavioral configs so a bug that shows up
            # end-to-end keeps its bisected, minimized reproducer; a
            # certificate hit already names the guilty pass and program
            # point, so that finding skips bisection.
            cert_divergence = check_certificates(case, kernel)
            if cert_divergence is not None:
                return status, FuzzFinding(cert_divergence)
        return status, None

    finding = FuzzFinding(divergence)
    try:
        finding.bisect = bisect_divergence(divergence, kernel,
                                           baseline=baseline,
                                           tests_per_program=tests_per_program)
    except Exception:
        pass
    if minimize:
        try:
            finding.minimized = minimize_divergence(
                divergence, kernel, tests_per_program=tests_per_program)
        except Exception:
            pass
    return status, finding


def _campaign_slice(payload: tuple) -> List[Tuple[int, str, Optional[FuzzFinding]]]:
    """Worker entry point: triage a strided slice of campaign indices."""
    (seed, start, budget, stride, layers, configs, kernel,
     tests_per_program, minimize, certify, layout, superopt) = payload
    out = []
    for index in range(start, budget, stride):
        status, finding = _check_index(index, seed, layers, configs, kernel,
                                       tests_per_program, minimize,
                                       certify, layout, superopt)
        out.append((index, status, finding))
    return out


def run_campaign(seed: int = 0, budget: int = 200,
                 corpus_dir: Optional[str] = None,
                 layers: Sequence[str] = LAYERS,
                 configs: Sequence[FrozenSet[str]] = PASS_CONFIGS,
                 kernel: KernelConfig = DEFAULT_KERNEL,
                 tests_per_program: int = 4,
                 minimize: bool = True,
                 jobs: int = 1,
                 certify: bool = True,
                 layout: bool = True,
                 superopt: bool = True,
                 progress=None) -> FuzzReport:
    """Run one differential-fuzzing campaign of *budget* programs.

    ``jobs > 1`` fans program triage out over worker processes (strided
    index slices keep per-layer seed streams intact); findings are
    merged back in index order and reproducers are written by the
    parent, so the report is identical to a sequential run.

    Every behaviour check runs on the VM's one engine, the reference
    interpreter.

    ``certify`` additionally runs the full pipeline in translation-
    validation mode over every program and requires an equivalence
    certificate for each individual pass application.

    ``layout`` additionally re-lays every baseline program out under a
    profile collected on its own oracle battery and requires identical
    behaviour (return/state/fault — counters excluded by design), plus
    a certified witness for every layout rewrite.

    ``superopt`` additionally runs the windowed superoptimizer over
    every baseline program and requires identical behaviour, plus a
    certified witness for every applied rewrite.
    """
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    report = FuzzReport(seed=seed, budget=budget, layers=list(layers))
    started = time.monotonic()

    if jobs == 1:
        triaged = (
            (index, *_check_index(index, seed, layers, configs, kernel,
                                  tests_per_program, minimize,
                                  certify, layout, superopt))
            for index in range(budget)
        )
        for index, status, finding in triaged:
            _merge_outcome(report, index, status, finding, layers, corpus_dir,
                       progress)
    else:
        payloads = [
            (seed, start, budget, jobs, tuple(layers), tuple(configs),
             kernel, tests_per_program, minimize, certify, layout,
             superopt)
            for start in range(min(jobs, max(budget, 1)))
        ]
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            slices = list(pool.map(_campaign_slice, payloads))
        merged = sorted(
            (item for piece in slices for item in piece),
            key=lambda item: item[0],
        )
        for index, status, finding in merged:
            _merge_outcome(report, index, status, finding, layers, corpus_dir,
                       progress)

    report.elapsed_seconds = time.monotonic() - started
    return report


def _merge_outcome(report: FuzzReport, index: int, status: str,
               finding: Optional[FuzzFinding], layers: Sequence[str],
               corpus_dir: Optional[str], progress) -> None:
    """Fold one triaged index into the campaign report (parent side:
    counters, progress lines, and reproducer writes)."""
    if status == "skipped":
        report.programs_skipped += 1
        return
    report.programs_run += 1
    if status == "roundtrip":
        report.roundtrip_failures += 1
        if progress:
            progress(f"[{index}] {layers[index % len(layers)]}: "
                     "asm round-trip failed")
    if finding is None:
        return
    if progress:
        progress(f"[{index}] {finding.divergence.describe()}")
    if corpus_dir is not None:
        finding.reproducer_path = write_reproducer(
            corpus_dir, finding.divergence, finding.minimized, finding.bisect)
    report.findings.append(finding)
