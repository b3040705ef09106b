"""What every workload hands back to the runner, and the one op that
most of them share: taking a program from source to loaded."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from programs import Prog

#: the tiered configuration (superoptimizer, PGO layout, TV)
TIERS = {"superopt": True, "pgo": True, "validate": "report"}


class LoadError(Exception):
    """The toolchain refused the program (verifier, refuted certificate)."""


@dataclass
class Exact:
    """Totals that must repeat exactly for one seed."""

    #: per-program NI reduction, in %, as Fig 10 reports it
    ni_reductions: List[float] = field(default_factory=list)
    verifier_npi: int = 0
    cycles: int = 0
    runs: int = 0

    def add_ni(self, ni_original: int, ni_optimized: int) -> None:
        self.ni_reductions.append(
            100.0 * (1.0 - ni_optimized / ni_original))

    def metrics(self) -> Dict[str, float]:
        return {
            "ni_reduction_pct":
                sum(self.ni_reductions) / len(self.ni_reductions),
            "verifier_npi": self.verifier_npi,
            "cycles_per_run": self.cycles / self.runs,
        }


@dataclass
class RunRecord:
    """One measured run of one workload.

    ``cold`` holds first-sight ops (a program the system has not seen),
    ``warm`` repeat ops (a program it has); each entry is the op's start
    on the speed clock and its raw duration in seconds.
    """

    cold: List[Tuple[float, float]] = field(default_factory=list)
    warm: List[Tuple[float, float]] = field(default_factory=list)
    #: the part of each op that is a fixed wall-clock wait (a timer), up
    #: to which the speed normalization leaves an op's time unscaled
    fixed_wait_s: float = 0.0
    attempted: int = 0
    failures: List[str] = field(default_factory=list)
    exact: Exact = field(default_factory=Exact)
    peak_rss_mib: float = 0.0
    window_s: float = 0.0
    #: per-layer metrics the workload reads from the program itself
    layers: Dict[str, float] = field(default_factory=dict)
    info: Dict[str, object] = field(default_factory=dict)

    def fail(self, what: str, why: str) -> None:
        self.failures.append(f"{what}: {why}")


def load(prog: Prog, pipeline, cache=None, tiers: Optional[dict] = None):
    """Source -> loaded: frontend, Merlin pipeline (through *cache*),
    verifier, then bind with the engine ``Machine`` picks by default.

    Calls go through the module attributes so tracing wrappers
    installed on them are seen."""
    from repro import frontend, verifier, vm
    from repro.isa import ProgramType

    module = frontend.compile_source(prog.source, prog.name)
    func = module.get(prog.entry)
    program, report = pipeline.compile(
        func, module, prog_type=ProgramType(prog.prog_type), mcpu=prog.mcpu,
        ctx_size=prog.ctx_size, cache=cache, **(tiers or {}))
    refuted = [c for c in report.certificates if c.status == "refuted"]
    if refuted:
        raise LoadError(f"{len(refuted)} refuted certificate(s), first at "
                        f"{refuted[0].pass_name} {refuted[0].point}")
    result = verifier.verify(program, pipeline.kernel)
    if not result.ok:
        raise LoadError(f"verifier rejected: {result.reason}")
    machine = vm.Machine(program)
    return program, report, result, machine


def oracle_check(prog: Prog, program, seed: int, tests: int = 8):
    """Full-oracle comparison of *program* against the baseline
    ``compile_function`` build of the same source: return value, maps,
    perf output, packet and fault on every battery input.

    Returns (divergence or None, cycles, runs) where cycles/runs are the
    optimized program's cost-model totals over the battery."""
    from repro.codegen import compile_function
    from repro.frontend import compile_source
    from repro.fuzz.oracle import (first_divergence, generate_tests,
                                   observe_battery)
    from repro.isa import ProgramType
    import dataclasses

    module = compile_source(prog.source, prog.name)
    baseline = compile_function(module.get(prog.entry), module,
                                prog_type=ProgramType(prog.prog_type),
                                mcpu=prog.mcpu, ctx_size=prog.ctx_size)
    battery = generate_tests(program, count=tests, seed=seed)
    optimized = observe_battery(program, battery, seed=seed,
                                include_counters=True)
    reference = observe_battery(baseline, battery, seed=seed)
    cycles = sum(obs.counters[1] for obs in optimized)
    stripped = [dataclasses.replace(obs, counters=None) for obs in optimized]
    return first_divergence(reference, stripped), cycles, len(optimized)


def report_layers(loads) -> Dict[str, float]:
    """Per-layer counts the pipeline and verifier keep, summed over
    (MerlinReport, VerificationResult) pairs of freshly compiled loads."""
    out: Counter = Counter()
    for report, result in loads:
        for stats in report.pass_stats:
            if stats.name in ("superopt", "layout"):
                key = stats.name
            else:
                tier = "ir_passes" if stats.tier == "ir" else "bytecode_passes"
                key = f"{tier}.{stats.name}"
            out[f"{key}.rewrites"] += stats.rewrites
            for detail in ("windows", "searches", "memo_hits", "applied"):
                if detail in stats.details:
                    out[f"{key}.{detail}"] += stats.details[detail]
            out["layout.profile_runs"] += stats.details.get("profiled_runs",
                                                            0)
        out["tv.witnesses"] += len(report.certificates)
        out["tv.certified"] += sum(1 for c in report.certificates
                                   if c.certified)
        out["verifier.npi"] += result.npi
        out["verifier.total_states"] += result.total_states
        out["verifier.pruned"] += result.pruned
    return dict(out)

