"""Tier harness: before/after measurement of one post-pass tier.

For every program of a workload suite the harness

1. builds the variant the tier is measured against
   (:data:`MEASURED_AGAINST`): the baseline (no Merlin passes) for
   ``layout``, which composes with any pipeline, and the Merlin
   bytecode tier's output (``pipeline.optimize_program``) for
   ``superopt``, whose wins count only beyond Merlin-only,
2. runs the tier over a copy through
   :func:`repro.core.pipeline.run_tier` with a witness recorder
   attached and certifies every witness through :mod:`repro.tv` —
   layout profiles on the program's own oracle battery, and superopt
   shares one rewrite memo across every suite of a run, so later
   programs replay windows earlier ones already searched,
3. replays that battery on **fresh** machines for both variants,
   accumulates the model counters, and compares behaviour with the fuzz
   oracle's full observation (return value plus maps, perf output,
   packet and redirects after each run, or the fault type), which must
   be identical.

Fresh machines per variant make the measurement cold-start honest: the
2-bit predictor boots weakly not-taken, so the mispredicts layout
removes by straightening are exactly the ones a newly attached program
pays in the wild.  Counters from the simulator's hw models are
deterministic, so the deltas are exact, repeatable, and CI-assertable
— no min-of-N needed.  The per-program table is the Fig-10-style
compactness comparison, and the tier's own counters (superopt's
``memo_hits``/``searches`` split, layout's profiled runs) come from
its :class:`~repro.core.pass_manager.PassStats` details.

``repro bench-tier {layout,superopt}`` drives this and writes
``BENCH_<tier>.json``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..cache import CompilationCache
from ..core.bytecode_passes.layout import PgoSpec
from ..core.pipeline import MerlinPipeline, run_tier
from ..core.superopt import SuperoptSpec
from ..fuzz.oracle import (RUNTIME_FAULTS, Observation, TestCase,
                           first_divergence, generate_tests,
                           observable_state)
from ..hw import PerfCounters
from ..isa import BpfProgram
from ..vm import Machine

#: suites the tier harness understands: the three trace suites plus
#: the curated XDP workload set
VM_SUITES = ("sysdig", "tetragon", "tracee", "xdp")

#: the variant each tier is measured against
MEASURED_AGAINST = {"layout": "baseline", "superopt": "merlin"}


def _suite_programs(suite: str, seed: int, scale: float,
                    count: Optional[int]) -> List[BpfProgram]:
    """Compile the baseline (no Merlin passes) benchmark programs for
    *suite*."""
    if suite == "xdp":
        from ..workloads.xdp import ALL_XDP, compile_workload

        programs = [compile_workload(workload) for workload in ALL_XDP]
        if count is not None:
            programs = programs[:count]
        return programs
    from ..workloads.suites import compile_suite_program, generate_suite

    return [compile_suite_program(generated) for generated in
            generate_suite(suite, seed=seed, scale=scale, count=count)]


def _tier_spec(tier: str, seed: int, tests_per_program: int,
               max_insns: int):
    """The spec *tier* runs under: layout's profile replays the
    harness battery under its seed and step limit; superopt searches
    under its default spec."""
    if tier == "layout":
        return PgoSpec(tests=tests_per_program, seed=seed,
                       max_insns=max_insns)
    return SuperoptSpec()


@dataclass
class VariantCounters:
    """Accumulated model counters for one variant of a suite."""

    instructions: int = 0
    cycles: int = 0
    branches: int = 0
    branch_misses: int = 0
    cache_references: int = 0
    cache_misses: int = 0
    faults: int = 0
    runs: int = 0

    def absorb(self, counters: PerfCounters) -> None:
        self.instructions += counters.instructions
        self.cycles += counters.cycles
        self.branches += counters.branches
        self.branch_misses += counters.branch_misses
        self.cache_references += counters.cache_references
        self.cache_misses += counters.cache_misses

    def to_dict(self) -> dict:
        return {
            "instructions": self.instructions,
            "cycles": self.cycles,
            "branches": self.branches,
            "branch_misses": self.branch_misses,
            "cache_references": self.cache_references,
            "cache_misses": self.cache_misses,
            "faults": self.faults,
            "runs": self.runs,
        }


@dataclass
class ProgramRow:
    """One table row: NI at each stage for one program."""

    name: str
    ni_baseline: int
    ni_before: int
    ni_after: int
    rewrites: int

    @property
    def smaller(self) -> bool:
        """The tier left the program shorter than it found it."""
        return self.ni_after < self.ni_before

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "ni_baseline": self.ni_baseline,
            "ni_before": self.ni_before,
            "ni_after": self.ni_after,
            "rewrites": self.rewrites,
            "smaller": self.smaller,
        }


def _add_counters(into: Dict[str, int], counters: Dict[str, int]) -> None:
    for key, value in counters.items():
        into[key] = into.get(key, 0) + value


@dataclass
class TierSuitePerf:
    """Before/after measurement of one tier over one suite."""

    suite: str
    table: List[ProgramRow] = field(default_factory=list)
    before: VariantCounters = field(default_factory=VariantCounters)
    after: VariantCounters = field(default_factory=VariantCounters)
    behavior_identical: bool = True
    mismatch: str = ""
    witnesses: int = 0
    witnesses_certified: bool = True
    #: the tier's own counters (PassStats details), summed
    counters: Dict[str, int] = field(default_factory=dict)

    @property
    def programs(self) -> int:
        return len(self.table)

    @property
    def changed(self) -> int:
        """Programs the tier rewrote at all."""
        return sum(1 for row in self.table if row.rewrites)

    @property
    def smaller(self) -> int:
        return sum(1 for row in self.table if row.smaller)

    @property
    def rewrites(self) -> int:
        return sum(row.rewrites for row in self.table)

    @property
    def ni_before(self) -> int:
        return sum(row.ni_before for row in self.table)

    @property
    def ni_after(self) -> int:
        return sum(row.ni_after for row in self.table)

    @property
    def branch_miss_delta(self) -> int:
        """Positive = the tier removed mispredictions."""
        return self.before.branch_misses - self.after.branch_misses

    @property
    def cycle_delta(self) -> int:
        return self.before.cycles - self.after.cycles

    @property
    def fewer_branch_misses(self) -> bool:
        return self.branch_miss_delta > 0

    def to_dict(self) -> dict:
        return {
            "suite": self.suite,
            "programs": self.programs,
            "changed": self.changed,
            "smaller": self.smaller,
            "rewrites": self.rewrites,
            "ni_before": self.ni_before,
            "ni_after": self.ni_after,
            "behavior_identical": self.behavior_identical,
            "mismatch": self.mismatch,
            "witnesses": self.witnesses,
            "witnesses_certified": self.witnesses_certified,
            "counters": dict(self.counters),
            "branch_miss_delta": self.branch_miss_delta,
            "cycle_delta": self.cycle_delta,
            "fewer_branch_misses": self.fewer_branch_misses,
            "table": [row.to_dict() for row in self.table],
            "before": self.before.to_dict(),
            "after": self.after.to_dict(),
        }


@dataclass
class TierBenchReport:
    """Everything ``repro bench-tier`` measured, JSON-serializable."""

    tier: str
    seed: int
    tests_per_program: int
    spec: str = ""
    suites: List[TierSuitePerf] = field(default_factory=list)

    @property
    def programs_smaller(self) -> int:
        return sum(suite.smaller for suite in self.suites)

    @property
    def suites_fewer_branch_misses(self) -> int:
        return sum(1 for suite in self.suites if suite.fewer_branch_misses)

    @property
    def all_behavior_identical(self) -> bool:
        return all(suite.behavior_identical for suite in self.suites)

    @property
    def all_certified(self) -> bool:
        return all(suite.witnesses_certified for suite in self.suites)

    @property
    def counters(self) -> Dict[str, int]:
        total: Dict[str, int] = {}
        for suite in self.suites:
            _add_counters(total, suite.counters)
        return total

    def to_dict(self) -> dict:
        return {
            "tier": self.tier,
            "measured_against": MEASURED_AGAINST[self.tier],
            "seed": self.seed,
            "tests_per_program": self.tests_per_program,
            "spec": self.spec,
            "programs_smaller": self.programs_smaller,
            "suites_fewer_branch_misses": self.suites_fewer_branch_misses,
            "all_behavior_identical": self.all_behavior_identical,
            "all_certified": self.all_certified,
            "counters": self.counters,
            "suites": [suite.to_dict() for suite in self.suites],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    def write(self, path: str) -> None:
        with open(path, "w") as handle:
            handle.write(self.to_json() + "\n")


def _measure(program: BpfProgram, tests: Sequence[TestCase], seed: int,
             max_insns: int, into: VariantCounters) -> List[Observation]:
    """Run the battery on a fresh machine per program and accumulate the
    model counters; returns the behaviour trace for comparison: each
    run's return value and observable state, or its fault type."""
    trace: List[Observation] = []
    machine = Machine(program, max_insns=max_insns, seed=seed)
    for test in tests:
        try:
            result = machine.run(ctx=test.ctx, packet=test.packet)
        except RUNTIME_FAULTS as exc:
            into.faults += 1
            trace.append(Observation(fault=type(exc).__name__))
        else:
            trace.append(Observation(result.return_value,
                                     observable_state(machine)))
        into.runs += 1
    into.absorb(machine.counters)
    return trace


def _mismatch(index: int, before: Sequence[Observation],
              after: Sequence[Observation]) -> str:
    """Where two behaviour traces first differ, or "" when they agree."""
    hit = first_divergence(before, after)
    if hit is None:
        return ""
    run, kind = hit
    return f"program {index} run {run}: {kind} differs"


def bench_tier_suite(tier: str, suite: str, seed: int = 2024,
                     scale: float = 0.2, count: Optional[int] = None,
                     tests_per_program: int = 6,
                     max_insns: int = 200_000,
                     memo: Optional[CompilationCache] = None,
                     ) -> TierSuitePerf:
    """Measure *tier* over one suite.

    *memo* is superopt's rewrite-memo store; passing the same cache to
    every suite makes cross-suite replay visible in its counters.
    """
    from ..tv import WitnessRecorder
    from ..tv.regioncheck import validate_bytecode_witness

    spec = _tier_spec(tier, seed, tests_per_program, max_insns)
    pipeline = MerlinPipeline()
    result = TierSuitePerf(suite=suite)
    for index, program in enumerate(_suite_programs(suite, seed, scale,
                                                    count)):
        before = program
        if MEASURED_AGAINST[tier] == "merlin":
            before, _ = pipeline.optimize_program(program)
        tests = generate_tests(before, count=tests_per_program,
                               seed=seed + index)
        after = before.copy()
        recorder = WitnessRecorder()
        stats = run_tier(tier, after, spec, tests=tests, memo=memo,
                         recorder=recorder)
        result.table.append(ProgramRow(
            name=program.name or f"{suite}-{index}", ni_baseline=program.ni,
            ni_before=before.ni, ni_after=after.ni, rewrites=stats.rewrites))
        _add_counters(result.counters, stats.details)
        for witness in recorder.witnesses:
            result.witnesses += 1
            if not validate_bytecode_witness(witness).certified:
                result.witnesses_certified = False
        mismatch = _mismatch(
            index, _measure(before, tests, seed, max_insns, result.before),
            _measure(after, tests, seed, max_insns, result.after))
        if mismatch and result.behavior_identical:
            result.behavior_identical = False
            result.mismatch = mismatch
    return result


def bench_tier(tier: str, suites: Sequence[str] = VM_SUITES,
               seed: int = 2024, scale: float = 0.2,
               count: Optional[int] = None, tests_per_program: int = 6,
               max_insns: int = 200_000) -> TierBenchReport:
    """The whole ``repro bench-tier`` measurement: every suite in turn,
    through one shared rewrite memo."""
    report = TierBenchReport(
        tier=tier, seed=seed, tests_per_program=tests_per_program,
        spec=_tier_spec(tier, seed, tests_per_program,
                        max_insns).fingerprint())
    memo = CompilationCache()
    for suite in suites:
        report.suites.append(
            bench_tier_suite(tier, suite, seed=seed, scale=scale,
                             count=count,
                             tests_per_program=tests_per_program,
                             max_insns=max_insns, memo=memo))
    return report
