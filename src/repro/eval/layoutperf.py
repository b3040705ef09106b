"""Layout benchmark: before/after hardware-model deltas for the
profile-guided layout tier.

For every program of a workload suite the harness

1. compiles the baseline (no Merlin passes — layout is what is under
   test, and it composes with any pipeline),
2. collects a branch profile on the program's own oracle battery
   (:func:`repro.core.bytecode_passes.layout.collect_profile`),
3. re-lays a copy out under that profile with a witness recorder
   attached and certifies every witness through :mod:`repro.tv`,
4. replays the identical battery on **fresh** machines for both
   variants and accumulates the model counters.

Fresh machines per variant make the measurement cold-start honest: the
2-bit predictor boots weakly not-taken, so the mispredicts layout
removes by straightening are exactly the ones a newly attached program
pays in the wild.  Counters from the simulator's hw models are
deterministic, so the deltas are exact, repeatable, and CI-assertable
— no min-of-N needed.  Behaviour is compared alongside with the fuzz
oracle's full observation (return value plus maps, perf output, packet
and redirects after each run, or the fault type) and must be identical.

``repro bench-layout`` drives this and emits ``BENCH_layout.json``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from ..core.bytecode_passes.layout import (PgoSpec, ProfileGuidedLayoutPass,
                                           collect_profile)
from ..fuzz.oracle import (RUNTIME_FAULTS, Observation, TestCase,
                           first_divergence, generate_tests,
                           observable_state)
from ..hw import PerfCounters
from ..isa import BpfProgram
from ..vm import Machine

#: suites the tier harnesses understand: the three trace suites plus
#: the curated XDP workload set
VM_SUITES = ("sysdig", "tetragon", "tracee", "xdp")


def _suite_programs(suite: str, seed: int, scale: float,
                    count: Optional[int]) -> List[BpfProgram]:
    """Compile the baseline (no Merlin passes) benchmark programs for
    *suite*.  Generated trace programs that exceed toolchain limits at
    this seed are skipped, like every other suite consumer does."""
    if suite == "xdp":
        from ..workloads.xdp import ALL_XDP, compile_workload

        programs = [compile_workload(workload) for workload in ALL_XDP]
        if count is not None:
            programs = programs[:count]
        return programs
    from ..workloads.suites import compile_suite_program, generate_suite

    programs = []
    for generated in generate_suite(suite, seed=seed, scale=scale,
                                    count=count):
        try:
            programs.append(compile_suite_program(generated))
        except Exception:
            continue
    return programs


@dataclass
class VariantCounters:
    """Accumulated model counters for one layout variant of a suite."""

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
class LayoutSuitePerf:
    """Before/after measurement of one suite."""

    suite: str
    programs: int
    relaid: int              # programs the pass actually changed
    rewrites: int            # moved blocks + straightened branches
    before: VariantCounters
    after: VariantCounters
    behavior_identical: bool
    witnesses: int = 0
    witnesses_certified: bool = True
    mismatch: str = ""

    @property
    def branch_miss_delta(self) -> int:
        """Positive = layout removed mispredictions."""
        return self.before.branch_misses - self.after.branch_misses

    @property
    def cycle_delta(self) -> int:
        return self.before.cycles - self.after.cycles

    @property
    def improved(self) -> bool:
        return self.branch_miss_delta > 0

    def to_dict(self) -> dict:
        return {
            "suite": self.suite,
            "programs": self.programs,
            "relaid": self.relaid,
            "rewrites": self.rewrites,
            "behavior_identical": self.behavior_identical,
            "mismatch": self.mismatch,
            "witnesses": self.witnesses,
            "witnesses_certified": self.witnesses_certified,
            "branch_miss_delta": self.branch_miss_delta,
            "cycle_delta": self.cycle_delta,
            "improved": self.improved,
            "before": self.before.to_dict(),
            "after": self.after.to_dict(),
        }


@dataclass
class LayoutBenchReport:
    """Everything ``repro bench-layout`` measured, JSON-serializable."""

    seed: int
    tests_per_program: int
    suites: List[LayoutSuitePerf] = field(default_factory=list)

    @property
    def suites_improved(self) -> int:
        return sum(1 for suite in self.suites if suite.improved)

    @property
    def all_behavior_identical(self) -> bool:
        return all(suite.behavior_identical for suite in self.suites)

    @property
    def all_certified(self) -> bool:
        return all(suite.witnesses_certified for suite in self.suites)

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "tests_per_program": self.tests_per_program,
            "suites_improved": self.suites_improved,
            "all_behavior_identical": self.all_behavior_identical,
            "all_certified": self.all_certified,
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


def bench_layout_suite(suite: str, seed: int = 2024, scale: float = 0.2,
                       count: Optional[int] = None,
                       tests_per_program: int = 6,
                       max_insns: int = 200_000) -> LayoutSuitePerf:
    """Measure the layout tier over one suite."""
    from ..tv import WitnessRecorder
    from ..tv.regioncheck import validate_bytecode_witness

    programs = _suite_programs(suite, seed, scale, count)
    result = LayoutSuitePerf(suite=suite, programs=len(programs), relaid=0,
                             rewrites=0, before=VariantCounters(),
                             after=VariantCounters(),
                             behavior_identical=True)
    spec = PgoSpec(tests=tests_per_program, seed=seed, max_insns=max_insns)
    for index, program in enumerate(programs):
        tests = generate_tests(program, count=tests_per_program,
                               seed=seed + index)
        profile = collect_profile(program, spec=spec, tests=tests)
        relaid = program.copy()
        layout = ProfileGuidedLayoutPass(profile)
        recorder = WitnessRecorder()
        layout.recorder = recorder
        rewrites = layout.run(relaid)
        if rewrites:
            result.relaid += 1
            result.rewrites += rewrites
        for witness in recorder.witnesses:
            result.witnesses += 1
            if not validate_bytecode_witness(witness).certified:
                result.witnesses_certified = False
        mismatch = _mismatch(
            index, _measure(program, tests, seed, max_insns, result.before),
            _measure(relaid, tests, seed, max_insns, result.after))
        if mismatch and result.behavior_identical:
            result.behavior_identical = False
            result.mismatch = mismatch
    return result


def bench_layout(suites: Sequence[str] = VM_SUITES, seed: int = 2024,
                 scale: float = 0.2, count: Optional[int] = None,
                 tests_per_program: int = 6,
                 max_insns: int = 200_000) -> LayoutBenchReport:
    """The whole ``repro bench-layout`` measurement."""
    report = LayoutBenchReport(seed=seed,
                               tests_per_program=tests_per_program)
    for suite in suites:
        if suite not in VM_SUITES:
            raise ValueError(
                f"unknown VM suite {suite!r} (choose from "
                f"{', '.join(VM_SUITES)})")
        report.suites.append(
            bench_layout_suite(suite, seed=seed, scale=scale, count=count,
                               tests_per_program=tests_per_program,
                               max_insns=max_insns))
    return report
