"""Superoptimizer benchmark: compactness wins over Merlin-only.

For every program of a workload suite the harness

1. compiles the baseline and runs the full Merlin bytecode tier over it
   (``pipeline.optimize_program`` — the Merlin-only variant),
2. runs the caching superoptimizer pass over a copy of the Merlin
   output with a witness recorder attached and a **shared** rewrite
   memo, certifying every witness through :mod:`repro.tv`,
3. replays the identical oracle battery on fresh machines for both
   variants and requires identical behaviour (the fuzz oracle's return
   value and observable state per run, or the fault type),
4. tabulates per-program NI — the Fig-10-style compactness comparison
   Merlin vs Merlin+superopt — plus the memo hit/search counters that
   show rewrites being discovered once and replayed.

The shared memo means later programs in a suite replay windows earlier
programs already searched; the ``memo_hits``/``searches`` split in the
report quantifies that reuse.  ``repro bench-superopt`` drives this and
emits ``BENCH_superopt.json``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from ..cache import CompilationCache
from ..core.pipeline import MerlinPipeline
from ..core.superopt import SuperoptSpec, SuperoptimizerPass
from ..fuzz.oracle import generate_tests
from .layoutperf import (VM_SUITES, VariantCounters, _measure, _mismatch,
                         _suite_programs)


@dataclass
class ProgramCompactness:
    """One Fig-10-style table row: NI at each stage for one program."""

    name: str
    ni_baseline: int
    ni_merlin: int
    ni_superopt: int
    rewrites: int

    @property
    def improved(self) -> bool:
        """Superopt found wins Merlin-only left on the table."""
        return self.ni_superopt < self.ni_merlin

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "ni_baseline": self.ni_baseline,
            "ni_merlin": self.ni_merlin,
            "ni_superopt": self.ni_superopt,
            "rewrites": self.rewrites,
            "improved": self.improved,
        }


@dataclass
class SuperoptSuitePerf:
    """Merlin-only vs Merlin+superopt measurement of one suite."""

    suite: str
    programs: List[ProgramCompactness] = field(default_factory=list)
    before: VariantCounters = field(default_factory=VariantCounters)
    after: VariantCounters = field(default_factory=VariantCounters)
    behavior_identical: bool = True
    mismatch: str = ""
    witnesses: int = 0
    witnesses_certified: bool = True
    searches: int = 0
    memo_hits: int = 0
    site_rejects: int = 0

    @property
    def ni_merlin(self) -> int:
        return sum(row.ni_merlin for row in self.programs)

    @property
    def ni_superopt(self) -> int:
        return sum(row.ni_superopt for row in self.programs)

    @property
    def improved(self) -> int:
        return sum(1 for row in self.programs if row.improved)

    @property
    def rewrites(self) -> int:
        return sum(row.rewrites for row in self.programs)

    def to_dict(self) -> dict:
        return {
            "suite": self.suite,
            "programs": len(self.programs),
            "improved": self.improved,
            "rewrites": self.rewrites,
            "ni_merlin": self.ni_merlin,
            "ni_superopt": self.ni_superopt,
            "behavior_identical": self.behavior_identical,
            "mismatch": self.mismatch,
            "witnesses": self.witnesses,
            "witnesses_certified": self.witnesses_certified,
            "searches": self.searches,
            "memo_hits": self.memo_hits,
            "site_rejects": self.site_rejects,
            "table": [row.to_dict() for row in self.programs],
            "before": self.before.to_dict(),
            "after": self.after.to_dict(),
        }


@dataclass
class SuperoptBenchReport:
    """Everything ``repro bench-superopt`` measured, JSON-serializable."""

    seed: int
    tests_per_program: int
    spec: str = ""
    suites: List[SuperoptSuitePerf] = field(default_factory=list)

    @property
    def programs_improved(self) -> int:
        return sum(suite.improved for suite in self.suites)

    @property
    def all_behavior_identical(self) -> bool:
        return all(suite.behavior_identical for suite in self.suites)

    @property
    def all_certified(self) -> bool:
        return all(suite.witnesses_certified for suite in self.suites)

    @property
    def searches(self) -> int:
        return sum(suite.searches for suite in self.suites)

    @property
    def memo_hits(self) -> int:
        return sum(suite.memo_hits for suite in self.suites)

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "tests_per_program": self.tests_per_program,
            "spec": self.spec,
            "programs_improved": self.programs_improved,
            "all_behavior_identical": self.all_behavior_identical,
            "all_certified": self.all_certified,
            "searches": self.searches,
            "memo_hits": self.memo_hits,
            "suites": [suite.to_dict() for suite in self.suites],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    def write(self, path: str) -> None:
        with open(path, "w") as handle:
            handle.write(self.to_json() + "\n")


def bench_superopt_suite(suite: str, seed: int = 2024, scale: float = 0.2,
                         count: Optional[int] = None,
                         tests_per_program: int = 6,
                         spec: Optional[SuperoptSpec] = None,
                         memo: Optional[CompilationCache] = None,
                         max_insns: int = 200_000) -> SuperoptSuitePerf:
    """Measure the superopt tier over one suite.

    *memo* is the shared rewrite-memo store; passing the same cache to
    every suite makes cross-suite replay visible in the hit counters.
    """
    from ..tv import WitnessRecorder
    from ..tv.regioncheck import validate_bytecode_witness

    spec = spec if spec is not None else SuperoptSpec()
    pipeline = MerlinPipeline()
    result = SuperoptSuitePerf(suite=suite)
    for index, program in enumerate(_suite_programs(suite, seed, scale,
                                                    count)):
        merlin, _ = pipeline.optimize_program(program)
        superopted = merlin.copy()
        superopt = SuperoptimizerPass(spec, memo=memo)
        recorder = WitnessRecorder()
        superopt.recorder = recorder
        rewrites = superopt.run(superopted)
        result.searches += superopt.counters["searches"]
        result.memo_hits += superopt.counters["memo_hits"]
        result.site_rejects += superopt.counters["site_rejects"]
        for witness in recorder.witnesses:
            result.witnesses += 1
            if not validate_bytecode_witness(witness).certified:
                result.witnesses_certified = False
        result.programs.append(ProgramCompactness(
            name=program.name or f"{suite}-{index}",
            ni_baseline=program.ni, ni_merlin=merlin.ni,
            ni_superopt=superopted.ni, rewrites=rewrites))
        tests = generate_tests(merlin, count=tests_per_program,
                               seed=seed + index)
        mismatch = _mismatch(
            index, _measure(merlin, tests, seed, max_insns, result.before),
            _measure(superopted, tests, seed, max_insns, result.after))
        if mismatch and result.behavior_identical:
            result.behavior_identical = False
            result.mismatch = mismatch
    return result


def bench_superopt(suites: Sequence[str] = VM_SUITES, seed: int = 2024,
                   scale: float = 0.2, count: Optional[int] = None,
                   tests_per_program: int = 6,
                   spec: Optional[SuperoptSpec] = None,
                   max_insns: int = 200_000) -> SuperoptBenchReport:
    """The whole ``repro bench-superopt`` measurement (one shared memo)."""
    spec = spec if spec is not None else SuperoptSpec()
    report = SuperoptBenchReport(seed=seed,
                                 tests_per_program=tests_per_program,
                                 spec=spec.fingerprint())
    memo = CompilationCache()
    for suite in suites:
        if suite not in VM_SUITES:
            raise ValueError(
                f"unknown VM suite {suite!r} (choose from "
                f"{', '.join(VM_SUITES)})")
        report.suites.append(
            bench_superopt_suite(suite, seed=seed, scale=scale, count=count,
                                 tests_per_program=tests_per_program,
                                 spec=spec, memo=memo,
                                 max_insns=max_insns))
    return report
