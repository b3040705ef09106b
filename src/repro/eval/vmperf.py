"""VM microbenchmark: interpreted-instructions-per-second per engine.

Measures the two execution engines (``reference`` — the canonical
if/elif interpreter — and ``jit`` — the whole-program method JIT,
:mod:`repro.vm.engine.jit`) over the paper's workload suites, and
cross-checks them while doing so: every run's return value and full
counter tuple must agree with the reference, so a benchmark result
doubles as an engine-equivalence certificate.

The benchmark defaults to pipeline-baseline bytecode (the engines are
what is under test), but the Merlin tiers can be layered on with
``passes``/``pgo``/``superopt`` so fully optimized programs are
measured too; the chosen configuration is recorded in the report.

``insns_per_second`` covers the steady-state ``Machine.run`` loop
only: it answers "how fast does each engine interpret instructions once
a program is loaded".  Loading is not free — a cold JIT bind compiles
the whole program — so each engine also reports ``bind_seconds``, the
wall time of constructing every ``Machine``, with the JIT code cache
cleared at the start of each suite.

``repro bench-vm`` drives this and emits ``BENCH_vm.json``.
"""

from __future__ import annotations

import dataclasses
import json
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..fuzz.oracle import RUNTIME_FAULTS, TestCase, generate_tests
from ..isa import BpfProgram
from ..vm import ENGINES, Machine
from ..vm.engine import clear_jit_cache

#: suites ``bench_vm`` understands: the three trace suites plus the
#: curated XDP workload set
VM_SUITES = ("sysdig", "tetragon", "tracee", "xdp")


def _suite_programs(suite: str, seed: int, scale: float,
                    count: Optional[int],
                    passes: Optional[Sequence[str]] = None,
                    pgo: bool = False,
                    superopt: bool = False) -> List[BpfProgram]:
    """Compile the benchmark programs for *suite*.

    With no optimization arguments this is the baseline pipeline — no
    Merlin passes, the engines are what is under test.  *passes* (a
    pass-name subset, or an empty sequence for the full default set)
    routes compilation through :class:`~repro.core.MerlinPipeline`,
    and *pgo*/*superopt* enable the layout and superoptimizer tiers.
    Generated trace programs that exceed toolchain limits at this seed
    are skipped, like every other suite consumer does."""
    optimize = passes is not None or pgo or superopt
    kwargs: dict = {}
    if optimize:
        kwargs = {
            "optimize": True,
            "pgo": pgo or None,
            "superopt": superopt or None,
        }
        if passes:
            kwargs["enabled"] = frozenset(passes)
    if suite == "xdp":
        from ..workloads.xdp import ALL_XDP, compile_workload

        programs = [compile_workload(workload, **kwargs)
                    for workload in ALL_XDP]
        if count is not None:
            programs = programs[:count]
        return programs
    from ..workloads.suites import compile_suite_program, generate_suite

    programs: List[BpfProgram] = []
    for generated in generate_suite(suite, seed=seed, scale=scale,
                                    count=count):
        try:
            programs.append(compile_suite_program(generated, **kwargs))
        except Exception:
            continue
    return programs


@dataclass
class EngineMeasurement:
    """One engine's aggregate over a suite."""

    engine: str
    instructions: int = 0
    wall_seconds: float = 0.0
    bind_seconds: float = 0.0
    runs: int = 0
    faults: int = 0

    @property
    def insns_per_second(self) -> float:
        return self.instructions / self.wall_seconds if self.wall_seconds \
            else 0.0

    def to_dict(self) -> dict:
        return {
            "engine": self.engine,
            "instructions": self.instructions,
            "wall_seconds": round(self.wall_seconds, 6),
            "bind_seconds": round(self.bind_seconds, 6),
            "runs": self.runs,
            "faults": self.faults,
            "insns_per_second": round(self.insns_per_second, 1),
        }


@dataclass
class SuitePerf:
    """Every engine measured over one suite, with the equivalence
    verdict collected along the way."""

    suite: str
    programs: int
    engines: Dict[str, EngineMeasurement]
    identical: bool
    mismatch: str = ""

    @property
    def jit_speedup(self) -> float:
        """jit-over-reference steady-state instructions per second."""
        ref = self.engines["reference"].insns_per_second
        jit = self.engines["jit"].insns_per_second
        return jit / ref if ref else 0.0

    def to_dict(self) -> dict:
        return {
            "suite": self.suite,
            "programs": self.programs,
            "identical": self.identical,
            "mismatch": self.mismatch,
            "jit_speedup": round(self.jit_speedup, 3),
            "engines": {name: m.to_dict() for name, m in self.engines.items()},
        }


@dataclass
class VmBenchReport:
    """Everything ``repro bench-vm`` measured, JSON-serializable."""

    seed: int
    repeats: int
    tests_per_program: int
    config: Dict[str, object] = field(default_factory=dict)
    suites: List[SuitePerf] = field(default_factory=list)

    @property
    def all_identical(self) -> bool:
        return all(suite.identical for suite in self.suites)

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "repeats": self.repeats,
            "tests_per_program": self.tests_per_program,
            "config": self.config,
            "all_identical": self.all_identical,
            "suites": [suite.to_dict() for suite in self.suites],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    def write(self, path: str) -> None:
        with open(path, "w") as handle:
            handle.write(self.to_json() + "\n")


def _run_engine(programs: Sequence[BpfProgram],
                batteries: Sequence[List[TestCase]],
                engine: str, seed: int, repeats: int,
                max_insns: int, passes: int = 3
                ) -> Tuple[EngineMeasurement, List[Tuple]]:
    """Time one engine over every (program, battery) pair and record the
    per-run observation trace for cross-engine comparison.

    Constructing each ``Machine`` is timed into ``bind_seconds``.  The
    first battery pass is untimed: it warms allocator/model caches and
    records the observation trace.  The timed loop then runs
    ``passes`` times and the fastest pass is kept (the ``timeit``
    min-of-N convention), which suppresses scheduler noise on shared
    machines.
    """
    measurement = EngineMeasurement(engine=engine)
    trace: List[Tuple] = []
    for program, tests in zip(programs, batteries):
        started = time.perf_counter()
        machine = Machine(program, max_insns=max_insns, seed=seed,
                          engine=engine)
        measurement.bind_seconds += time.perf_counter() - started
        for test in tests:
            try:
                result = machine.run(ctx=test.ctx, packet=test.packet)
            except RUNTIME_FAULTS as exc:
                measurement.faults += 1
                trace.append(("fault", type(exc).__name__, str(exc),
                              dataclasses.astuple(machine.counters)))
            else:
                trace.append(("ok", result.return_value,
                              dataclasses.astuple(result.counters)))
        best: Optional[Tuple[float, int]] = None
        for _ in range(max(passes, 1)):
            insns_before = machine.counters.instructions
            started = time.perf_counter()
            for _ in range(repeats):
                for test in tests:
                    try:
                        machine.run(ctx=test.ctx, packet=test.packet)
                    except RUNTIME_FAULTS:
                        pass
            elapsed = time.perf_counter() - started
            executed = machine.counters.instructions - insns_before
            if best is None or elapsed < best[0]:
                best = (elapsed, executed)
        measurement.wall_seconds += best[0]
        measurement.instructions += best[1]
        measurement.runs += repeats * len(tests)
    return measurement, trace


def bench_suite(suite: str, seed: int = 2024, scale: float = 0.2,
                count: Optional[int] = None, tests_per_program: int = 6,
                repeats: int = 8, max_insns: int = 200_000,
                passes: Optional[Sequence[str]] = None,
                pgo: bool = False, superopt: bool = False) -> SuitePerf:
    """Measure every engine over one suite with identical inputs."""
    programs = _suite_programs(suite, seed, scale, count,
                               passes=passes, pgo=pgo, superopt=superopt)
    batteries = [
        generate_tests(program, count=tests_per_program, seed=seed + index)
        for index, program in enumerate(programs)
    ]
    engines: Dict[str, EngineMeasurement] = {}
    traces: Dict[str, List[Tuple]] = {}
    clear_jit_cache()  # every suite pays its own cold JIT binds
    for engine in ENGINES:
        engines[engine], traces[engine] = _run_engine(
            programs, batteries, engine, seed, repeats, max_insns)
    identical = True
    mismatch = ""
    reference = traces["reference"]
    for engine in ENGINES:
        if engine == "reference" or traces[engine] == reference:
            continue
        identical = False
        for index, (ref, other) in enumerate(zip(reference, traces[engine])):
            if ref != other:
                mismatch = (f"run {index}: reference={ref!r} "
                            f"{engine}={other!r}")
                break
        break
    return SuitePerf(suite=suite, programs=len(programs), engines=engines,
                     identical=identical, mismatch=mismatch)


def bench_vm(suites: Sequence[str] = ("sysdig", "xdp"), seed: int = 2024,
             scale: float = 0.2, count: Optional[int] = None,
             tests_per_program: int = 6, repeats: int = 8,
             max_insns: int = 200_000,
             passes: Optional[Sequence[str]] = None,
             pgo: bool = False, superopt: bool = False) -> VmBenchReport:
    """The whole ``repro bench-vm`` measurement."""
    if passes is None:
        passes_cfg: object = "baseline"
    elif not list(passes):
        passes_cfg = "all"
    else:
        passes_cfg = sorted(passes)
    report = VmBenchReport(
        seed=seed, repeats=repeats, tests_per_program=tests_per_program,
        config={
            "passes": passes_cfg,
            "pgo": bool(pgo),
            "superopt": bool(superopt),
        })
    for suite in suites:
        if suite not in VM_SUITES:
            raise ValueError(
                f"unknown VM suite {suite!r} (choose from "
                f"{', '.join(VM_SUITES)})")
        report.suites.append(
            bench_suite(suite, seed=seed, scale=scale, count=count,
                        tests_per_program=tests_per_program,
                        repeats=repeats, max_insns=max_insns,
                        passes=passes, pgo=pgo, superopt=superopt))
    return report
