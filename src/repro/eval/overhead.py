"""RQ3 harness: runtime overhead of security systems (paper Table 4,
Fig. 12, Fig. 15).

A :class:`SecuritySystem` is a set of compiled tracepoint programs
attached to hooks.  Running an lmbench/postmark workload fires the
attached programs per event; the added eBPF execution time on top of
the vanilla latency gives the "w/o Merlin" and "w/ Merlin" columns, and
Equation 1 of the paper gives the overhead reduction:

    reduction = 1 - (t_w/ / t_v - 1) / (t_w/o / t_v - 1)
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..hw import PerfCounters
from ..isa import BpfProgram
from ..vm import Machine, TaskContext
from ..workloads.suites import SuiteProgram, TRACE_CTX_SIZE, compile_suite_program
from ..workloads.syscalls import (
    LMBENCH_TESTS,
    MacroWorkload,
    MicroTest,
    POSTMARK,
    hook_matches,
    random_ctx,
)
from .network import CORE_FREQ_HZ


@dataclass
class HookCost:
    """Average per-event cost of all programs attached to one hook."""

    cycles: float
    counters: PerfCounters  # per single event, averaged


class SecuritySystem:
    """Compiled suite attached to tracepoints, with measured event costs."""

    def __init__(self, name: str, programs: Sequence[Tuple[str, BpfProgram]],
                 seed: int = 5, samples: int = 12):
        self.name = name
        self.attached = list(programs)  # (hook, program)
        self.seed = seed
        self.samples = samples
        self._machines = [
            (hook, Machine(program, seed=seed, task=TaskContext()))
            for hook, program in self.attached
        ]
        self._event_cost: Dict[str, HookCost] = {}

    @classmethod
    def from_suite(cls, name: str, suite_programs: Sequence[SuiteProgram],
                   optimize: bool, seed: int = 5,
                   mcpu: Optional[str] = None) -> "SecuritySystem":
        """Build a system from a generated suite."""
        compiled = [
            (p.hook, compile_suite_program(p, optimize=optimize, mcpu=mcpu))
            for p in suite_programs
        ]
        return cls(name, compiled, seed=seed)

    # ------------------------------------------------------------------
    def event_cost(self, event: str) -> HookCost:
        """Cycles + counters of every attached program firing for *event*."""
        if event in self._event_cost:
            return self._event_cost[event]
        rng = random.Random(self.seed * 1000003 + len(self._event_cost))
        total_cycles = 0.0
        totals = PerfCounters()
        for hook, machine in self._machines:
            if not hook_matches(hook, event):
                continue
            cycles = 0.0
            for _ in range(self.samples):
                ctx = random_ctx(rng, TRACE_CTX_SIZE)
                before = machine.counters.snapshot()
                machine.run(ctx=ctx)
                delta = machine.counters.delta(before)
                cycles += delta.cycles
                totals.add(delta)
            total_cycles += cycles / self.samples
        per_event = PerfCounters(
            instructions=totals.instructions // max(self.samples, 1),
            cycles=totals.cycles // max(self.samples, 1),
            cache_references=totals.cache_references // max(self.samples, 1),
            cache_misses=totals.cache_misses // max(self.samples, 1),
            branches=totals.branches // max(self.samples, 1),
            branch_misses=totals.branch_misses // max(self.samples, 1),
        )
        cost = HookCost(cycles=total_cycles, counters=per_event)
        self._event_cost[event] = cost
        return cost

    def added_us(self, events: Sequence[Tuple[str, int]]) -> float:
        """Microseconds of eBPF execution added by *events*."""
        cycles = sum(self.event_cost(event).cycles * count
                     for event, count in events)
        return cycles / CORE_FREQ_HZ * 1e6

    def event_counters(self, events: Sequence[Tuple[str, int]]) -> PerfCounters:
        total = PerfCounters()
        for event, count in events:
            per = self.event_cost(event).counters
            total.instructions += per.instructions * count
            total.cycles += per.cycles * count
            total.cache_references += per.cache_references * count
            total.cache_misses += per.cache_misses * count
            total.branches += per.branches * count
            total.branch_misses += per.branch_misses * count
        return total


def overhead_reduction(vanilla: float, with_original: float,
                       with_merlin: float) -> float:
    """Paper Equation 1."""
    base_overhead = with_original / vanilla - 1.0
    merlin_overhead = with_merlin / vanilla - 1.0
    if base_overhead <= 0:
        return 0.0
    return 1.0 - merlin_overhead / base_overhead


@dataclass
class MicroResult:
    test: str
    vanilla_us: float
    with_original_us: float
    with_merlin_us: float

    @property
    def reduction(self) -> float:
        return overhead_reduction(self.vanilla_us, self.with_original_us,
                                  self.with_merlin_us)


def run_lmbench(original: SecuritySystem, merlin: SecuritySystem,
                tests: Sequence[MicroTest] = LMBENCH_TESTS
                ) -> List[MicroResult]:
    """Table 4's micro-benchmark block for one security system."""
    results = []
    for test in tests:
        added_orig = original.added_us(test.events)
        added_merlin = merlin.added_us(test.events)
        results.append(MicroResult(
            test=test.name,
            vanilla_us=test.vanilla_us,
            with_original_us=test.vanilla_us + added_orig,
            with_merlin_us=test.vanilla_us + added_merlin,
        ))
    return results


def run_postmark(original: SecuritySystem, merlin: SecuritySystem,
                 workload: MacroWorkload = POSTMARK) -> MicroResult:
    """Table 4's macro row."""
    added_orig = original.added_us(workload.events) / 1e6  # seconds
    added_merlin = merlin.added_us(workload.events) / 1e6
    return MicroResult(
        test=workload.name,
        vanilla_us=workload.vanilla_seconds,
        with_original_us=workload.vanilla_seconds + added_orig,
        with_merlin_us=workload.vanilla_seconds + added_merlin,
    )


def average_reduction(results: Sequence[MicroResult]) -> float:
    reducible = [r.reduction for r in results
                 if r.with_original_us > r.vanilla_us]
    return sum(reducible) / len(reducible) if reducible else 0.0
