"""Hardware performance counter bundles (the simulator's ``perf stat``)."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class PerfCounters:
    """Counters accumulated by the VM plus cache/branch models."""

    instructions: int = 0
    cycles: int = 0
    cache_references: int = 0
    cache_misses: int = 0
    branches: int = 0
    branch_misses: int = 0
    context_switches: int = 0
    helper_calls: int = 0
    atomics: int = 0

    def add(self, other: "PerfCounters") -> None:
        self.instructions += other.instructions
        self.cycles += other.cycles
        self.cache_references += other.cache_references
        self.cache_misses += other.cache_misses
        self.branches += other.branches
        self.branch_misses += other.branch_misses
        self.context_switches += other.context_switches
        self.helper_calls += other.helper_calls
        self.atomics += other.atomics

    @property
    def cache_miss_rate(self) -> float:
        if not self.cache_references:
            return 0.0
        return self.cache_misses / self.cache_references

    @property
    def branch_miss_rate(self) -> float:
        if not self.branches:
            return 0.0
        return self.branch_misses / self.branches

    @property
    def ipc(self) -> float:
        if not self.cycles:
            return 0.0
        return self.instructions / self.cycles

    # positional construction: these two run on every Machine.run call
    def snapshot(self) -> "PerfCounters":
        return PerfCounters(
            self.instructions,
            self.cycles,
            self.cache_references,
            self.cache_misses,
            self.branches,
            self.branch_misses,
            self.context_switches,
            self.helper_calls,
            self.atomics,
        )

    def delta(self, since: "PerfCounters") -> "PerfCounters":
        return PerfCounters(
            self.instructions - since.instructions,
            self.cycles - since.cycles,
            self.cache_references - since.cache_references,
            self.cache_misses - since.cache_misses,
            self.branches - since.branches,
            self.branch_misses - since.branch_misses,
            self.context_switches - since.context_switches,
            self.helper_calls - since.helper_calls,
            self.atomics - since.atomics,
        )
