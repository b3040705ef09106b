"""A 2-bit saturating-counter branch predictor (Smith predictor)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict


@dataclass
class BranchStats:
    branches: int = 0
    mispredictions: int = 0

    @property
    def miss_rate(self) -> float:
        return self.mispredictions / self.branches if self.branches else 0.0


class BranchPredictor:
    """Per-PC 2-bit counters; counter >= 2 predicts taken."""

    def __init__(self, table_bits: int = 12, mispredict_penalty: int = 15):
        self.table_size = 1 << table_bits
        self.mispredict_penalty = mispredict_penalty
        self.counters: Dict[int, int] = {}
        self.stats = BranchStats()

    def reset(self) -> None:
        self.counters.clear()
        self.stats = BranchStats()

    def record(self, pc: int, taken: bool) -> int:
        """Update the predictor; returns the cycle penalty (0 or miss)."""
        slot = pc % self.table_size
        counter = self.counters.get(slot, 1)  # weakly not-taken
        predicted = counter >= 2
        self.stats.branches += 1
        penalty = 0
        if predicted != taken:
            self.stats.mispredictions += 1
            penalty = self.mispredict_penalty
        if taken:
            counter = min(counter + 1, 3)
        else:
            counter = max(counter - 1, 0)
        self.counters[slot] = counter
        return penalty


class ProfilingBranchPredictor(BranchPredictor):
    """A :class:`BranchPredictor` that additionally tallies per-site
    taken / not-taken execution counts, keyed by the slot pc the VM
    reports.

    Prediction behavior (and therefore every counter a measured run
    mirrors) is bit-identical to the base predictor: the interpreter
    calls ``record`` for every conditional jump, and the override only
    tallies before deferring to it.  The tallies are what
    :func:`repro.core.bytecode_passes.layout.collect_profile` turns
    into a weighted CFG.

    A predictor instance carries state across every ``Machine`` that
    shares it; callers profiling *multiple* programs must ``reset()``
    between them or the second program inherits the first one's table
    (and its mirrored ``branch_misses`` counter lies).
    """

    def __init__(self, table_bits: int = 12, mispredict_penalty: int = 15):
        super().__init__(table_bits, mispredict_penalty)
        self.taken_counts: Dict[int, int] = {}
        self.not_taken_counts: Dict[int, int] = {}

    def reset(self) -> None:
        super().reset()
        self.taken_counts.clear()
        self.not_taken_counts.clear()

    def record(self, pc: int, taken: bool) -> int:
        if taken:
            self.taken_counts[pc] = self.taken_counts.get(pc, 0) + 1
        else:
            self.not_taken_counts[pc] = self.not_taken_counts.get(pc, 0) + 1
        return super().record(pc, taken)
