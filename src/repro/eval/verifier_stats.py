"""Verifier-cost harness: NPI / verification-time reductions (paper
Fig. 10f) and cross-kernel state instability (paper Table 5).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence, Tuple

from ..isa import BpfProgram
from ..verifier import DEFAULT_KERNEL, KERNELS, KernelConfig, verify


@dataclass
class VerifierComparison:
    """Verifier metrics of a program before/after Merlin."""

    name: str
    npi_before: int
    npi_after: int
    time_before_ns: float
    time_after_ns: float
    peak_before: int
    peak_after: int
    total_before: int
    total_after: int
    both_ok: bool

    @property
    def npi_reduction(self) -> float:
        return 1.0 - self.npi_after / self.npi_before if self.npi_before else 0.0

    @property
    def time_reduction(self) -> float:
        if not self.time_before_ns:
            return 0.0
        return 1.0 - self.time_after_ns / self.time_before_ns

    @property
    def peak_state_change(self) -> float:
        if not self.peak_before:
            return 0.0
        return self.peak_after / self.peak_before - 1.0

    @property
    def total_state_change(self) -> float:
        if not self.total_before:
            return 0.0
        return self.total_after / self.total_before - 1.0


def compare_verifier_cost(
    baseline: BpfProgram,
    optimized: BpfProgram,
    kernel: KernelConfig = DEFAULT_KERNEL,
    name: str = "",
) -> VerifierComparison:
    before = verify(baseline, kernel)
    after = verify(optimized, kernel)
    return VerifierComparison(
        name=name or baseline.name,
        npi_before=before.npi,
        npi_after=after.npi,
        time_before_ns=before.verification_time_ns,
        time_after_ns=after.verification_time_ns,
        peak_before=before.peak_states,
        peak_after=after.peak_states,
        total_before=before.total_states,
        total_after=after.total_states,
        both_ok=before.ok and after.ok,
    )


def state_change_across_kernels(
    baseline: BpfProgram,
    optimized: BpfProgram,
    kernel_versions: Sequence[str] = ("5.19", "6.5"),
) -> Dict[str, Tuple[float, float]]:
    """Table 5: (peak, total) state change per kernel version.

    The change can flip sign across versions because each version's
    pruning cadence interacts differently with the reshaped CFG — the
    paper's argument for treating state counts as unstable metrics.
    """
    changes: Dict[str, Tuple[float, float]] = {}
    for version in kernel_versions:
        comparison = compare_verifier_cost(
            baseline, optimized, KERNELS[version]
        )
        changes[version] = (
            comparison.peak_state_change,
            comparison.total_state_change,
        )
    return changes
