"""Per-kernel-version verifier configurations (4.15 through 6.5).

The fields encode the behavioural differences the paper leans on:
instruction/complexity limits (1M processed insns since 5.2), v3
instruction support, the quality of ALU32 bounds tracking (precise only
since 5.13), and the state-pruning cadence whose churn across versions
makes peak/total state counts unstable (paper Table 5).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict


@dataclass(frozen=True)
class KernelConfig:
    version: str
    max_insns: int  # program size limit (NI)
    max_processed: int  # complexity limit (NPI)
    supports_v3: bool  # ALU32/JMP32 instructions accepted
    alu32_precise: bool  # bounds tracked through ALU32 ops
    state_store_interval: int  # store a pruning state every N insns
    prune_at_branch_targets: bool
    ns_per_insn: float  # verification-time model: cost per processed insn
    ns_per_state: float  # and per stored state


KERNELS: Dict[str, KernelConfig] = {
    "4.15": KernelConfig(
        version="4.15",
        max_insns=4096,
        max_processed=131072,
        supports_v3=False,
        alu32_precise=False,
        state_store_interval=8,
        prune_at_branch_targets=True,
        ns_per_insn=95.0,
        ns_per_state=1400.0,
    ),
    "5.2": KernelConfig(
        version="5.2",
        max_insns=1_000_000,
        max_processed=1_000_000,
        supports_v3=True,
        alu32_precise=False,
        state_store_interval=8,
        prune_at_branch_targets=True,
        ns_per_insn=105.0,
        ns_per_state=1200.0,
    ),
    "5.15": KernelConfig(
        version="5.15",
        max_insns=1_000_000,
        max_processed=1_000_000,
        supports_v3=True,
        alu32_precise=True,
        state_store_interval=16,
        prune_at_branch_targets=True,
        ns_per_insn=110.0,
        ns_per_state=1100.0,
    ),
    "5.19": KernelConfig(
        version="5.19",
        max_insns=1_000_000,
        max_processed=1_000_000,
        supports_v3=True,
        alu32_precise=True,
        state_store_interval=16,
        prune_at_branch_targets=True,
        ns_per_insn=112.0,
        ns_per_state=1050.0,
    ),
    "6.5": KernelConfig(
        version="6.5",
        max_insns=1_000_000,
        max_processed=1_000_000,
        supports_v3=True,
        alu32_precise=True,
        state_store_interval=32,
        prune_at_branch_targets=True,
        ns_per_insn=118.0,
        ns_per_state=950.0,
    ),
}

DEFAULT_KERNEL = KERNELS["6.5"]
