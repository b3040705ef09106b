"""Pass-ablation bisection: which pass broke this program?

Given a divergence under some enabled-pass configuration, replay the
config's pass sequence one prefix at a time — the position where the
divergence first appears names the guilty pass *in its ordering
context*.  A second ablation runs the guilty pass alone to tell a
standalone miscompile apart from an ordering bug (the pass only
misbehaves on the output of the passes before it).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ..verifier import DEFAULT_KERNEL, KernelConfig
from .differential import (
    BaselineRecord,
    Divergence,
    check_config,
    observe_baseline,
    pass_sequence,
)


@dataclass
class BisectResult:
    """Outcome of a pass-ablation bisection."""

    guilty_pass: Optional[str]  # pass name, e.g. "slm"
    guilty_tier: Optional[str]  # "ir" or "bytecode"
    position: Optional[int]  # index in the config's pass sequence
    sequence: List[str]  # "tier:name" for the whole config pipeline
    standalone: bool  # guilty pass diverges with no predecessors
    kind: Optional[str] = None  # divergence kind at the guilty prefix

    def describe(self) -> str:
        if self.guilty_pass is None:
            return "bisection inconclusive (divergence did not reproduce)"
        context = "standalone" if self.standalone else \
            "ordering-dependent (needs the passes before it)"
        return (f"pass {self.guilty_pass!r} ({self.guilty_tier} tier, "
                f"position {self.position} of {len(self.sequence)}) — "
                f"{context}")


def bisect_divergence(divergence: Divergence,
                      kernel: KernelConfig = DEFAULT_KERNEL,
                      baseline: Optional[BaselineRecord] = None,
                      tests_per_program: int = 4,
                      oracle_seed: int = 7) -> BisectResult:
    """Narrow *divergence* to the single pass responsible."""
    case = divergence.case
    enabled = frozenset(divergence.enabled)
    if baseline is None:
        baseline = observe_baseline(case, kernel, tests_per_program,
                                    oracle_seed)
    sequence = pass_sequence(case, enabled, kernel)
    names = [f"{tier}:{p.name}" for tier, p in sequence]

    # prefix scan: with zero passes the variant IS the baseline, with the
    # full sequence it reproduces the original divergence, so the first
    # diverging prefix exists and its last pass is the culprit.
    guilty: Optional[int] = None
    kind: Optional[str] = None
    for length in range(1, len(sequence) + 1):
        hit = check_config(case, enabled, baseline, kernel,
                          keep=range(length))
        if hit is not None:
            guilty = length - 1
            kind = hit.kind
            break
    if guilty is None:
        return BisectResult(None, None, None, names, False)

    tier, guilty_pass = sequence[guilty]
    alone = check_config(case, enabled, baseline, kernel, keep=[guilty])
    return BisectResult(guilty_pass.name, tier, guilty, names,
                        standalone=alone is not None, kind=kind)
