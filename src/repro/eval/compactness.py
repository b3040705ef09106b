"""RQ1 harness: code compactness (paper Fig. 10a-10e).

Measures per-program NI reduction and attributes it to individual
optimizers by applying them cumulatively in the paper's reporting
order (DAO, MoF, CP/DCE, CC, PO, SLM).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Sequence, Tuple

from ..codegen import compile_function
from ..core import MerlinPipeline
from ..frontend import compile_source
from ..isa import ProgramType
from ..verifier import DEFAULT_KERNEL, KernelConfig, verify

#: cumulative attribution order (most to least impactful in the paper)
STAGE_ORDER: Tuple[str, ...] = ("dao", "mof", "cpdce", "cc", "po", "slm")


@dataclass
class CompactnessResult:
    """NI trajectory of one program through cumulative optimizer sets."""

    name: str
    ni_baseline: int
    ni_after_stage: Dict[str, int] = field(default_factory=dict)
    verified: bool = True

    @property
    def ni_final(self) -> int:
        if not self.ni_after_stage:
            return self.ni_baseline
        return self.ni_after_stage[STAGE_ORDER[-1]]

    @property
    def total_reduction(self) -> float:
        if not self.ni_baseline:
            return 0.0
        return 1.0 - self.ni_final / self.ni_baseline

    def contribution(self, stage: str) -> float:
        """Fraction of baseline NI removed by adding *stage*."""
        index = STAGE_ORDER.index(stage)
        before = (
            self.ni_baseline if index == 0
            else self.ni_after_stage[STAGE_ORDER[index - 1]]
        )
        after = self.ni_after_stage[stage]
        return (before - after) / self.ni_baseline if self.ni_baseline else 0.0


def measure_compactness(
    source: str,
    entry: str,
    name: str = "",
    prog_type: ProgramType = ProgramType.XDP,
    mcpu: str = "v2",
    ctx_size: int = 24,
    kernel: KernelConfig = DEFAULT_KERNEL,
    check_verifier: bool = True,
    cache=None,
) -> CompactnessResult:
    """Compile *source* repeatedly with growing optimizer sets.

    ``compile`` is pure, so one frontend run serves all seven stage
    compilations; *cache* (a :class:`repro.cache.CompilationCache`)
    additionally content-addresses each stage's result, which pays off
    when a benchmark suite re-measures the same populations.
    """
    module = compile_source(source, name or entry)
    func = module.get(entry)
    baseline = compile_function(func, module,
                                prog_type=prog_type, mcpu=mcpu,
                                ctx_size=ctx_size)
    result = CompactnessResult(name=name or entry, ni_baseline=baseline.ni)
    if check_verifier:
        result.verified = verify(baseline, kernel).ok
    for index in range(len(STAGE_ORDER)):
        enabled = set(STAGE_ORDER[: index + 1])
        pipeline = MerlinPipeline(kernel=kernel, enabled=enabled)
        program, _ = pipeline.compile(func, module,
                                      prog_type=prog_type, mcpu=mcpu,
                                      ctx_size=ctx_size, cache=cache)
        stage = STAGE_ORDER[index]
        result.ni_after_stage[stage] = program.ni
        if check_verifier and index == len(STAGE_ORDER) - 1:
            result.verified = result.verified and verify(program, kernel).ok
    return result


def summarize(results: Sequence[CompactnessResult]) -> Dict[str, float]:
    """Suite-level aggregates: average/max reduction and per-optimizer
    average contribution (the numbers quoted in paper §5.2)."""
    if not results:
        return {}
    summary: Dict[str, float] = {
        "avg_reduction": sum(r.total_reduction for r in results) / len(results),
        "max_reduction": max(r.total_reduction for r in results),
        "all_verified": float(all(r.verified for r in results)),
    }
    for stage in STAGE_ORDER:
        summary[f"contrib_{stage}"] = sum(
            r.contribution(stage) for r in results
        ) / len(results)
    return summary
