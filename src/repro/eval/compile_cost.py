"""RQ4 harness: Merlin's compilation cost (paper Fig. 13a/13b).

Collects per-optimizer wall time from :class:`MerlinReport` pass stats,
mapping internal pass names onto the paper's labels: DAO, MoF, Dep
(dependency analysis), CC, PO, SLM.  Dep is the time the bytecode passes
report spending in the tier's one :class:`repro.core.BytecodeAnalysis`
(``PassStats.details["analysis_ns"]``); it is taken out of those
passes' own bars, so no time is counted twice.

Each program is compiled :data:`COMPILE_REPEATS` times and every bar
comes from the fastest compile's report: a single compile lets one
preemption land whole in one bar.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from ..baselines import K2Config, K2Optimizer
from ..core import MerlinPipeline
from ..frontend import compile_source
from ..isa import ProgramType

#: paper label -> pass names whose time it aggregates
LABEL_PASSES: Dict[str, Tuple[str, ...]] = {
    "DAO": ("dao",),
    "MoF": ("macro-fusion",),
    "CC": ("cc",),
    "PO": ("peephole",),
    "SLM": ("slm", "slm-ir"),
    "CP/DCE": ("constprop", "dce", "cp-dce"),
}

#: compiles per program; the fastest one's report gives every bar
COMPILE_REPEATS = 5


@dataclass
class CompileCost:
    name: str
    ni: int
    total_seconds: float
    per_optimizer: Dict[str, float] = field(default_factory=dict)


def measure_compile_cost(
    source: str,
    entry: str,
    name: str = "",
    prog_type: ProgramType = ProgramType.XDP,
    mcpu: str = "v2",
    ctx_size: int = 24,
    pipeline: Optional[MerlinPipeline] = None,
    cache=None,
) -> CompileCost:
    """Compile :data:`COMPILE_REPEATS` times with Merlin and one
    pipeline; the per-pass times of the fastest compile."""
    module = compile_source(source, name or entry)
    pipe = pipeline if pipeline is not None else MerlinPipeline()
    report = min(
        (pipe.compile(module.get(entry), module, prog_type=prog_type,
                      mcpu=mcpu, ctx_size=ctx_size, cache=cache)[1]
         for _ in range(COMPILE_REPEATS)),
        key=lambda r: r.compile_seconds)
    # "Dep": the tier's dependency analysis, built once and refreshed
    # and re-solved by the passes, measured inside each pass and moved
    # out of its bar
    dep_ns: Counter = Counter()
    for stats in report.pass_stats:
        if stats.tier == "bytecode":
            dep_ns[stats.name] += stats.details.get("analysis_ns", 0)
    per_optimizer = {
        label: sum(report.time_of(p) - dep_ns[p] * 1e-9 for p in passes)
        for label, passes in LABEL_PASSES.items()
    }
    per_optimizer["Dep"] = sum(dep_ns.values()) * 1e-9
    return CompileCost(
        name=name or entry,
        ni=report.ni_original,
        total_seconds=report.compile_seconds,
        per_optimizer=per_optimizer,
    )


@dataclass
class K2Comparison:
    name: str
    ni: int
    merlin_seconds: float
    k2_seconds: float
    k2_supported: bool

    @property
    def speedup(self) -> float:
        if self.merlin_seconds <= 0:
            return float("inf")
        return self.k2_seconds / self.merlin_seconds


def compare_with_k2(
    source: str,
    entry: str,
    name: str = "",
    k2_config: Optional[K2Config] = None,
    ctx_size: int = 24,
) -> K2Comparison:
    """Fig 13b: Merlin vs K2 optimization wall time on one program."""
    cost = measure_compile_cost(source, entry, name=name, ctx_size=ctx_size)
    module = compile_source(source, name or entry)
    from ..codegen import compile_function

    program = compile_function(module.get(entry), module,
                               prog_type=ProgramType.XDP, ctx_size=ctx_size)
    k2 = K2Optimizer(k2_config).optimize(program)
    return K2Comparison(
        name=name or entry,
        ni=program.ni,
        merlin_seconds=cost.total_seconds,
        k2_seconds=k2.seconds,
        k2_supported=k2.supported,
    )
