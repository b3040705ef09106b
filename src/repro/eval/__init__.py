"""Evaluation harnesses for every table and figure of the paper."""

from .compactness import (
    CompactnessResult,
    STAGE_ORDER,
    measure_compactness,
    summarize,
)
from .compile_cost import (
    CompileCost,
    K2Comparison,
    LABEL_PASSES,
    compare_with_k2,
    measure_compile_cost,
)
from .network import (
    BASE_LATENCY_US,
    CORE_FREQ_HZ,
    DRIVER_CYCLES,
    LOAD_LEVELS,
    NetworkEval,
    PacketPerf,
    QUEUE_DEPTH,
    seed_maps,
)
from .overhead import (
    HookCost,
    MicroResult,
    SecuritySystem,
    average_reduction,
    overhead_reduction,
    run_lmbench,
    run_postmark,
)
from .report import pct, render_series, render_table
from .serviceperf import (
    PhaseResult,
    ServiceBenchReport,
    bench_service,
)
from .tierperf import (
    ProgramRow,
    TierBenchReport,
    TierSuitePerf,
    VariantCounters,
    bench_tier,
    bench_tier_suite,
)
from .verifier_stats import (
    VerifierComparison,
    compare_verifier_cost,
    state_change_across_kernels,
)

__all__ = [
    "CompactnessResult",
    "STAGE_ORDER",
    "measure_compactness",
    "summarize",
    "CompileCost",
    "K2Comparison",
    "LABEL_PASSES",
    "compare_with_k2",
    "measure_compile_cost",
    "BASE_LATENCY_US",
    "CORE_FREQ_HZ",
    "DRIVER_CYCLES",
    "LOAD_LEVELS",
    "NetworkEval",
    "PacketPerf",
    "QUEUE_DEPTH",
    "seed_maps",
    "HookCost",
    "MicroResult",
    "SecuritySystem",
    "average_reduction",
    "overhead_reduction",
    "run_lmbench",
    "run_postmark",
    "pct",
    "render_series",
    "render_table",
    "PhaseResult",
    "ServiceBenchReport",
    "bench_service",
    "ProgramRow",
    "TierBenchReport",
    "TierSuitePerf",
    "VariantCounters",
    "bench_tier",
    "bench_tier_suite",
    "VerifierComparison",
    "compare_verifier_cost",
    "state_change_across_kernels",
]
