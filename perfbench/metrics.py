"""The metric catalogue: every name the benchmark reports, with its unit.

``BENCHMARK.json`` at the repository root lists the same names; the
benchmark's own test checks the two agree.  What each metric means on
each workload, and which end-to-end metric each per-layer metric should
move, is in ``perfbench/README.md``.
"""

from __future__ import annotations

#: (name, unit, better, bound): reported by every untraced run.  The
#: warm p90 is printed and recorded too but not listed here: on a shared
#: 2-core host its run-to-run spread (0.13-0.22 of the median) is too
#: close to the largest bound for it to gate a change
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MiB", "lower", 0.15),
    ("cold_ms_p50", "ms", "lower", 0.25),
    ("warm_ms_p50", "ms", "lower", 0.25),
    ("ni_reduction_pct", "%", "higher", 0.2),
    ("verifier_npi", "insns", "lower", 0.2),
    ("cycles_per_run", "cycles", "lower", 0.2),
)
TAIL = ("warm_ms_p90", "ms")

_IR_PASSES = ("constprop", "dce", "dao", "macro-fusion", "slm-ir")
_BYTECODE_PASSES = ("cp-dce", "slm", "cc", "peephole")

#: (name, unit, better): reported by every traced run (0 where a layer
#: does no work on that workload)
PER_LAYER = (
    ("frontend.s", "s", "lower"),
    ("frontend.calls", "count", "lower"),
    ("ir.clone.s", "s", "lower"),
    *((f"ir_passes.{p}.{k}", u, b) for p in _IR_PASSES
      for k, u, b in (("s", "s", "lower"), ("rewrites", "count", "higher"))),
    ("codegen.s", "s", "lower"),
    ("codegen.calls", "count", "lower"),
    ("codegen.insns_out", "count", "lower"),
    *((f"bytecode_passes.{p}.{k}", u, b) for p in _BYTECODE_PASSES
      for k, u, b in (("s", "s", "lower"), ("rewrites", "count", "higher"))),
    ("bytecode_passes.analysis.builds", "count", "lower"),
    ("bytecode_passes.analysis.s", "s", "lower"),
    ("isa.uses_defs.calls", "count", "lower"),
    ("superopt.s", "s", "lower"),
    ("superopt.windows", "count", "lower"),
    ("superopt.searches", "count", "lower"),
    ("superopt.memo_hits", "count", "higher"),
    ("superopt.applied", "count", "higher"),
    ("layout.s", "s", "lower"),
    ("layout.profile_runs", "count", "lower"),
    ("layout.rewrites", "count", "higher"),
    ("tv.s", "s", "lower"),
    ("tv.witnesses", "count", "lower"),
    ("tv.certified", "count", "higher"),
    ("verifier.s", "s", "lower"),
    ("verifier.npi", "insns", "lower"),
    ("verifier.total_states", "count", "lower"),
    ("verifier.pruned", "count", "higher"),
    ("cache.get.s", "s", "lower"),
    ("cache.put.s", "s", "lower"),
    ("cache.get.calls", "count", "lower"),
    ("cache.put.calls", "count", "lower"),
    ("cache.memory_hits", "count", "higher"),
    ("cache.disk_hits", "count", "higher"),
    ("cache.misses", "count", "lower"),
    ("cache.bytes_written", "bytes", "lower"),
    ("vm.bind.s", "s", "lower"),
    ("vm.bind.calls", "count", "lower"),
    ("vm.run.s", "s", "lower"),
    ("vm.run.calls", "count", "higher"),
    ("vm.insns", "count", "lower"),
    ("vm.decode_cache.hits", "count", "higher"),
    ("vm.decode_cache.misses", "count", "lower"),
    ("vm.jit_cache.hits", "count", "higher"),
    ("vm.jit_cache.misses", "count", "lower"),
    ("hw.insns_per_run", "insns", "lower"),
    ("hw.cache_misses_per_run", "count", "lower"),
    ("hw.branch_misses_per_run", "count", "lower"),
    ("serve.queue_wait_ms_p50", "ms", "lower"),
    ("serve.queue_wait_ms_p99", "ms", "lower"),
    ("serve.fast_path_hits", "count", "higher"),
    ("serve.compiles", "count", "lower"),
    ("serve.batches", "count", "lower"),
    ("serve.batch_mean_size", "count", "higher"),
    ("serve.busy_s", "s", "lower"),
    ("serve.gen_late_ms_p99", "ms", "lower"),
    ("trace.residual_s", "s", "lower"),
    ("trace.residual_pct", "%", "lower"),
    ("trace.cold_overhead_pct", "%", "lower"),
    ("trace.warm_overhead_pct", "%", "lower"),
)

#: per-layer counts that must repeat exactly for one seed
EXACT_LAYER_COUNTS = (
    *(f"ir_passes.{p}.rewrites" for p in _IR_PASSES),
    *(f"bytecode_passes.{p}.rewrites" for p in _BYTECODE_PASSES),
    "bytecode_passes.analysis.builds",
    "superopt.searches",
    "vm.insns",
)

UNITS = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER + (TAIL,)}
