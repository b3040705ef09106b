"""Tests for the parallel batch compiler (repro.core.batch).

The contract: a batched compile is report-for-report identical to a
sequential loop, regardless of worker count or cache temperature.
"""

from dataclasses import fields

import pytest

from repro.cache import CacheStats, CompilationCache
from repro.core import BatchReport, CompileJob, MerlinPipeline, compile_many
from repro.isa import ProgramType
from repro.verifier import KERNELS

SOURCES = [
    ("mul", """
u64 mul(u8* ctx) {
    u64 a = *(u64*)(ctx + 0);
    u32 b = (u32)a * 3;
    u64 c = (u64)b;
    return c + 1;
}
"""),
    ("mask", """
u64 mask(u8* ctx) {
    u64 a = *(u64*)(ctx + 0);
    u64 b = *(u64*)(ctx + 8);
    return (a & 0xffff) + (b >> 4);
}
"""),
    ("branchy", """
u64 branchy(u8* ctx) {
    u64 a = *(u64*)(ctx + 0);
    u64 acc = 0;
    if (a > 10) { acc = acc + a; }
    if (a > 100) { acc = acc * 2; }
    return acc;
}
"""),
    ("loads", """
u64 loads(u8* ctx) {
    u32 a = *(u32*)(ctx + 0);
    u32 b = *(u32*)(ctx + 4);
    u16 c = *(u16*)(ctx + 8);
    return (u64)a + (u64)b + (u64)c;
}
"""),
]

BATCH = [
    CompileJob(name=name, source=source, entry=name,
               prog_type=ProgramType.TRACEPOINT, mcpu="v2", ctx_size=64)
    for name, source in SOURCES
]


def report_signature(report: BatchReport):
    """Everything that must not depend on jobs/cache: bytecode, NI,
    per-pass rewrite counts."""
    return [
        (prog.insns, prog.mcpu, rep.ni_original, rep.ni_optimized,
         [(s.name, s.tier, s.rewrites) for s in rep.pass_stats])
        for prog, rep in report
    ]


class TestCompileMany:
    def test_sequential_matches_loop(self):
        pipeline = MerlinPipeline()
        batch = compile_many(pipeline, BATCH)
        assert len(batch) == len(BATCH)
        from repro.frontend import compile_source

        for job, (program, rep) in zip(BATCH, batch):
            module = compile_source(job.source, job.name)
            solo, solo_rep = MerlinPipeline().compile(
                module.get(job.entry), module, prog_type=job.prog_type,
                mcpu=job.mcpu, ctx_size=job.ctx_size)
            assert program.insns == solo.insns
            assert rep.ni_optimized == solo_rep.ni_optimized

    @pytest.mark.parametrize("jobs", [2, 4])
    def test_parallel_identical_to_sequential(self, jobs):
        pipeline = MerlinPipeline()
        seq = compile_many(pipeline, BATCH, jobs=1)
        par = compile_many(pipeline, BATCH, jobs=jobs)
        assert report_signature(par) == report_signature(seq)
        assert par.jobs == jobs

    def test_results_in_input_order(self):
        pipeline = MerlinPipeline()
        batch = compile_many(pipeline, BATCH, jobs=2)
        assert [r.name for r in batch.reports] == [j.name for j in BATCH]

    def test_invalid_jobs_rejected(self):
        with pytest.raises(ValueError):
            compile_many(MerlinPipeline(), BATCH, jobs=0)

    def test_batch_report_totals(self):
        batch = compile_many(MerlinPipeline(), BATCH)
        assert batch.ni_original == sum(r.ni_original for r in batch.reports)
        assert batch.ni_optimized == sum(r.ni_optimized
                                         for r in batch.reports)
        assert 0.0 <= batch.ni_reduction <= 1.0
        assert batch.wall_seconds > 0
        assert batch.cache_stats is None  # no cache supplied

    def test_empty_batch(self):
        batch = compile_many(MerlinPipeline(), [])
        assert len(batch) == 0
        assert batch.ni_reduction == 0.0

    def test_a_failed_job_raises_its_cause(self):
        """In-process the job's own exception; from a worker a
        ``RuntimeError`` with its cause.  The frontend's
        ``CompileError(line, message)`` does not unpickle, so a worker
        that raised it would leave the pool broken instead."""
        from repro.frontend.codegen import CompileError

        bad = [CompileJob(name="bad", entry="bad",
                          source="u64 bad(u8* ctx) { return nope; }")]
        with pytest.raises(CompileError):
            compile_many(MerlinPipeline(), bad)
        with pytest.raises(RuntimeError, match="undeclared variable"):
            compile_many(MerlinPipeline(), BATCH[:1] + bad, jobs=2)


class TestCachedBatches:
    def test_warm_memory_cache_sequential(self):
        cache = CompilationCache()
        pipeline = MerlinPipeline()
        cold = compile_many(pipeline, BATCH, cache=cache)
        warm = compile_many(pipeline, BATCH, cache=cache)
        assert cold.cache_stats.misses == len(BATCH)
        assert cold.cache_stats.hits == 0
        assert warm.cache_stats.hits == len(BATCH)
        assert warm.cache_stats.misses == 0
        assert report_signature(warm) == report_signature(cold)
        assert all(rep.cached for rep in warm.reports)

    def test_warm_disk_cache_parallel(self, tmp_path):
        cache = CompilationCache(directory=str(tmp_path))
        pipeline = MerlinPipeline()
        cold = compile_many(pipeline, BATCH, jobs=2, cache=cache)
        assert cold.cache_stats.misses == len(BATCH)
        warm = compile_many(pipeline, BATCH, jobs=2, cache=cache)
        assert warm.cache_stats.hits == len(BATCH)
        assert warm.cache_stats.disk_hits == len(BATCH)
        assert report_signature(warm) == report_signature(cold)

    def test_sequential_cold_parallel_warm(self, tmp_path):
        # entries written by an in-process run are visible to workers
        cache = CompilationCache(directory=str(tmp_path))
        pipeline = MerlinPipeline()
        cold = compile_many(pipeline, BATCH, jobs=1, cache=cache)
        warm = compile_many(pipeline, BATCH, jobs=3, cache=cache)
        assert warm.cache_stats.hits == len(BATCH)
        assert report_signature(warm) == report_signature(cold)

    def test_per_run_stats_are_deltas(self):
        cache = CompilationCache()
        pipeline = MerlinPipeline()
        compile_many(pipeline, BATCH, cache=cache)
        warm = compile_many(pipeline, BATCH, cache=cache)
        # the warm row reports only its own lookups, not the cumulative
        # campaign counters
        assert warm.cache_stats.lookups == len(BATCH)
        assert cache.stats.lookups == 2 * len(BATCH)

    def test_pipeline_config_invalidates(self, tmp_path):
        cache = CompilationCache(directory=str(tmp_path))
        compile_many(MerlinPipeline(kernel=KERNELS["6.5"]), BATCH, cache=cache)
        other = compile_many(MerlinPipeline(kernel=KERNELS["4.15"]), BATCH,
                             cache=cache)
        assert other.cache_stats.hits == 0
        assert other.cache_stats.misses == len(BATCH)

    def test_warm_counters_equal_across_paths(self, tmp_path):
        # every counter of one warm run over a directory, as the
        # in-process path's delta and as the pool's merged worker
        # counters: the two paths must describe it identically
        pipeline = MerlinPipeline()
        cold = compile_many(pipeline, BATCH,
                            cache=CompilationCache(directory=str(tmp_path)))
        assert cold.cache_stats.misses == len(BATCH)
        assert cold.cache_stats.hits == 0
        assert cold.wall_seconds > 0
        expected = {counter.name: 0 for counter in fields(CacheStats)}
        expected.update(hits=len(BATCH), disk_hits=len(BATCH), hit_rate=1.0)
        for jobs in (1, 2):
            warm = compile_many(
                pipeline, BATCH, jobs=jobs,
                cache=CompilationCache(directory=str(tmp_path)))
            assert warm.cache_stats.to_dict() == expected, jobs
            assert warm.wall_seconds > 0


class TestSuiteBatch:
    def test_compile_suite_batch_matches_single(self):
        from repro.workloads.suites import (
            compile_suite_program,
            generate_suite,
            suite_jobs,
        )

        programs = generate_suite("sysdig", seed=7, scale=0.05, count=2)
        batch = compile_many(MerlinPipeline(), suite_jobs(programs), jobs=2)
        assert len(batch) == 2
        for suite_prog, program in zip(programs, batch.programs):
            solo = compile_suite_program(suite_prog, optimize=True)
            assert program.insns == solo.insns

    def test_suite_jobs_shape(self):
        from repro.workloads.suites import TRACE_CTX_SIZE, generate_suite, suite_jobs

        programs = generate_suite("sysdig", seed=7, scale=0.05, count=2)
        jobs = suite_jobs(programs, mcpu="v2")
        assert [j.entry for j in jobs] == [p.entry for p in programs]
        assert all(j.prog_type is ProgramType.TRACEPOINT for j in jobs)
        assert all(j.ctx_size == TRACE_CTX_SIZE for j in jobs)
        assert all(j.mcpu == "v2" for j in jobs)


class TestFuzzParallel:
    def test_campaign_jobs_invariant(self):
        from repro.fuzz import run_campaign

        seq = run_campaign(seed=11, budget=10, jobs=1)
        par = run_campaign(seed=11, budget=10, jobs=2)
        assert par.programs_run == seq.programs_run
        assert par.programs_skipped == seq.programs_skipped
        assert par.roundtrip_failures == seq.roundtrip_failures
        assert len(par.findings) == len(seq.findings)

    def test_campaign_invalid_jobs(self):
        from repro.fuzz import run_campaign

        with pytest.raises(ValueError):
            run_campaign(budget=1, jobs=0)
