"""Parallel batch compilation: many programs, many processes, one cache.

Every :class:`CompileJob` goes through one per-job function,
:func:`compile_job`: source -> :meth:`MerlinPipeline.compile` ->
``(program, report)``.  :func:`compile_many` calls it in-process for
``jobs=1``, which also lets a purely in-memory cache participate;
otherwise a ``ProcessPoolExecutor`` runs :func:`compile_job_in_worker`,
each worker on its own handle to the cache's *directory* (the memory
layer is per-process), and the workers' counters are merged into the
caller's :class:`CacheStats` so a batch run reports one coherent hit
rate.  Every job's :class:`MerlinReport` carries its per-pass
:class:`PassStats`, so a batched compile is report-for-report identical
to a sequential loop.

The ``repro serve`` daemon calls the two per-job functions directly,
one miss at a time, on its own dispatch thread or worker pool.
"""

from __future__ import annotations

import time
import traceback
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from typing import List, Optional, Sequence, Tuple, Union, TYPE_CHECKING

from ..isa import BpfProgram, ProgramType
from .pipeline import MerlinPipeline, MerlinReport

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..cache import CacheStats, CompilationCache
    from .bytecode_passes.layout import PgoSpec
    from .superopt import SuperoptSpec


@dataclass(frozen=True)
class CompileJob:
    """One source program to push through the pipeline.

    ``entry=""`` selects the module's first function, mirroring the
    CLI's default.  ``pgo`` is an optional
    :class:`~repro.core.bytecode_passes.layout.PgoSpec` enabling the
    profile-guided layout tier for this job, ``superopt`` an optional
    :class:`~repro.core.superopt.SuperoptSpec` enabling the
    superoptimizer tier (both frozen dataclasses, so the job stays
    hashable and picklable for worker processes).
    """

    name: str
    source: str
    entry: str = ""
    prog_type: ProgramType = ProgramType.XDP
    mcpu: str = "v2"
    ctx_size: int = 64
    pgo: Optional["PgoSpec"] = None
    superopt: Optional["SuperoptSpec"] = None


@dataclass
class BatchReport:
    """The outcome of one ``compile_many`` run."""

    programs: List[BpfProgram] = field(default_factory=list)
    reports: List[MerlinReport] = field(default_factory=list)
    jobs: int = 1
    wall_seconds: float = 0.0
    cache_stats: Optional["CacheStats"] = None

    def __iter__(self):
        return iter(zip(self.programs, self.reports))

    def __len__(self) -> int:
        return len(self.programs)

    @property
    def ni_original(self) -> int:
        return sum(r.ni_original for r in self.reports)

    @property
    def ni_optimized(self) -> int:
        return sum(r.ni_optimized for r in self.reports)

    @property
    def ni_reduction(self) -> float:
        if not self.ni_original:
            return 0.0
        return 1.0 - self.ni_optimized / self.ni_original


JobResult = Tuple[BpfProgram, MerlinReport]


def compile_job(pipeline: MerlinPipeline, job: CompileJob,
                cache: Optional["CompilationCache"] = None,
                validate: Union[bool, str] = False) -> JobResult:
    """Compile one job in this process; a failure raises."""
    from ..frontend import compile_source

    module = compile_source(job.source, job.name)
    entry = job.entry or next(iter(module.functions))
    return pipeline.compile(
        module.get(entry), module, prog_type=job.prog_type,
        mcpu=job.mcpu, ctx_size=job.ctx_size, cache=cache,
        validate=validate, pgo=job.pgo, superopt=job.superopt)


def failure_cause(exc: BaseException) -> str:
    """A failed job's one-line cause: the exception's qualified class
    name and message."""
    return "".join(traceback.format_exception_only(type(exc), exc)).strip()


def compile_job_in_worker(pipeline: MerlinPipeline, job: CompileJob,
                          cache_dir: Optional[str],
                          validate: Union[bool, str] = False
                          ) -> Tuple[Optional[JobResult], Optional[str],
                                     Optional["CacheStats"]]:
    """Pool entry point: :func:`compile_job` on this process's own
    handle to the shared directory.  Returns the result, or ``None``
    and the failure's :func:`failure_cause` (an exception object need
    not survive the trip back to the calling process, and one that
    does not breaks the pool), plus that handle's counters."""
    cache = None
    if cache_dir is not None:
        from ..cache import CompilationCache

        cache = CompilationCache(directory=cache_dir)
    try:
        result, cause = compile_job(pipeline, job, cache, validate), None
    except Exception as exc:
        result, cause = None, failure_cause(exc)
    return result, cause, None if cache is None else cache.stats


def compile_many(pipeline: MerlinPipeline, batch: Sequence[CompileJob],
                 jobs: int = 1, cache: Optional["CompilationCache"] = None,
                 validate: Union[bool, str] = False) -> BatchReport:
    """Compile every job, optionally in parallel and/or cached.

    Results come back in input order regardless of worker scheduling.
    With ``jobs > 1`` only a *directory-backed* cache is shared between
    workers (each worker process opens its own handle on the same
    store); a memory-only cache is used as-is when ``jobs == 1`` and
    ignored by the worker processes otherwise.  ``cache_stats`` holds
    the counters of this run alone.  ``validate`` is forwarded to
    :meth:`MerlinPipeline.compile` per job.  A failed job raises: its
    own exception in-process, a ``RuntimeError`` naming the job and
    its cause from a worker.
    """
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    started = time.perf_counter()
    report = BatchReport(jobs=jobs)
    if jobs == 1:
        before = None if cache is None else replace(cache.stats)
        results = [compile_job(pipeline, job, cache, validate)
                   for job in batch]
        if cache is not None:
            report.cache_stats = cache.stats.since(before)
    else:
        cache_dir = None if cache is None else cache.directory
        n = len(batch)
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            outcomes = list(pool.map(compile_job_in_worker, [pipeline] * n,
                                     batch, [cache_dir] * n,
                                     [validate] * n))
        for job, (_, cause, _) in zip(batch, outcomes):
            if cause is not None:
                raise RuntimeError(f"job {job.name!r} failed: {cause}")
        results = [result for result, _, _ in outcomes]
        if cache_dir is not None:
            from ..cache import CacheStats

            report.cache_stats = CacheStats()
            for _, _, stats in outcomes:
                report.cache_stats.merge(stats)
            cache.stats.merge(report.cache_stats)
    for program, rep in results:
        report.programs.append(program)
        report.reports.append(rep)
    report.wall_seconds = time.perf_counter() - started
    return report
