"""Parallel batch compilation: many programs, many processes, one cache.

``compile_many`` runs every :class:`CompileJob` through one per-job
function, source -> :meth:`MerlinPipeline.compile` -> ``(program,
report, error)``.  ``jobs=1`` calls it in-process, which also lets a
purely in-memory cache participate; otherwise a ``ProcessPoolExecutor``
runs it, each worker on its own handle to the cache's *directory* (the
memory layer is per-process), and the workers' counters are merged
into the caller's :class:`CacheStats` so a batch run reports one
coherent hit rate.  Every job's :class:`MerlinReport` carries its
per-pass :class:`PassStats`, so a batched compile is report-for-report
identical to a sequential loop.

Long-running callers (the ``repro serve`` daemon) pass a persistent
``executor`` so worker processes are spawned once per service lifetime
instead of once per batch, and ``on_error="capture"`` so one broken
request degrades to an error slot in the report instead of poisoning
the whole batch.
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
    """The outcome of one ``compile_many`` run.

    With ``on_error="capture"`` a failed job leaves ``None`` in
    ``programs``/``reports`` and the formatted cause in the matching
    ``errors`` slot; the default ``on_error="raise"`` keeps every slot
    populated (the first failure propagates instead).
    """

    programs: List[Optional[BpfProgram]] = field(default_factory=list)
    reports: List[Optional[MerlinReport]] = field(default_factory=list)
    errors: List[Optional[str]] = field(default_factory=list)
    jobs: int = 1
    wall_seconds: float = 0.0
    cache_stats: Optional["CacheStats"] = None

    def __iter__(self):
        return iter(zip(self.programs, self.reports))

    def __len__(self) -> int:
        return len(self.programs)

    @property
    def failed(self) -> int:
        return sum(1 for e in self.errors if e is not None)

    @property
    def ni_original(self) -> int:
        return sum(r.ni_original for r in self.reports if r is not None)

    @property
    def ni_optimized(self) -> int:
        return sum(r.ni_optimized for r in self.reports if r is not None)

    @property
    def ni_reduction(self) -> float:
        if not self.ni_original:
            return 0.0
        return 1.0 - self.ni_optimized / self.ni_original


JobResult = Tuple[Optional[BpfProgram], Optional[MerlinReport], Optional[str]]


def _compile_job(pipeline: MerlinPipeline, job: CompileJob,
                 cache: Optional["CompilationCache"],
                 validate: Union[bool, str], on_error: str) -> JobResult:
    """Compile one job; with ``on_error="capture"`` a failure becomes
    ``(None, None, cause)`` instead of propagating."""
    from ..frontend import compile_source

    try:
        module = compile_source(job.source, job.name)
        entry = job.entry or next(iter(module.functions))
        program, report = pipeline.compile(
            module.get(entry), module, prog_type=job.prog_type,
            mcpu=job.mcpu, ctx_size=job.ctx_size, cache=cache,
            validate=validate, pgo=job.pgo, superopt=job.superopt)
    except Exception as exc:
        if on_error != "capture":
            raise
        cause = traceback.format_exception_only(type(exc), exc)
        return None, None, "".join(cause).strip()
    return program, report, None


def _worker(pipeline: MerlinPipeline, job: CompileJob,
            cache_dir: Optional[str], validate: Union[bool, str],
            on_error: str) -> Tuple[JobResult, Optional["CacheStats"]]:
    """Pool entry point: :func:`_compile_job` on this process's own
    handle to the shared directory, plus that handle's counters."""
    cache = None
    if cache_dir is not None:
        from ..cache import CompilationCache

        cache = CompilationCache(directory=cache_dir)
    result = _compile_job(pipeline, job, cache, validate, on_error)
    return result, None if cache is None else cache.stats


def compile_many(pipeline: MerlinPipeline, batch: Sequence[CompileJob],
                 jobs: int = 1, cache: Optional["CompilationCache"] = None,
                 executor: Optional[ProcessPoolExecutor] = None,
                 validate: Union[bool, str] = False,
                 on_error: str = "raise") -> BatchReport:
    """Compile every job, optionally in parallel and/or cached.

    Results come back in input order regardless of worker scheduling.
    With ``jobs > 1`` only a *directory-backed* cache is shared between
    workers (each worker process opens its own handle on the same
    store); a memory-only cache is used as-is when ``jobs == 1`` and
    ignored by the worker processes otherwise.  ``cache_stats`` holds
    the counters of this run alone.

    ``executor`` supplies a caller-owned process pool (reused across
    batches, never shut down here); without one, ``jobs > 1`` spins up
    a pool per call.  ``validate`` is forwarded to
    :meth:`MerlinPipeline.compile` per job.  ``on_error="capture"``
    turns per-job exceptions into ``report.errors`` slots.
    """
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    if on_error not in ("raise", "capture"):
        raise ValueError("on_error must be 'raise' or 'capture'")
    started = time.perf_counter()
    report = BatchReport(jobs=jobs)
    if jobs == 1 and executor is None:
        before = None if cache is None else replace(cache.stats)
        results = [_compile_job(pipeline, job, cache, validate, on_error)
                   for job in batch]
        if cache is not None:
            report.cache_stats = cache.stats.since(before)
    else:
        cache_dir = None if cache is None else cache.directory
        n = len(batch)
        args = ([pipeline] * n, batch, [cache_dir] * n, [validate] * n,
                [on_error] * n)
        if executor is not None:
            outcomes = list(executor.map(_worker, *args))
        else:
            with ProcessPoolExecutor(max_workers=jobs) as pool:
                outcomes = list(pool.map(_worker, *args))
        results = [result for result, _ in outcomes]
        if cache_dir is not None:
            from ..cache import CacheStats

            report.cache_stats = CacheStats()
            for _, stats in outcomes:
                report.cache_stats.merge(stats)
            cache.stats.merge(report.cache_stats)
    for program, rep, error in results:
        report.programs.append(program)
        report.reports.append(rep)
        report.errors.append(error)
    report.wall_seconds = time.perf_counter() - started
    return report
