"""The ``compile`` workload (closed loop, one caller).

Each op takes one program from source to loaded (see
:func:`workload.load`).  The draw holds the XDP set and a seeded suite
draw compiled with all six optimizers, plus the four smallest XDP
programs compiled again with the superoptimizer, PGO layout and TV
tiers.  Each cold pass loads every program of the draw once, each op
into its own empty directory-backed ``CompilationCache`` (so the
superoptimizer memo starts empty too); then warm passes load the same
list again, each op through a new cache handle on the program's filled
directory (what a second CLI run or another shard sees), until the
run's seconds are used up.  Only whole warm passes run, so every run's warm ops have the
same program mix.
"""

from __future__ import annotations

import dataclasses
import os
import shutil
import tempfile

from common import derived_seed, interleave, rng_for, vm_hwm_mib
from programs import suite_draw, xdp_programs
from workload import TIERS, RunRecord, load, oracle_check, report_layers

#: XDP programs also compiled with the tiers: the smallest ones, whose
#: tiered compile takes 0.1-0.3 s (xdp-balancer's superoptimizer search
#: alone takes seconds, and the tiered op's time is too noisy on a
#: shared host to gate a change, so tiered ops stay few)
TIERED = 4
#: suite programs drawn per suite: enough cold ops that the median lies
#: in a dense part of their spread, whatever the draw
PER_SUITE = 12
#: cold passes over the draw, each op into a new empty cache directory:
#: one op's time varies by a third from run to run on a shared host, so
#: the cold median rests on two samples of every program
COLD_PASSES = 2


def draw(seed: int):
    rng = rng_for(seed, "compile:xdp-order")
    xdp = xdp_programs()
    tiered = [dataclasses.replace(p, name=f"{p.name}:tiers", tiers=True)
              for p in sorted(xdp, key=lambda p: len(p.source))[:TIERED]]
    suite = suite_draw(seed, "compile", per_suite=PER_SUITE, scale=0.1,
                       max_target_ni=600)
    rng.shuffle(xdp)
    rng.shuffle(tiered)
    return interleave([xdp, suite, tiered], rng_for(seed, "compile:order"))


#: warm ops a run needs for its p90 to have ten samples beyond it
_MIN_WARM_OPS = 100


def setup(seed: int, clock) -> dict:
    from repro.core import MerlinPipeline

    progs = draw(seed)
    clock.calibrate()
    return {"progs": progs, "pipeline": MerlinPipeline()}


def _timed_load(prog, pipeline, cache_dir, clock, tracer, record, ops,
                label):
    """One op: a new cache handle on *cache_dir*, then source -> loaded.
    Returns the load result, or None when the op failed."""
    from repro.cache import CompilationCache

    clock.calibrate()
    record.attempted += 1
    cache = CompilationCache(directory=cache_dir)
    begin = tracer.op_start()
    start = clock.now()
    try:
        loaded = load(prog, pipeline, cache, TIERS if prog.tiers else None)
    except Exception as exc:  # noqa: BLE001 - any refusal fails the op
        record.fail(prog.name, f"{label}: {type(exc).__name__}: {exc}")
        return None
    elapsed = clock.now() - start
    tracer.op_end(begin, elapsed)
    ops.append((start, elapsed))
    return loaded + (cache, elapsed)


def run(state: dict, seed: int, seconds: float, clock,
        tracer) -> RunRecord:
    progs, pipeline = state["progs"], state["pipeline"]
    root = os.path.join(".perfbench", "tmp")
    os.makedirs(root, exist_ok=True)
    cache_root = tempfile.mkdtemp(prefix="cache-", dir=root)
    record = RunRecord()
    loaded = {}
    rows = {}
    caches = []
    window_start = clock.now()
    try:
        # every cold op gets its own cache directory: it meets an empty
        # cache (and superoptimizer memo), whatever ran before it
        dirs = {}
        for cold_pass in range(COLD_PASSES):
            for index, prog in enumerate(progs):
                if cold_pass and prog.name not in loaded:
                    continue
                dirs[prog.name] = os.path.join(cache_root,
                                               f"{cold_pass}-{index}")
                result = _timed_load(prog, pipeline, dirs[prog.name], clock,
                                     tracer, record, record.cold, "cold")
                if result is None:
                    continue
                program, report, verdict, _machine, cache, elapsed = result
                caches.append(cache)
                if cold_pass:
                    rows[prog.name]["cold_ms"].append(elapsed * 1e3)
                    if program.insns != loaded[prog.name][1].insns:
                        record.fail(prog.name, "cold loads differ")
                    continue
                loaded[prog.name] = (prog, program, report, verdict)
                rows[prog.name] = {"group": prog.group,
                                   "cold_ms": [elapsed * 1e3], "warm_ms": [],
                                   "ni_original": report.ni_original,
                                   "ni_optimized": report.ni_optimized,
                                   "verifier_npi": verdict.npi}
        passes = 0
        min_passes = -(-_MIN_WARM_OPS // max(len(loaded), 1))
        while passes < min_passes or clock.now() - window_start < seconds:
            passes += 1
            for prog in progs:
                if prog.name not in loaded:
                    continue
                result = _timed_load(prog, pipeline, dirs[prog.name],
                                     clock, tracer, record, record.warm,
                                     "warm")
                if result is None:
                    continue
                program, report, _verdict, _machine, cache, elapsed = result
                caches.append(cache)
                rows[prog.name]["warm_ms"].append(elapsed * 1e3)
                if program.insns != loaded[prog.name][1].insns \
                        or not report.cached:
                    record.fail(prog.name, "warm load differs from cold")
        record.window_s = clock.now() - window_start
        record.peak_rss_mib = vm_hwm_mib()
        tracer.active = False
        record.info.update(programs=len(progs), warm_passes=passes,
                           per_program=rows)
        record.layers.update(_cache_layers(caches, cache_root))
        record.layers.update(report_layers(
            (report, verdict)
            for _prog, _program, report, verdict in loaded.values()))
        _check(record, loaded, seed)
    finally:
        shutil.rmtree(cache_root, ignore_errors=True)
    return record


def _check(record: RunRecord, loaded: dict, seed: int) -> None:
    """Untimed: exact totals and the full-oracle output check."""
    exact = record.exact
    battery_seed = derived_seed(seed, "compile:battery")
    for prog, program, report, result in loaded.values():
        exact.add_ni(report.ni_original, report.ni_optimized)
        exact.verifier_npi += result.npi
        try:
            divergence, cycles, runs = oracle_check(prog, program,
                                                    battery_seed)
        except Exception as exc:  # noqa: BLE001 - a check crash fails
            record.fail(prog.name, f"oracle: {type(exc).__name__}: {exc}")
            continue
        exact.cycles += cycles
        exact.runs += runs
        if divergence is not None:
            record.fail(prog.name, f"diverges from the baseline build on "
                                   f"test {divergence[0]} "
                                   f"({divergence[1]})")


def _cache_layers(caches, cache_dir: str) -> dict:
    from repro.cache import CacheStats

    total = CacheStats()
    for cache in caches:
        total.merge(cache.stats)
    written = 0
    for dirpath, _dirs, files in os.walk(cache_dir):
        written += sum(os.path.getsize(os.path.join(dirpath, name))
                       for name in files)
    return {"cache.memory_hits": total.memory_hits,
            "cache.disk_hits": total.disk_hits,
            "cache.misses": total.misses,
            "cache.bytes_written": written}
