"""Cross-process cache contention: many writers, one sharded store.

The daemon, its worker pool, and any number of batch-compiler pools
may all share one on-disk cache directory.  The store's contract under
that contention: no torn/corrupt entries (temp file + ``os.replace``),
no lost updates (after the dust settles a warm pass hits on every
key), and no stale reads through the memory LRU (an evicted entry
re-read from disk is byte-identical to the original result).
"""

import concurrent.futures
import os
import pickle
import threading

from repro.cache import CompilationCache
from repro.core import CompileJob, MerlinPipeline
from repro.isa import ProgramType
from repro.serve import DaemonThread, ServeClient, ServeConfig

SOURCES = [
    ("alpha", """
u64 alpha(u8* ctx) {
    u64 a = *(u64*)(ctx + 0);
    return a + 2 + 3;
}
"""),
    ("beta", """
u64 beta(u8* ctx) {
    u64 a = *(u64*)(ctx + 0);
    u64 b = *(u64*)(ctx + 8);
    return (a & 0xfff) ^ (b >> 2);
}
"""),
    ("gamma", """
u64 gamma(u8* ctx) {
    u64 a = *(u64*)(ctx + 0);
    u64 acc = 1;
    if (a > 4) { acc = acc + a; }
    return acc;
}
"""),
    ("delta", """
u64 delta(u8* ctx) {
    u32 a = *(u32*)(ctx + 0);
    u32 b = (u32)a * 7;
    return (u64)b + 9;
}
"""),
]

BATCH = [
    CompileJob(name=name, source=source, entry=name,
               prog_type=ProgramType.TRACEPOINT, mcpu="v2", ctx_size=64)
    for name, source in SOURCES
]


def signature(report):
    return [(prog.insns, rep.ni_original, rep.ni_optimized)
            for prog, rep in report]


def every_disk_entry(directory):
    """Yield every sharded ``.pkl`` entry, unpickled (raises on a torn
    or corrupt file — the corruption check).  Transient files — a
    writer's ``.tmp-*.pkl`` or an evictor's ``.tomb-*`` rename — are
    legitimate mid-race states, not entries; everything else must be a
    complete pickled entry."""
    for root, _dirs, files in os.walk(directory):
        for filename in files:
            path = os.path.join(root, filename)
            if filename.startswith(".") or ".tomb-" in filename:
                continue
            assert filename.endswith(".pkl"), f"stray file {path}"
            with open(path, "rb") as handle:
                yield path, pickle.loads(handle.read())


class TestConcurrentPools:
    def test_two_pools_race_one_store(self, tmp_path):
        """Two multi-process batch compiles race on one directory: both
        return reference results and every disk entry stays readable."""
        reference = MerlinPipeline().compile_many(BATCH)
        results = {}

        def run(tag):
            cache = CompilationCache(directory=str(tmp_path))
            results[tag] = MerlinPipeline().compile_many(
                BATCH, jobs=2, cache=cache)

        threads = [threading.Thread(target=run, args=(tag,))
                   for tag in ("a", "b")]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        assert signature(results["a"]) == signature(reference)
        assert signature(results["b"]) == signature(reference)
        entries = list(every_disk_entry(tmp_path))
        assert len(entries) == len(BATCH)  # one entry per key, no dupes
        for _path, payload in entries:
            program, report = payload
            assert program.ni == report.ni_optimized

    def test_no_lost_updates_after_contention(self, tmp_path):
        def run():
            cache = CompilationCache(directory=str(tmp_path))
            MerlinPipeline().compile_many(BATCH, jobs=2, cache=cache)

        threads = [threading.Thread(target=run) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        # a fresh process-equivalent reader hits on every key: nothing
        # was lost or torn by the concurrent writers
        fresh = CompilationCache(directory=str(tmp_path))
        warm = MerlinPipeline().compile_many(BATCH, cache=fresh)
        assert warm.cache_stats.hits == len(BATCH)
        assert warm.cache_stats.misses == 0
        assert all(rep.cached for rep in warm.reports)

    def test_daemon_and_pools_share_one_store(self, tmp_path):
        """The service daemon (with its own worker pool) and an
        out-of-band batch compile pool hammer the same store while
        clients stream requests — everyone sees reference results."""
        reference = MerlinPipeline().compile_many(BATCH)
        config = ServeConfig(cache_dir=str(tmp_path), jobs=2,
                             max_batch=8, max_delay=0.01)
        pool_result = {}

        def out_of_band():
            cache = CompilationCache(directory=str(tmp_path))
            pool_result["batch"] = MerlinPipeline().compile_many(
                BATCH, jobs=2, cache=cache)

        with DaemonThread(config) as handle:
            racer = threading.Thread(target=out_of_band)
            racer.start()
            with ServeClient(handle.address) as client:
                responses = client.compile_pipelined([
                    {"op": "compile", "name": name, "source": source,
                     "entry": name, "prog_type": "tracepoint",
                     "ctx_size": 64}
                    for name, source in SOURCES] * 3)
            racer.join()
            stats = handle.daemon.snapshot()

        assert all(r["ok"] for r in responses), responses
        for (name, _source), response, (_prog, rep) in zip(
                SOURCES, responses, reference):
            assert response["result"]["ni_optimized"] == rep.ni_optimized
        assert signature(pool_result["batch"]) == signature(reference)
        assert stats["cache"]["write_errors"] == 0
        assert stats["cache"]["read_errors"] == 0
        for _path, (program, report) in every_disk_entry(tmp_path):
            assert program.ni == report.ni_optimized


class TestLruStaleness:
    def test_evicted_entry_rereads_identically_from_disk(self, tmp_path):
        """A memory-LRU eviction must never serve a stale or divergent
        result: the disk re-read equals the original compile."""
        cache = CompilationCache(directory=str(tmp_path),
                                 max_memory_entries=2)
        pipeline = MerlinPipeline()
        cold = pipeline.compile_many(BATCH, cache=cache)  # 4 > 2 evicts
        assert cache.stats.evictions >= 2

        warm = pipeline.compile_many(BATCH, cache=cache)
        assert warm.cache_stats.hits == len(BATCH)
        assert warm.cache_stats.disk_hits >= 2  # evicted keys re-read
        assert signature(warm) == signature(cold)

    def test_memory_only_eviction_recompiles_consistently(self):
        cache = CompilationCache(max_memory_entries=2)
        pipeline = MerlinPipeline()
        cold = pipeline.compile_many(BATCH, cache=cache)
        warm = pipeline.compile_many(BATCH, cache=cache)
        # with no disk tier the evicted keys genuinely recompile; the
        # results must still be identical
        assert signature(warm) == signature(cold)


class TestSharedExecutor:
    def test_caller_owned_executor_survives_batches(self, tmp_path):
        """The daemon reuses one persistent pool across dispatches; the
        batch API must not shut a caller-owned executor down."""
        import multiprocessing

        from repro.core.batch import compile_many

        cache = CompilationCache(directory=str(tmp_path))
        pipeline = MerlinPipeline()
        with concurrent.futures.ProcessPoolExecutor(
                max_workers=2,
                mp_context=multiprocessing.get_context("spawn")) as pool:
            first = compile_many(pipeline, BATCH, jobs=2, cache=cache,
                                 executor=pool)
            second = compile_many(pipeline, BATCH, jobs=2, cache=cache,
                                  executor=pool)
        assert signature(first) == signature(second)
        assert second.cache_stats.hits == len(BATCH)


class TestSuperoptMemoContention:
    """The superopt rewrite memo shares the same sharded store.  Under
    racing writers the same contract holds: no torn entries, and a
    fresh reader replays every window without searching."""

    def _program(self):
        from repro.isa import BpfProgram, assemble

        return BpfProgram("memo", assemble(
            "r1 = 10\nr1 += 5\nr2 = 1\nr2 += 0\nr0 = r1\nexit"))

    def test_threads_share_memo_without_torn_entries(self, tmp_path):
        from repro.core.superopt import (RewriteMemoEntry,
                                         SuperoptimizerPass)

        outputs = {}

        def run(tag):
            cache = CompilationCache(directory=str(tmp_path))
            program = self._program()
            SuperoptimizerPass(memo=cache).run(program)
            outputs[tag] = program.insns

        threads = [threading.Thread(target=run, args=(tag,))
                   for tag in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        assert len(set(map(tuple, outputs.values()))) == 1
        entries = list(every_disk_entry(tmp_path))
        assert entries  # the memo really went to disk
        for _path, entry in entries:
            assert isinstance(entry, RewriteMemoEntry)

        # a fresh process-equivalent reader replays without searching
        fresh = CompilationCache(directory=str(tmp_path))
        program = self._program()
        warm = SuperoptimizerPass(memo=fresh)
        warm.run(program)
        assert warm.counters["searches"] == 0
        assert warm.counters["memo_hits"] > 0
        assert program.insns == outputs[0]

    def test_worker_pool_shares_memo_store(self, tmp_path):
        """Superopt compile jobs fanned over a process pool share one
        memo directory; the warm pass hits on every compile key and
        every disk entry (results and memo alike) stays readable."""
        import dataclasses

        from repro.core.superopt import RewriteMemoEntry, SuperoptSpec

        batch = [dataclasses.replace(job, superopt=SuperoptSpec())
                 for job in BATCH]
        cache = CompilationCache(directory=str(tmp_path))
        cold = MerlinPipeline().compile_many(batch, jobs=2, cache=cache)
        assert cold.failed == 0

        fresh = CompilationCache(directory=str(tmp_path))
        warm = MerlinPipeline().compile_many(batch, cache=fresh)
        assert warm.cache_stats.hits == len(batch)
        assert signature(warm) == signature(cold)

        kinds = {"result": 0, "memo": 0}
        for _path, entry in every_disk_entry(tmp_path):
            if isinstance(entry, RewriteMemoEntry):
                kinds["memo"] += 1
            else:
                program, report = entry
                assert program.ni == report.ni_optimized
                kinds["result"] += 1
        assert kinds["result"] == len(batch)
        assert kinds["memo"] > 0


class TestEvictionContention:
    """PR 10 fleet semantics: N evictors and readers race on one tree.

    The tombstone contract — ``os.replace`` to a ``.tomb-*`` name, then
    unlink — means every removal is claimed by exactly one sweeper, a
    reader never sees a half-deleted entry, and an eviction storm never
    loses an update that a later compile re-stores.
    """

    def _populate(self, directory):
        cache = CompilationCache(directory=str(directory))
        MerlinPipeline().compile_many(BATCH, cache=cache)
        return cache

    def test_racing_sweepers_expire_each_entry_exactly_once(self, tmp_path):
        self._populate(tmp_path)
        sweepers = [CompilationCache(directory=str(tmp_path),
                                     ttl_seconds=0.001)
                    for _ in range(4)]
        barrier = threading.Barrier(len(sweepers))
        future = __import__("time").time() + 3600  # everything is idle

        def run(cache):
            barrier.wait()
            cache.sweep(now=future)

        threads = [threading.Thread(target=run, args=(cache,))
                   for cache in sweepers]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        total_expired = sum(c.stats.expired for c in sweepers)
        assert total_expired == len(BATCH)  # exactly once, no double count
        assert list(every_disk_entry(tmp_path)) == []

    def test_size_budget_race_never_over_evicts(self, tmp_path):
        self._populate(tmp_path)
        entries = list(every_disk_entry(tmp_path))
        keep = max(os.path.getsize(path) for path, _ in entries)
        sweepers = [CompilationCache(directory=str(tmp_path),
                                     max_disk_bytes=keep)
                    for _ in range(3)]
        threads = [threading.Thread(target=cache.sweep)
                   for cache in sweepers]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        survivors = list(every_disk_entry(tmp_path))
        assert survivors  # the budget admits at least one entry
        evicted = sum(c.stats.disk_evictions for c in sweepers)
        assert evicted == len(entries) - len(survivors)

    def test_stale_listing_sweeper_never_over_evicts(self, tmp_path):
        """Forced interleaving of the race above: sweeper B lists the
        tree, sweeper A sweeps it to budget, and only then does B start
        claiming.  B's claims on A's victims fail; their bytes are gone
        all the same, so B must stop at the budget instead of evicting
        the survivor."""
        self._populate(tmp_path)
        entries = list(every_disk_entry(tmp_path))
        keep = max(os.path.getsize(path) for path, _ in entries)
        first = CompilationCache(directory=str(tmp_path),
                                 max_disk_bytes=keep)
        late = CompilationCache(directory=str(tmp_path),
                                max_disk_bytes=keep)
        claim = late._tombstone
        swept = []

        def claim_after_first_sweep(path):
            if not swept:
                swept.append(first.sweep())
            return claim(path)

        late._tombstone = claim_after_first_sweep
        late.sweep()
        survivors = list(every_disk_entry(tmp_path))
        assert len(survivors) == 1
        assert first.stats.disk_evictions == len(entries) - 1
        assert late.stats.disk_evictions == 0

    def test_eviction_never_tears_inflight_reads(self, tmp_path):
        """Readers (forced to disk each time) race an eviction/re-store
        churn loop: every read is a complete entry or a clean miss —
        ``read_errors`` (the torn-bytes counter) stays zero."""
        self._populate(tmp_path)
        pipeline = MerlinPipeline()
        reference = pipeline.compile_many(BATCH)
        stop = threading.Event()
        readers = [CompilationCache(directory=str(tmp_path))
                   for _ in range(3)]
        seen = {id(cache): 0 for cache in readers}

        def read_loop(cache):
            while not stop.is_set():
                cache.clear_memory()  # every get goes to disk
                result = pipeline.compile_many(BATCH, cache=cache)
                assert signature(result) == signature(reference)
                seen[id(cache)] += 1

        threads = [threading.Thread(target=read_loop, args=(cache,))
                   for cache in readers]
        for thread in threads:
            thread.start()
        churn = CompilationCache(directory=str(tmp_path),
                                 max_disk_bytes=0)
        writer = CompilationCache(directory=str(tmp_path))
        for _ in range(10):
            churn.sweep()  # evict the whole tree...
            MerlinPipeline().compile_many(BATCH, cache=writer)  # ...restore
        stop.set()
        for thread in threads:
            thread.join()

        assert all(count > 0 for count in seen.values())
        for cache in readers + [churn, writer]:
            assert cache.stats.read_errors == 0

    def test_warm_hits_recover_after_eviction_storm(self, tmp_path):
        self._populate(tmp_path)
        CompilationCache(directory=str(tmp_path), max_disk_bytes=0).sweep()
        assert list(every_disk_entry(tmp_path)) == []
        # traffic re-stores the keys; a fresh reader then hits them all
        restore = CompilationCache(directory=str(tmp_path))
        MerlinPipeline().compile_many(BATCH, cache=restore)
        fresh = CompilationCache(directory=str(tmp_path))
        warm = MerlinPipeline().compile_many(BATCH, cache=fresh)
        assert warm.cache_stats.hits == len(BATCH)
        assert warm.cache_stats.misses == 0

    def test_two_daemons_share_store_under_aggressive_sweep(self, tmp_path):
        """Two shard daemons (the fleet's cache topology, minus the
        router) sweep one tree on a tight TTL while clients stream:
        every response is ok, nothing tears, and entries the sweeps
        removed come back on the next pass."""
        configs = [ServeConfig(cache_dir=str(tmp_path), max_batch=8,
                               max_delay=0.005, cache_ttl=0.3,
                               sweep_interval=0.1, shard_id=index)
                   for index in range(2)]
        payloads = [{"op": "compile", "name": name, "source": source,
                     "entry": name, "prog_type": "tracepoint",
                     "ctx_size": 64}
                    for name, source in SOURCES]
        import time as _time
        with DaemonThread(configs[0]) as one, \
                DaemonThread(configs[1]) as two:
            with ServeClient(one.address) as ca, \
                    ServeClient(two.address) as cb:
                for _round in range(3):
                    ra = ca.compile_pipelined(payloads * 2)
                    rb = cb.compile_pipelined(payloads * 2)
                    assert all(r["ok"] for r in ra + rb)
                    _time.sleep(0.45)  # TTL + both sweepers bite
                # the tree was churned; traffic restores it and the
                # repeat pass is warm again on both daemons
                assert all(r["ok"] for r in ca.compile_pipelined(payloads))
                assert all(r["ok"] for r in cb.compile_pipelined(payloads))
                warm_a = ca.compile_pipelined(payloads)
                warm_b = cb.compile_pipelined(payloads)
                assert all(r["result"]["cached"] for r in warm_a + warm_b)
            stats = [one.daemon.snapshot(), two.daemon.snapshot()]
        for snap in stats:
            assert snap["cache"]["read_errors"] == 0
            assert snap["cache"]["write_errors"] == 0
        assert sum(s["cache"]["expired"] for s in stats) > 0
        for _path, (program, report) in every_disk_entry(tmp_path):
            assert program.ni == report.ni_optimized
