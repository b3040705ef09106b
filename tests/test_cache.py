"""Tests for the content-addressed compilation cache (repro.cache).

The key must cover everything that can change compiled output; the
store must hand back private copies; disk entries must survive process
(here: instance) boundaries; and a cached compile must be bit-identical
to a fresh one.
"""

import dataclasses
import pickle

import pytest

from repro import compile_bpf, ir
from repro.cache import (
    CacheStats,
    CompilationCache,
    canonical_text,
    compose_key,
    kernel_fingerprint,
)
from repro.core import MerlinPipeline
from repro.isa import ProgramType
from repro.verifier import KERNELS

SOURCE = """
u64 f(u8* ctx) {
    u64 a = *(u64*)(ctx + 0);
    u32 b = (u32)a * 5;
    u64 c = (u64)b;
    return c + a;
}
"""

OTHER_SOURCE = """
u64 g(u8* ctx) {
    u64 a = *(u64*)(ctx + 0);
    return a ^ 3;
}
"""


def build(source=SOURCE, entry="f"):
    module = compile_bpf(source)
    return module.get(entry), module


def make_key(func, module, **overrides):
    base = dict(enabled=frozenset({"dao", "cc", "po"}),
                kernel=KERNELS["6.5"], prog_type=ProgramType.TRACEPOINT,
                mcpu="v2", ctx_size=64)
    base.update(overrides)
    return CompilationCache().key_for_function(func, module, **base)


class TestKeyComposition:
    def test_same_inputs_same_key(self):
        func, module = build()
        assert make_key(func, module) == make_key(func, module)

    def test_identical_text_same_key_across_parses(self):
        # content-addressed: two separately parsed copies of the same
        # source share an entry
        f1, m1 = build()
        f2, m2 = build()
        assert make_key(f1, m1) == make_key(f2, m2)

    def test_different_source_different_key(self):
        f1, m1 = build()
        f2, m2 = build(OTHER_SOURCE, "g")
        assert make_key(f1, m1) != make_key(f2, m2)

    @pytest.mark.parametrize("override", [
        dict(enabled=frozenset({"dao"})),
        dict(kernel=KERNELS["4.15"]),
        dict(prog_type=ProgramType.XDP),
        dict(mcpu="v3"),
        dict(ctx_size=24),
        dict(validate=True),
    ], ids=["enabled", "kernel", "prog_type", "mcpu", "ctx_size",
            "validate"])
    def test_each_config_field_invalidates(self, override):
        func, module = build()
        assert make_key(func, module) != make_key(func, module, **override)

    def test_enabled_order_does_not_matter(self):
        func, module = build()
        ir_text = canonical_text(func, module)
        k1 = compose_key(ir_text, ["po", "cc", "dao"], KERNELS["6.5"])
        k2 = compose_key(ir_text, ["dao", "po", "cc"], KERNELS["6.5"])
        assert k1 == k2

    def test_canonical_text_records_entry_point(self):
        func, module = build()
        assert f"entry @{func.name}" in canonical_text(func, module)
        # without a module only the function's own IR is rendered
        assert canonical_text(func) == ir.print_function(func)

    def test_kernel_fingerprint_covers_every_field(self):
        fp = kernel_fingerprint(KERNELS["6.5"])
        for f in dataclasses.fields(KERNELS["6.5"]):
            assert f"{f.name}=" in fp

    def test_key_is_hex_sha256(self):
        func, module = build()
        key = make_key(func, module)
        assert len(key) == 64
        assert all(c in "0123456789abcdef" for c in key)

    def test_schema_version_feeds_the_key(self):
        func, module = build()
        ir_text = canonical_text(func, module)
        k1 = compose_key(ir_text, [], KERNELS["6.5"])
        import repro.cache.keys as keys_mod

        old = keys_mod.SCHEMA_VERSION
        try:
            keys_mod.SCHEMA_VERSION = old + 1
            k2 = compose_key(ir_text, [], KERNELS["6.5"])
        finally:
            keys_mod.SCHEMA_VERSION = old
        assert k1 != k2


def compile_with(cache, source=SOURCE, entry="f"):
    func, module = build(source, entry)
    pipeline = MerlinPipeline()
    return pipeline.compile(func, module, prog_type=ProgramType.TRACEPOINT,
                            ctx_size=64, cache=cache)


class TestStore:
    def test_memory_hit(self):
        cache = CompilationCache()
        prog1, rep1 = compile_with(cache)
        assert cache.stats.misses == 1 and cache.stats.stores == 1
        prog2, rep2 = compile_with(cache)
        assert cache.stats.hits == 1 and cache.stats.memory_hits == 1
        assert prog2.insns == prog1.insns
        assert rep1.cached is False
        assert rep2.cached is True

    def test_cached_bytecode_identical_to_fresh(self):
        cache = CompilationCache()
        cached_prog, _ = compile_with(cache)
        cached_prog, _ = compile_with(cache)  # second run: from cache
        fresh_prog, _ = compile_with(None)
        assert cached_prog.insns == fresh_prog.insns
        assert cached_prog.mcpu == fresh_prog.mcpu

    def test_get_returns_private_copy(self):
        cache = CompilationCache()
        compile_with(cache)
        prog_a, _ = compile_with(cache)
        prog_a.insns.clear()  # caller mutates its copy...
        prog_b, _ = compile_with(cache)
        assert prog_b.insns  # ...without corrupting the store

    def test_disk_persistence_across_instances(self, tmp_path):
        first = CompilationCache(directory=str(tmp_path))
        compile_with(first)
        assert first.stats.stores == 1
        # a brand-new instance (think: another worker process) hits disk
        second = CompilationCache(directory=str(tmp_path))
        prog, rep = compile_with(second)
        assert second.stats.disk_hits == 1
        assert rep.cached is True

    def test_disk_layout_is_sharded(self, tmp_path):
        cache = CompilationCache(directory=str(tmp_path))
        compile_with(cache)
        pkls = list(tmp_path.glob("*/*.pkl"))
        assert len(pkls) == 1
        assert pkls[0].parent.name == pkls[0].stem[:2]

    def test_eviction_counter_and_disk_recovery(self, tmp_path):
        cache = CompilationCache(directory=str(tmp_path),
                                 max_memory_entries=1)
        compile_with(cache)
        compile_with(cache, OTHER_SOURCE, "g")  # evicts the first entry
        assert cache.stats.evictions == 1
        assert len(cache) == 1
        # the evicted entry is still served — from disk
        _, rep = compile_with(cache)
        assert rep.cached is True
        assert cache.stats.disk_hits == 1

    def test_memory_only_eviction_recompiles(self):
        cache = CompilationCache(max_memory_entries=1)
        compile_with(cache)
        compile_with(cache, OTHER_SOURCE, "g")
        _, rep = compile_with(cache)  # no disk layer to fall back on
        assert rep.cached is False
        assert cache.stats.misses == 3

    def test_contains_len_clear(self, tmp_path):
        cache = CompilationCache(directory=str(tmp_path))
        func, module = build()
        key = make_key(func, module)
        assert key not in cache
        _, rep = compile_with(cache)
        assert len(cache) == 1
        stored_key = next(iter(cache._memory))
        assert stored_key in cache
        cache.clear_memory()
        assert len(cache) == 0
        assert stored_key in cache  # disk copy survives clear_memory

    def test_invalid_max_entries_rejected(self):
        with pytest.raises(ValueError):
            CompilationCache(max_memory_entries=0)

    def test_corrupt_disk_entry_is_a_miss(self, tmp_path):
        cache = CompilationCache(directory=str(tmp_path))
        compile_with(cache)
        pkl = next(tmp_path.glob("*/*.pkl"))
        pkl.write_bytes(b"not a pickle")
        fresh = CompilationCache(directory=str(tmp_path))
        _, rep = compile_with(fresh)  # falls back to compiling
        assert rep.cached is False
        assert fresh.stats.misses == 1
        assert fresh.stats.read_errors == 1

    def test_write_failure_degrades_to_memory(self, tmp_path):
        """The store absorbs disk-write failures (a long-running
        service losing its cache dir must not start crashing)."""
        import shutil

        store_dir = tmp_path / "store"
        cache = CompilationCache(directory=str(store_dir))
        compile_with(cache)
        shutil.rmtree(store_dir)
        store_dir.write_text("a file where the directory was")
        _, rep = compile_with(cache, OTHER_SOURCE, "g")  # write fails
        assert rep.cached is False
        assert cache.stats.write_errors == 1
        # the memory tier still took the entry
        _, again = compile_with(cache, OTHER_SOURCE, "g")
        assert again.cached is True


class TestValidatedCompiles:
    """``compile(validate=...)`` participates in the cache: certificate
    verdicts are cached alongside the bytecode, and a validated hit is
    indistinguishable from a validated miss."""

    def compile_validated(self, cache, validate="report"):
        func, module = build()
        return MerlinPipeline().compile(
            func, module, prog_type=ProgramType.TRACEPOINT, ctx_size=64,
            cache=cache, validate=validate)

    def test_validated_compile_is_cached(self):
        cache = CompilationCache()
        self.compile_validated(cache)
        assert cache.stats.stores == 1
        _, rep = self.compile_validated(cache)
        assert rep.cached is True
        assert cache.stats.hits == 1

    def test_validated_hit_equals_validated_miss(self):
        cache = CompilationCache()
        miss_prog, miss_rep = self.compile_validated(cache)
        hit_prog, hit_rep = self.compile_validated(cache)
        assert hit_rep.cached is True
        assert hit_prog.insns == miss_prog.insns
        assert hit_rep.ni_optimized == miss_rep.ni_optimized
        # the certificate verdicts come back with the entry
        assert len(hit_rep.certificates) == len(miss_rep.certificates)
        assert [(c.pass_name, c.status) for c in hit_rep.certificates] \
            == [(c.pass_name, c.status) for c in miss_rep.certificates]
        assert all(c.certified for c in hit_rep.certificates)

    def test_strict_validate_hits_too(self):
        cache = CompilationCache()
        self.compile_validated(cache, validate=True)
        _, rep = self.compile_validated(cache, validate=True)
        assert rep.cached is True
        assert rep.certificates

    def test_plain_and_validated_entries_are_distinct(self):
        """A plain compile must not satisfy a validated request (its
        entry has no certificates) and vice versa."""
        cache = CompilationCache()
        _, plain = self.compile_validated(cache, validate=False)
        assert plain.certificates == []
        _, validated = self.compile_validated(cache)
        assert validated.cached is False       # key differs
        assert validated.certificates
        # both entries now live side by side
        assert cache.stats.stores == 2
        _, plain_again = self.compile_validated(cache, validate=False)
        assert plain_again.cached is True
        assert plain_again.certificates == []

    def test_validated_entry_persists_to_disk(self, tmp_path):
        first = CompilationCache(directory=str(tmp_path))
        _, cold = self.compile_validated(first)
        second = CompilationCache(directory=str(tmp_path))
        _, warm = self.compile_validated(second)
        assert warm.cached is True
        assert second.stats.disk_hits == 1
        assert [(c.pass_name, c.status) for c in warm.certificates] \
            == [(c.pass_name, c.status) for c in cold.certificates]


@pytest.mark.fuzz
class TestCachedEqualsFresh:
    """Property: for generated programs, a cache-served compile is
    byte-identical to a fresh one (insns, mcpu, and report NI)."""

    PROGRAMS = 200

    def test_cached_and_fresh_bytecode_identical(self):
        from repro.fuzz.generator import generate
        from repro.ir.parser import parse_function

        cache = CompilationCache()
        checked = 0
        seed = 0
        while checked < self.PROGRAMS:
            layer = ("source", "ir")[seed % 2]
            case = generate(layer, 90_000 + seed)
            seed += 1
            try:
                if case.layer == "source":
                    from repro.frontend import compile_source

                    module = compile_source(case.text)
                    func = module.get(case.name)
                else:
                    module = None
                    func = parse_function(case.text)
                pipeline = MerlinPipeline()
                fresh, fresh_rep = pipeline.compile(
                    func, module, prog_type=case.prog_type, mcpu=case.mcpu,
                    ctx_size=case.ctx_size)
                # first cached compile stores, second must hit
                pipeline.compile(func, module, prog_type=case.prog_type,
                                 mcpu=case.mcpu, ctx_size=case.ctx_size,
                                 cache=cache)
                cached, cached_rep = pipeline.compile(
                    func, module, prog_type=case.prog_type, mcpu=case.mcpu,
                    ctx_size=case.ctx_size, cache=cache)
            except Exception:
                continue  # generator output the toolchain rejects
            assert cached_rep.cached, f"{layer} seed {case.seed}: no hit"
            assert cached.insns == fresh.insns, \
                f"{layer} seed {case.seed}: cached bytecode differs"
            assert cached.mcpu == fresh.mcpu
            assert cached_rep.ni_optimized == fresh_rep.ni_optimized
            checked += 1
        assert cache.stats.hits >= self.PROGRAMS


class TestCacheStats:
    #: every counter, in the order the ``stats`` op shows them
    COUNTERS = ("hits", "misses", "stores", "evictions", "memory_hits",
                "disk_hits", "write_errors", "read_errors")

    def _counters(self, scale):
        """Each counter its own value: *scale* times its position."""
        return CacheStats(**{name: scale * position for position, name
                             in enumerate(self.COUNTERS, 1)})

    def test_hit_rate(self):
        stats = CacheStats(hits=3, misses=1)
        assert stats.lookups == 4
        assert stats.hit_rate == 0.75
        assert CacheStats().hit_rate == 0.0

    def test_merge(self):
        a = CacheStats(hits=1, misses=2, stores=3, evictions=1,
                       memory_hits=1, disk_hits=0)
        b = CacheStats(hits=4, misses=1, stores=1, evictions=0,
                       memory_hits=2, disk_hits=2)
        a.merge(b)
        assert (a.hits, a.misses, a.stores, a.evictions,
                a.memory_hits, a.disk_hits) == (5, 3, 4, 1, 3, 2)
        # every field, each with its own value so a swapped or dropped
        # counter shows
        a = self._counters(1)
        a.merge(self._counters(100))
        assert a == self._counters(101)

    def test_since_is_the_per_run_delta(self):
        before, now = self._counters(1), self._counters(100)
        assert now.since(before) == self._counters(99)
        assert before == self._counters(1)  # the snapshot is untouched

    def test_to_dict_round(self):
        d = CacheStats(hits=1, misses=2).to_dict()
        assert d["hits"] == 1 and d["misses"] == 2
        assert d["hit_rate"] == round(1 / 3, 4)
        # every counter, in the order the stats op shows them
        d = self._counters(1).to_dict()
        assert list(d) == [*self.COUNTERS, "hit_rate"]
        assert [d[name] for name in self.COUNTERS] == \
            list(range(1, len(self.COUNTERS) + 1))


class TestWriteDegradation:
    """A filesystem going read-only mid-run (EROFS) must downgrade the
    store to memory-only: ``put``/``get`` never re-raise, reads keep
    being served, and after WRITE_DEGRADE_AFTER consecutive failures
    the disk is not even probed anymore."""

    def failing_replace(self, monkeypatch):
        import errno
        import os as real_os

        calls = {"n": 0}
        original = real_os.replace

        def replace(src, dst):
            calls["n"] += 1
            raise OSError(errno.EROFS, "read-only file system")

        monkeypatch.setattr("repro.cache.store.os.replace", replace)
        return calls, original

    def test_erofs_after_first_write_never_reraises(self, tmp_path,
                                                    monkeypatch):
        cache = CompilationCache(directory=str(tmp_path))
        prog1, _ = compile_with(cache)                  # lands on disk
        assert cache.stats.write_errors == 0

        calls, _ = self.failing_replace(monkeypatch)
        degrade_at = CompilationCache.WRITE_DEGRADE_AFTER
        for i in range(degrade_at + 2):                 # none of these raise
            compile_with(cache, OTHER_SOURCE.replace("g(", f"g{i}("),
                         f"g{i}")
        assert cache.write_degraded is True
        assert cache.stats.write_errors == degrade_at
        # sticky: once degraded the disk is no longer probed
        assert calls["n"] == degrade_at

        # get() still serves: memory first, then the pre-failure disk
        # entry after the LRU layer is dropped
        _, again = compile_with(cache)
        assert again.cached is True
        cache.clear_memory()
        _, from_disk = compile_with(cache)
        assert from_disk.cached is True
        assert cache.stats.disk_hits == 1
        # unknown keys stay plain misses, no exception
        assert cache.get("0" * 64) is None

    def test_one_success_rearms_the_failure_counter(self, tmp_path,
                                                    monkeypatch):
        import os as real_os

        cache = CompilationCache(directory=str(tmp_path))
        calls, original = self.failing_replace(monkeypatch)
        threshold = CompilationCache.WRITE_DEGRADE_AFTER
        for i in range(threshold - 1):                  # one short of sticky
            compile_with(cache, OTHER_SOURCE.replace("g(", f"h{i}("),
                         f"h{i}")
        assert cache.write_degraded is False
        monkeypatch.setattr("repro.cache.store.os.replace", original)
        compile_with(cache)                             # success re-arms
        assert cache._consecutive_write_errors == 0

        self.failing_replace(monkeypatch)
        for i in range(threshold - 1):                  # fresh budget again
            compile_with(cache, OTHER_SOURCE.replace("g(", f"k{i}("),
                         f"k{i}")
        assert cache.write_degraded is False
        assert cache.stats.write_errors == 2 * (threshold - 1)

    def test_unwritable_directory_from_birth_runs_memory_only(
            self, tmp_path):
        blocker = tmp_path / "not-a-dir"
        blocker.write_text("file where the cache dir should go")
        cache = CompilationCache(directory=str(blocker / "sub"))
        assert cache.write_degraded is True
        prog1, rep1 = compile_with(cache)               # memory tier only
        _, again = compile_with(cache)
        assert again.cached is True


class TestLookup:
    """``lookup`` is ``get`` without the deserializing copy: the same
    answer and the same counters in every case, and the same LRU
    refresh."""

    @pytest.fixture(autouse=True)
    def _entry(self):
        func, module = build()
        self.entry = MerlinPipeline().compile(
            func, module, prog_type=ProgramType.TRACEPOINT, ctx_size=64)

    def _stored(self, directory=None):
        """A store holding this test's one entry under ``"k"``."""
        cache = CompilationCache(directory=directory)
        cache.put("k", *self.entry)
        return cache

    @staticmethod
    def _agree(by_get, by_lookup, key="k"):
        """Probe two identically built stores, one per method."""
        got = by_get.get(key)
        hit = by_lookup.lookup(key)
        assert (hit is None) == (got is None)
        if hit is not None:
            blob, entry = hit
            assert pickle.loads(blob) == got
            assert entry is None or entry == got
        assert by_lookup.stats.to_dict() == by_get.stats.to_dict()
        return hit

    def _fresh_handles(self, tmp_path, damage=lambda cache: None):
        """Two disk stores holding the same entry, each reopened through
        a new handle (think: another shard) after *damage*."""
        handles = []
        for side in ("get", "lookup"):
            directory = str(tmp_path / side)
            damage(self._stored(directory))
            handles.append(CompilationCache(directory=directory))
        return handles

    def test_memory_hit_deserializes_nothing(self):
        blob, entry = self._agree(self._stored(), self._stored())
        assert entry is None

    def test_disk_hit_through_a_fresh_handle(self, tmp_path):
        by_get, by_lookup = self._fresh_handles(tmp_path)
        blob, entry = self._agree(by_get, by_lookup)
        assert entry is not None       # the read bytes were validated
        assert by_lookup.stats.disk_hits == 1
        assert len(by_lookup) == 1     # and remembered in memory

    def test_miss(self):
        assert self._agree(self._stored(), self._stored(),
                           key="absent") is None

    def test_torn_disk_entry(self, tmp_path):
        def tear(cache):
            with open(cache._path("k"), "wb") as handle:
                handle.write(b"torn")

        by_get, by_lookup = self._fresh_handles(tmp_path, tear)
        assert self._agree(by_get, by_lookup) is None
        assert by_lookup.stats.read_errors == 1

    def test_hit_tolerates_a_concurrent_eviction(self):
        """The serve daemon looks entries up on its event loop while its
        dispatch thread stores through the same handle: an entry that
        thread evicts right after this lookup read it is still a hit,
        not a KeyError."""
        from collections import OrderedDict

        class EvictedAfterRead(OrderedDict):
            def get(self, key, default=None):
                value = super().get(key, default)
                self.pop(key, None)   # the other thread's LRU overflow
                return value

        cache = CompilationCache()
        cache.put_object("k", 1)
        cache._memory = EvictedAfterRead(cache._memory)
        assert cache.get("k") == 1
        assert (cache.stats.hits, cache.stats.misses) == (1, 0)

    def test_refreshes_lru_order(self):
        cache = CompilationCache(max_memory_entries=2)
        cache.put_object("a", 1)
        cache.put_object("b", 2)
        assert cache.lookup("a") is not None
        cache.put_object("c", 3)       # evicts the least recently used
        assert "a" in cache and "b" not in cache

    def test_get_unpickles_a_disk_hit_once(self, tmp_path, monkeypatch):
        _, cache = self._fresh_handles(tmp_path)
        real_loads = pickle.loads
        calls = []

        def counting_loads(*args, **kwargs):
            calls.append(1)
            return real_loads(*args, **kwargs)

        monkeypatch.setattr(pickle, "loads", counting_loads)
        assert cache.get("k") is not None
        assert cache.stats.disk_hits == 1
        assert len(calls) == 1
