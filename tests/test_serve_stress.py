"""Stress and soak tests for the serve daemon (slow marker).

Run with ``pytest -m slow tests/test_serve_stress.py``.  The soak
drives >=4 concurrent clients through hundreds of Zipf-skewed
requests and checks the daemon's production invariants: zero dropped
responses, a warm-cache hit-rate floor, bounded RSS growth, and
graceful survival of fault injection (malformed lines, oversized
programs, abrupt disconnects) and of losing the cache directory
mid-flight.  Everything is deterministic under the fixed seeds.
"""

import os
import shutil

import pytest

from repro.serve import (
    DaemonThread,
    FaultPlan,
    ServeClient,
    ServeConfig,
    build_pool,
    replay_trace,
    synthesize_trace,
    zipf_stream,
)

pytestmark = pytest.mark.slow

SOAK_CLIENTS = 4
SOAK_REQUESTS = 200          # per client, per wave
SOAK_UNIQUE = 16
SOAK_SEED = 7


def rss_bytes() -> int:
    with open("/proc/self/statm") as handle:
        return int(handle.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")


def replay_zipf(address, pool, requests, clients, seed, depth,
             faults=None):
    """*clients* closed-loop Zipf streams of *requests* each: a
    synthesized gapless trace, replayed flat out."""
    events = synthesize_trace(pool, requests=requests, clients=clients,
                              seed=seed, mean_gap=0.0, tenants=False)
    return replay_trace(address, events, speed=0, depth=depth,
                        faults=faults)


@pytest.fixture(scope="module")
def pool():
    return build_pool(SOAK_UNIQUE, seed=SOAK_SEED, prefilter="full")


class TestSoak:
    def test_zipf_soak_no_drops_and_hit_rate_floor(self, pool):
        """>=4 clients x >=200 requests each, twice over: nothing
        dropped, everything ok, and the Zipf head keeps the shared
        cache hot."""
        config = ServeConfig()
        with DaemonThread(config) as handle:
            first = replay_zipf(handle.address, pool,
                             requests=SOAK_REQUESTS, clients=SOAK_CLIENTS,
                             seed=SOAK_SEED, depth=8)
            rss_after_warmup = rss_bytes()
            second = replay_zipf(handle.address, pool,
                              requests=SOAK_REQUESTS, clients=SOAK_CLIENTS,
                              seed=SOAK_SEED + 1, depth=8)
            rss_after_soak = rss_bytes()
            # the responded counter ticks *after* the bytes hit the
            # socket, so the last client can finish a beat before the
            # daemon's writer coroutine catches up — wait it out
            import time

            total_expected = 2 * SOAK_CLIENTS * SOAK_REQUESTS
            deadline = time.monotonic() + 2.0
            while time.monotonic() < deadline:
                stats = handle.daemon.snapshot()
                if stats["requests"]["responded"] >= total_expected:
                    break
                time.sleep(0.01)

        for wave in (first, second):
            assert wave.failures == []
            assert wave.dropped == 0
            assert wave.ok == wave.sent == SOAK_CLIENTS * SOAK_REQUESTS
            assert wave.errors == {}

        # hit-rate floor: only the first sighting of each of the
        # SOAK_UNIQUE programs may miss
        total = 2 * SOAK_CLIENTS * SOAK_REQUESTS
        assert stats["cache"]["hit_rate"] >= 1.0 - (SOAK_UNIQUE * 2) / total
        assert stats["cache"]["hit_rate"] >= 0.9

        # every response was written and accounted
        assert stats["requests"]["responded"] >= total
        assert stats["requests"]["compiles"] == total

        # bounded memory: the reservoirs and cache are size-capped, so
        # a second full wave must not grow the process meaningfully
        growth = rss_after_soak - rss_after_warmup
        assert growth < 64 * 1024 * 1024, f"RSS grew {growth} bytes"

        # one compile per request shape under concurrent load: copies
        # of a shape in flight joined its compile
        assert stats["batches"]["requests"] <= SOAK_UNIQUE

    def test_soak_is_deterministic_under_fixed_seed(self, pool):
        """Same seed, fresh daemon: identical request streams and
        identical client-side tallies."""
        streams = [
            [zipf_stream(__import__("random").Random(SOAK_SEED * 7_919 + w),
                         len(pool), 50) for w in range(SOAK_CLIENTS)]
            for _ in range(2)
        ]
        assert streams[0] == streams[1]

        tallies = []
        for _ in range(2):
            config = ServeConfig()
            with DaemonThread(config) as handle:
                result = replay_zipf(handle.address, pool, requests=50,
                                  clients=SOAK_CLIENTS, seed=SOAK_SEED,
                                  depth=4)
            tallies.append((result.sent, result.ok, result.errors,
                            result.faults, result.dropped))
        assert tallies[0] == tallies[1]

    def test_pool_generation_deterministic(self):
        again = build_pool(SOAK_UNIQUE, seed=SOAK_SEED, prefilter="full")
        reference = build_pool(SOAK_UNIQUE, seed=SOAK_SEED,
                               prefilter="full")
        assert [p.source for p in again] == [p.source for p in reference]
        assert [p.entry for p in again] == [p.entry for p in reference]


class TestFaultInjection:
    def test_fault_soak_daemon_survives(self, pool):
        """Protocol abuse mixed into real load: every fault is answered
        or accounted, no real request is dropped, and the daemon still
        serves afterwards."""
        faults = FaultPlan(malformed=0.05, oversized=0.02,
                           unknown_op=0.03, disconnect=0.03)
        config = ServeConfig()
        with DaemonThread(config) as handle:
            result = replay_zipf(handle.address, pool, requests=100,
                              clients=SOAK_CLIENTS, seed=11, depth=4,
                              faults=faults)
            # the daemon survived the abuse and still answers
            with ServeClient(handle.address) as probe:
                assert probe.ping()["ok"] is True
            stats = handle.daemon.snapshot()

        assert result.failures == []
        assert result.dropped == 0
        # the deterministic seed injects every fault kind at least once
        for kind in ("malformed", "oversized", "unknown_op", "disconnect"):
            assert result.faults.get(kind, 0) >= 1, result.faults
        # injected faults surface as the matching protocol errors
        assert result.errors.get("bad-json", 0) >= 1
        assert result.errors.get("oversized", 0) >= 1
        assert result.errors.get("unknown-op", 0) >= 1
        assert stats["requests"]["protocol_errors"] >= 3
        # disconnect victims are torn-down connections, not hangs
        assert stats["connections"]["opened"] > SOAK_CLIENTS

    def test_fault_soak_deterministic(self, pool):
        faults = FaultPlan(malformed=0.05, oversized=0.02,
                           unknown_op=0.03, disconnect=0.03)
        tallies = []
        for _ in range(2):
            config = ServeConfig()
            with DaemonThread(config) as handle:
                result = replay_zipf(handle.address, pool, requests=60,
                                  clients=2, seed=11, depth=4,
                                  faults=faults)
            tallies.append((result.sent, result.ok, result.errors,
                            result.faults, result.dropped))
        assert tallies[0] == tallies[1]


class TestCacheDirLoss:
    def test_cache_dir_replaced_by_file_degrades_gracefully(
            self, tmp_path, pool):
        """Losing the disk store mid-flight (dir becomes unwritable /
        unreadable) must degrade to memory-only service, not crash."""
        cache_dir = tmp_path / "store"
        config = ServeConfig(cache_dir=str(cache_dir))
        with DaemonThread(config) as handle:
            with ServeClient(handle.address) as client:
                warm = pool[0]
                client.compile(warm.source, name=warm.name,
                               entry=warm.entry, prog_type=warm.prog_type,
                               ctx_size=warm.ctx_size)
                # now the store vanishes: a plain file sits where the
                # directory was (NotADirectoryError on every disk path;
                # chmod tricks don't work for root, this does)
                shutil.rmtree(cache_dir)
                cache_dir.write_text("disk is gone")

                fresh = pool[1]
                response = client.compile(
                    fresh.source, name=fresh.name, entry=fresh.entry,
                    prog_type=fresh.prog_type, ctx_size=fresh.ctx_size)
                assert response["ok"] is True

                # the memory tier still serves repeats
                repeat = client.compile(
                    fresh.source, name=fresh.name, entry=fresh.entry,
                    prog_type=fresh.prog_type, ctx_size=fresh.ctx_size)
                assert repeat["result"]["cached"] is True
            stats = handle.daemon.snapshot()

        assert stats["cache"]["write_errors"] >= 1
        assert stats["requests"]["compiles"] == 3

    def test_load_continues_after_cache_dir_loss(self, tmp_path, pool):
        cache_dir = tmp_path / "store"
        config = ServeConfig(cache_dir=str(cache_dir))
        with DaemonThread(config) as handle:
            replay_zipf(handle.address, pool, requests=20, clients=2,
                     seed=3, depth=4)
            shutil.rmtree(cache_dir)
            cache_dir.write_text("disk is gone")
            result = replay_zipf(handle.address, pool, requests=20,
                              clients=2, seed=4, depth=4)
        assert result.failures == []
        assert result.dropped == 0
        assert result.ok == result.sent
