"""Tests for the fleet tier (repro.serve.fleet) and trace replay.

Covers the consistent-hash ring, the router's protocol surface (a
client must not be able to tell the router from a single daemon), the
stats-aggregation contract (fleet aggregate == sum of per-shard
deltas), structured shard-loss with respawn, drain shutdown with zero
drops, trace record/replay determinism, the one replay client against
both server kinds, and cross-shard cache contention under TTL
eviction.
"""

import os
import signal
import time

import pytest

from repro.cache import scan_cache_tree
from repro.serve import DaemonThread, ServeClient, ServeConfig
from repro.serve.fleet import (
    FleetConfig,
    FleetThread,
    HashRing,
    aggregate_shard_stats,
)
from repro.serve.loadgen import (
    FaultPlan,
    PoolProgram,
    TraceEvent,
    load_trace,
    replay_trace,
    save_trace,
    synthesize_trace,
)

SOURCES = [
    ("fold", """
u64 fold(u8* ctx) {
    u64 a = *(u64*)(ctx + 0);
    u64 b = 2 + 3;
    return a + b;
}
"""),
    ("mask", """
u64 mask(u8* ctx) {
    u64 a = *(u64*)(ctx + 0);
    u64 b = *(u64*)(ctx + 8);
    return (a & 0xff) + (b >> 3);
}
"""),
    ("branchy", """
u64 branchy(u8* ctx) {
    u64 a = *(u64*)(ctx + 0);
    u64 acc = 0;
    if (a > 7) { acc = acc + a; }
    if (a > 70) { acc = acc * 3; }
    return acc;
}
"""),
    ("narrow", """
u64 narrow(u8* ctx) {
    u32 a = *(u32*)(ctx + 0);
    u32 b = (u32)a * 5;
    return (u64)b;
}
"""),
]

POOL = [PoolProgram(name=name, source=source, entry=name)
        for name, source in SOURCES]


def payload(name, source, **extra):
    out = {"op": "compile", "name": name, "source": source,
           "entry": name, "prog_type": "tracepoint", "ctx_size": 64}
    out.update(extra)
    return out


@pytest.fixture(scope="module")
def fleet():
    config = FleetConfig(shards=2, max_batch=8)
    with FleetThread(config) as handle:
        yield handle


@pytest.fixture(scope="module")
def daemon():
    with DaemonThread(ServeConfig(max_batch=8)) as handle:
        yield handle


@pytest.fixture(params=["daemon", "fleet"])
def server(request):
    """Each server kind in turn, behind one address."""
    return request.getfixturevalue(request.param)


@pytest.fixture
def client(fleet):
    handle = ServeClient(fleet.address)
    yield handle
    handle.close()


# ========================================================== hash ring
class TestHashRing:
    def test_lookup_is_deterministic(self):
        ring = HashRing(range(4))
        picks = [ring.lookup(f"key-{i}") for i in range(64)]
        assert picks == [HashRing(range(4)).lookup(f"key-{i}")
                         for i in range(64)]

    def test_shares_are_reasonably_even(self):
        shares = HashRing(range(4), vnodes=64).shares()
        assert len(shares) == 4
        assert max(shares.values()) / min(shares.values()) < 3.0

    def test_dead_shard_overflows_to_live_one(self):
        ring = HashRing(range(3))
        moved = kept = 0
        for i in range(128):
            key = f"key-{i}"
            home = ring.lookup(key)
            alive = {0, 1, 2} - {home}
            fallback = ring.lookup(key, alive=alive)
            assert fallback in alive
            # killing an unrelated shard must not move this key
            other = next(iter(alive))
            still = ring.lookup(key, alive={0, 1, 2} - {other})
            if still == home:
                kept += 1
            else:
                moved += 1
        assert moved == 0 and kept == 128

    def test_no_live_shard_returns_none(self):
        ring = HashRing(range(2))
        assert ring.lookup("anything", alive=set()) is None

    def test_empty_ring_rejected(self):
        with pytest.raises(ValueError):
            HashRing([])


class TestFleetConfig:
    def test_shard_configs_inherit_shared_cache(self, tmp_path):
        config = FleetConfig(shards=3, runtime_dir=str(tmp_path),
                             jobs=2, cache_ttl=5.0,
                             cache_max_bytes=1 << 20)
        for index in range(3):
            shard = config.shard_config(index)
            assert shard.cache_dir == config.cache_dir
            assert shard.shard_id == index
            assert shard.jobs == 2
            assert shard.cache_ttl == 5.0
            assert shard.cache_max_bytes == 1 << 20
            assert shard.socket_path == config.shard_socket(index)

    def test_bad_shard_count_rejected(self):
        with pytest.raises(ValueError):
            FleetConfig(shards=0)


# ==================================================== router protocol
class TestRouterProtocol:
    def test_ping_reports_fleet(self, client):
        response = client.ping()
        assert response["result"]["router"] is True
        assert response["result"]["shards"] == 2
        assert response["result"]["alive_shards"] == 2

    def test_compile_and_cached_repeat(self, client):
        name, source = SOURCES[0]
        first = client.request(payload(name, source), check=True)
        again = client.request(payload(name, source), check=True)
        assert first["result"]["ni_optimized"] == \
            again["result"]["ni_optimized"]
        assert again["result"]["cached"] is True

    def test_malformed_line_gets_bad_json(self, client):
        client.send_raw(b"not json at all\n")
        response = client.recv()
        assert response["ok"] is False
        assert response["error"]["code"] == "bad-json"
        assert response["id"] is None

    def test_unknown_op_forwarded_to_shard(self, client):
        response = client.request({"op": "transmogrify"})
        assert response["ok"] is False
        assert response["error"]["code"] == "unknown-op"

    def test_bad_request_forwarded_to_shard(self, client):
        response = client.request({"op": "compile", "source": "x",
                                   "priority": 99})
        assert response["ok"] is False
        assert response["error"]["code"] == "bad-request"

    def test_routing_affinity_is_stable(self, fleet, client):
        # the router must send identical sources to identical shards
        for name, source in SOURCES:
            first = fleet.router.home_shard(source)
            assert fleet.router.home_shard(source) == first
            assert first in (0, 1)
        # and the ring spreads distinct sources across the fleet
        homes = {fleet.router.home_shard(f"u64 f() {{ return {i}; }}")
                 for i in range(64)}
        assert homes == {0, 1}

    def test_responses_in_arrival_order(self, client):
        responses = client.compile_pipelined(
            [payload(name, source) for name, source in SOURCES] * 3)
        assert all(r["ok"] for r in responses)


# ============================================== stats aggregation (S1)
class TestStatsAggregation:
    def test_fleet_aggregate_equals_sum_of_shards(self, client):
        before = client.stats()
        k = 6
        programs = [(f"agg{i}", f"u64 agg{i}(u8* ctx) {{ "
                     f"return {i} + 40; }}") for i in range(k)]
        responses = client.compile_pipelined(
            [payload(name, source) for name, source in programs])
        assert all(r["ok"] for r in responses)
        after = client.stats()

        def per_shard(snapshot, path):
            out = {}
            for entry in snapshot["shards"]:
                node = entry["stats"]
                for part in path:
                    node = node[part]
                out[entry["shard"]] = node
            return out

        for path in (("requests", "compiles"),
                     ("requests", "responded"),
                     ("cache", "stores"), ("cache", "hits"),
                     ("cache", "misses"),
                     ("batches", "dispatched")):
            shard_sum = sum(per_shard(after, path).values())
            agg = after["fleet"]
            for part in path:
                agg = agg[part]
            assert agg == shard_sum, path
            # the regression pin: aggregate delta == sum of per-shard
            # deltas (nothing double counted, nothing lost)
            before_agg = before["fleet"]
            for part in path:
                before_agg = before_agg[part]
            delta_sum = sum(per_shard(after, path).values()) - \
                sum(per_shard(before, path).values())
            assert agg - before_agg == delta_sum, path

        compile_delta = (after["fleet"]["requests"]["compiles"]
                         - before["fleet"]["requests"]["compiles"])
        assert compile_delta == k

    def test_latency_aggregate_is_conservative(self, client):
        snapshot = client.stats()
        fleet_lat = snapshot["fleet"]["latency"]
        shard_lats = [entry["stats"]["latency"]
                      for entry in snapshot["shards"]]
        assert fleet_lat["count"] == sum(l["count"] for l in shard_lats)
        assert fleet_lat["p99_ms_worst"] == max(
            l["p99_ms"] for l in shard_lats)
        assert fleet_lat["p999_ms_worst"] >= 0

    def test_aggregate_shard_stats_pure_function(self):
        snapshots = [
            {"requests": {"received": 5, "compiles": 3},
             "queue": {"depth": 1, "peak_depth": 4},
             "batches": {"dispatched": 2, "requests": 3, "max_size": 2},
             "cache": {"hits": 2, "misses": 1, "stores": 1},
             "throughput": {"programs_per_second": 10.0,
                            "busy_seconds": 0.5},
             "latency": {"count": 3, "p50_ms": 1.0, "p99_ms": 2.0,
                         "p999_ms": 2.5, "max_ms": 3.0, "mean_ms": 1.5},
             "fairness": {"served_by_tenant": {"a": 2, "b": 1},
                          "served_by_priority": {"0": 3}}},
            {"requests": {"received": 7, "compiles": 6},
             "queue": {"depth": 0, "peak_depth": 9},
             "batches": {"dispatched": 3, "requests": 6, "max_size": 3},
             "cache": {"hits": 5, "misses": 1, "stores": 1},
             "throughput": {"programs_per_second": 20.0,
                            "busy_seconds": 1.5},
             "latency": {"count": 6, "p50_ms": 2.0, "p99_ms": 8.0,
                         "p999_ms": 9.0, "max_ms": 9.5, "mean_ms": 3.0},
             "fairness": {"served_by_tenant": {"b": 4, "c": 2},
                          "served_by_priority": {"0": 4, "5": 2}}},
        ]
        agg = aggregate_shard_stats(snapshots)
        assert agg["shards"] == 2
        assert agg["requests"]["received"] == 12
        assert agg["requests"]["compiles"] == 9
        assert agg["queue"]["peak_depth"] == 9
        assert agg["cache"]["hits"] == 7
        assert agg["cache"]["hit_rate"] == round(7 / 9, 4)
        assert agg["latency"]["count"] == 9
        assert agg["latency"]["p99_ms_worst"] == 8.0
        assert agg["latency"]["mean_ms"] == round(
            (1.5 * 3 + 3.0 * 6) / 9, 3)
        assert agg["fairness"]["served_by_tenant"] == {
            "a": 2, "b": 5, "c": 2}
        assert agg["fairness"]["served_by_priority"] == {"0": 7, "5": 2}
        assert aggregate_shard_stats([]) == {"shards": 0}


# ============================================ trace record/replay (S4)
class TestTraceRoundTrip:
    def test_save_load_round_trip(self, tmp_path):
        events = synthesize_trace(POOL, requests=5, clients=2, seed=11,
                                  mean_gap=0.001,
                                  priority_mix={0: 0.8, 4: 0.2})
        path = str(tmp_path / "trace.jsonl")
        save_trace(path, events)
        loaded = load_trace(path)
        assert [e.to_line() for e in loaded] == \
            [e.to_line() for e in events]
        assert all(e.payload.get("tenant") for e in loaded)

    def test_synthesis_is_deterministic(self):
        a = synthesize_trace(POOL, requests=8, clients=3, seed=5)
        b = synthesize_trace(POOL, requests=8, clients=3, seed=5)
        assert [e.to_line() for e in a] == [e.to_line() for e in b]
        c = synthesize_trace(POOL, requests=8, clients=3, seed=6)
        assert [e.to_line() for e in a] != [e.to_line() for e in c]

    def test_bad_trace_rejected(self, tmp_path):
        path = str(tmp_path / "bad.jsonl")
        with open(path, "w") as fh:
            fh.write('{"t": -1, "client": 0, "payload": {}}\n')
        with pytest.raises(ValueError):
            load_trace(path)
        with open(path, "w") as fh:
            fh.write("")
        with pytest.raises(ValueError):
            load_trace(path)

    def test_replay_twice_is_byte_identical(self, fleet, tmp_path):
        """S4: against a warm fleet, two speed-0 replays of one trace
        return byte-identical responses and identical per-tenant
        ordering."""
        events = synthesize_trace(POOL, requests=12, clients=3, seed=3,
                                  mean_gap=0.0)
        path = str(tmp_path / "det.jsonl")
        save_trace(path, events)
        events = load_trace(path)
        warmup = replay_trace(fleet.address, events, speed=0)
        assert warmup.dropped == 0 and not warmup.failures
        first = replay_trace(fleet.address, events, speed=0)
        second = replay_trace(fleet.address, events, speed=0)
        for run in (first, second):
            assert run.dropped == 0 and not run.failures
            assert run.ok == run.received == len(events)
            assert run.cached == run.received  # warm: all cache-served
        assert first.digests == second.digests
        assert first.tenant_orders == second.tenant_orders
        assert first.goodput_spread() == pytest.approx(1.0)

    def test_replay_honors_recorded_timing(self, fleet):
        # ~30ms of recorded gaps at speed 1 cannot finish instantly,
        # and speed 0 must ignore the gaps entirely
        events = [TraceEvent(t=i * 0.01, client=0,
                             payload=payload(*SOURCES[0]))
                  for i in range(4)]
        timed = replay_trace(fleet.address, events, speed=1.0)
        assert timed.wall_seconds >= 0.03
        flat = replay_trace(fleet.address, events, speed=0)
        assert flat.wall_seconds < timed.wall_seconds
        assert timed.dropped == flat.dropped == 0


# ================================== one replay path, both server kinds
class TestReplayBothServers:
    DIGEST_FIELDS = ("name", "ni_original", "ni_optimized", "insns",
                     "mcpu")

    def test_same_digests_from_daemon_and_fleet(self, daemon, fleet):
        events = synthesize_trace(POOL, requests=10, clients=3, seed=9,
                                  mean_gap=0.0, priority_mix={0: 0.8, 5: 0.2})
        runs = [replay_trace(handle.address, events, speed=0, depth=4,
                             digest_fields=self.DIGEST_FIELDS)
                for handle in (daemon, fleet)]
        for run in runs:
            assert run.dropped == 0 and not run.failures
            assert run.ok == len(events)
        assert runs[0].digests == runs[1].digests
        assert runs[0].tenant_orders == runs[1].tenant_orders

    def test_faults_with_tenants_answered_by_error_code(self, server):
        """Protocol abuse mixed into tenant-labelled traffic: every
        fault kind comes back as the daemon's error code, nothing is
        dropped, and requests a disconnect abandoned leave the offered
        load, so every tenant's completion ratio stays 1.0."""
        events = synthesize_trace(POOL, requests=20, clients=3, seed=4,
                                  mean_gap=0.0)
        faults = FaultPlan(malformed=0.1, oversized=0.05, unknown_op=0.1,
                           disconnect=0.1)
        run = replay_trace(server.address, events, speed=0, depth=4,
                           faults=faults)
        assert run.dropped == 0 and not run.failures
        codes = {"malformed": "bad-json", "oversized": "oversized",
                 "unknown_op": "unknown-op"}
        assert set(run.errors) == set(codes.values())
        for kind, code in codes.items():
            assert 1 <= run.errors[code] <= run.faults[kind], run.faults
        assert run.faults["disconnect"] >= 1
        # every real request was served, and only awaited ones count
        assert run.ok == run.received - sum(run.errors.values())
        assert sum(run.tenant_offered.values()) == run.ok
        assert run.tenant_goodput == run.tenant_offered
        assert 1.0 <= run.goodput_spread() <= 1.05

    def test_replay_is_deterministic_under_faults(self, server):
        events = synthesize_trace(POOL, requests=12, clients=2, seed=8,
                                  mean_gap=0.0)
        faults = FaultPlan(malformed=0.1, unknown_op=0.1, disconnect=0.1)
        tallies = []
        for _ in range(2):
            run = replay_trace(server.address, events, speed=0, depth=4,
                               faults=faults)
            tallies.append((run.sent, run.ok, run.errors, run.faults,
                            run.dropped))
        assert tallies[0] == tallies[1]

    def test_open_loop_latency_runs_from_due_time(self, monkeypatch):
        """Gaps far shorter than one compile, one request in flight:
        each request waits behind the previous one, and that wait is
        latency — a replayer that started the clock at the send would
        report about one compile for every request (coordinated
        omission)."""
        import repro.serve.daemon as daemon_mod

        delay = 0.05
        real_compile_many = daemon_mod.compile_many

        def slow_compile_many(*args, **kwargs):
            time.sleep(delay)
            return real_compile_many(*args, **kwargs)

        monkeypatch.setattr(daemon_mod, "compile_many", slow_compile_many)
        with DaemonThread(ServeConfig()) as handle:
            with ServeClient(handle.address) as warmup:
                # time no first-compile setup
                warmup.request(payload(*SOURCES[0]), check=True)
            # never-seen sources: a repeat is answered at admission,
            # each of these pays the slowed compile
            events = [TraceEvent(t=i * 0.002, client=0, payload=payload(
                          f"late{i}",
                          f"u64 late{i}(u8* ctx) {{ return {i} + 7; }}"))
                      for i in range(8)]
            run = replay_trace(handle.address, events, speed=1.0, depth=1)
        assert run.ok == len(events)
        latencies = run.clients[0].latencies
        assert latencies[-1] > 4 * delay > 2 * latencies[0]
        assert latencies == sorted(latencies)
        assert run.to_dict()["late_ms_p99"] > 3 * delay * 1000


# ======================================= shard loss + drain (S3)
class TestShardFailure:
    def test_kill_mid_batch_yields_shard_lost_then_respawn(self):
        config = FleetConfig(shards=2, max_batch=4, reconnect_delay=0.05)
        with FleetThread(config) as fleet:
            with ServeClient(fleet.address) as client:
                # cold burst pinned to one shard, killed mid-flight:
                # every request must resolve (ok or shard-lost), never
                # hang
                victim_source = "u64 v(u8* ctx) { return 1234; }"
                victim = fleet.router.home_shard(victim_source)
                burst = [payload(f"v{i}",
                                 f"u64 v{i}(u8* ctx) {{ "
                                 f"return {i} + 9000; }}")
                         for i in range(12)]
                ids = [client.send(p) for p in burst]
                fleet.kill_shard(victim)
                responses = [client.recv() for _ in ids]
                assert [r["id"] for r in responses] == ids
                codes = set()
                for response in responses:
                    if response["ok"]:
                        codes.add("ok")
                    else:
                        codes.add(response["error"]["code"])
                assert codes <= {"ok", "shard-lost"}, codes

                # the supervisor must bring the shard back
                deadline = time.monotonic() + 30
                while time.monotonic() < deadline:
                    alive = client.ping()["result"]["alive_shards"]
                    if alive == 2:
                        break
                    time.sleep(0.1)
                assert alive == 2
                recovered = client.request(
                    payload("v", victim_source), check=True)
                assert recovered["ok"]
                snapshot = client.stats()
                assert snapshot["router"]["respawns"] >= 1
                assert snapshot["router"]["reconnects"] >= 1

    def test_respawn_reaps_a_shard_that_still_reads_alive(self):
        """A killed shard's link can drop before its process reads as
        dead.  The supervisor must reap and respawn it at once, not
        dial the dead socket for ``connect_timeout`` first."""
        config = FleetConfig(shards=2, reconnect_delay=0.05,
                             connect_timeout=20.0)
        with FleetThread(config) as fleet:
            proc = fleet.router._procs[0]
            real_is_alive = proc.is_alive
            checks = []

            def is_alive_racing_the_link():
                checks.append(None)
                return len(checks) == 1 or real_is_alive()

            proc.is_alive = is_alive_racing_the_link
            killed = time.monotonic()
            os.kill(proc.pid, signal.SIGKILL)
            with ServeClient(fleet.address) as client:
                deadline = killed + 15
                while time.monotonic() < deadline:
                    if fleet.router.stats.reconnects >= 1 and \
                            client.ping()["result"]["alive_shards"] == 2:
                        break
                    time.sleep(0.05)
                recovery = time.monotonic() - killed
                assert fleet.router.stats.reconnects >= 1
                assert recovery < config.connect_timeout / 2, recovery
                assert checks, "the racing liveness check never ran"
                source = "u64 back(u8* ctx) { return 5; }"
                assert client.request(payload("back", source),
                                      check=True)["ok"]

    def test_requests_reroute_while_shard_down(self):
        config = FleetConfig(shards=2, respawn=False)
        with FleetThread(config) as fleet:
            with ServeClient(fleet.address) as client:
                source = "u64 r(u8* ctx) { return 77; }"
                home = fleet.router.home_shard(source)
                fleet.kill_shard(home)
                deadline = time.monotonic() + 10
                while time.monotonic() < deadline:
                    if client.ping()["result"]["alive_shards"] == 1:
                        break
                    time.sleep(0.05)
                # with the home shard gone the ring overflows to the
                # survivor — the shared cache tree makes this correct
                response = client.request(payload("r", source),
                                          check=True)
                assert response["ok"]
                assert fleet.router.shard_for(source) != home

    def test_drain_shutdown_drops_nothing(self):
        config = FleetConfig(shards=2, max_batch=4)
        with FleetThread(config) as fleet:
            with ServeClient(fleet.address) as client:
                pending = [payload(f"d{i}",
                                   f"u64 d{i}(u8* ctx) {{ "
                                   f"return {i} * 31; }}")
                           for i in range(10)]
                ids = [client.send(p) for p in pending]
                shutdown_id = client.send({"op": "shutdown"})
                responses = [client.recv() for _ in ids]
                ack = client.recv()
                # every admitted request resolved, in order, before the
                # shutdown ack; zero drops across the fleet
                assert [r["id"] for r in responses] == ids
                assert all(r["ok"] for r in responses), responses
                assert ack["id"] == shutdown_id and ack["ok"]
            fleet._thread.join(timeout=60)
            assert not fleet._thread.is_alive()

    def test_request_stop_drains_even_with_held_connection(self):
        """Regression: a client that keeps its connection open after
        the drain must not wedge shutdown.  From Python 3.12,
        ``Server.wait_closed`` also waits for every accepted transport
        to detach, so awaiting it before connection teardown deadlocks
        against exactly this client."""
        config = FleetConfig(shards=2, max_batch=4)
        with FleetThread(config) as fleet:
            client = ServeClient(fleet.address)
            try:
                pending = [payload(f"h{i}",
                                   f"u64 h{i}(u8* ctx) {{ "
                                   f"return {i} + 77; }}")
                           for i in range(6)]
                ids = [client.send(p) for p in pending]
                # the SIGTERM-handler path: stop arrives from outside
                # the protocol while the client holds its socket open
                fleet.router.request_stop(drain=True)
                responses = [client.recv() for _ in ids]
                assert [r["id"] for r in responses] == ids
                assert all(r["ok"] for r in responses), responses
                # the fleet must close the connection out from under
                # us (EOF), not wait for us to hang up first
                assert client._rfile.readline() == b""
            finally:
                client.close()
            fleet._thread.join(timeout=60)
            assert not fleet._thread.is_alive()
            # stop() captured the full fleet view before shard teardown
            snapshot = fleet.router.final_snapshot
            assert snapshot is not None
            assert snapshot["fleet"]["shards"] == 2
            assert [s["alive"] for s in snapshot["shards"]] == [True, True]


# ===================================== cross-shard cache contention (S2)
class TestCrossShardContention:
    def test_ttl_eviction_races_never_tear_entries(self):
        """Two shard daemons sweep one cache tree on a tight TTL while
        clients keep re-requesting: no torn entries, no read errors,
        and the warm-hit ratio recovers once traffic re-stores the
        expired keys."""
        config = FleetConfig(shards=2, max_batch=8, cache_ttl=0.3,
                             sweep_interval=0.1)
        with FleetThread(config) as fleet:
            with ServeClient(fleet.address) as client:
                batch = [payload(name, source)
                         for name, source in SOURCES]
                for _round in range(3):
                    responses = client.compile_pipelined(batch * 2)
                    assert all(r["ok"] for r in responses)
                    time.sleep(0.45)  # let the TTL + sweeps bite
                # immediately repeat twice: the first re-stores, the
                # second must be served warm again
                responses = client.compile_pipelined(batch)
                assert all(r["ok"] for r in responses)
                warm = client.compile_pipelined(batch)
                assert all(r["ok"] for r in warm)
                assert all(r["result"]["cached"] for r in warm)
                snapshot = client.stats()
                assert snapshot["fleet"]["cache"]["read_errors"] == 0
                assert snapshot["fleet"]["cache"]["expired"] > 0
            scan = scan_cache_tree(config.cache_dir)
            assert scan["torn"] == 0
