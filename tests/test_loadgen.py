"""Tests for load generation (repro.serve.loadgen) against one daemon.

Covers trace record/replay (round trip, deterministic synthesis,
validation, byte-identical speed-0 replays, recorded timing), fault
injection answered by the daemon's error codes, and open-loop latency
measured from each request's due time.
"""

import time

import pytest

from repro.serve import DaemonThread, ServeClient, ServeConfig
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
def daemon():
    with DaemonThread(ServeConfig()) as handle:
        yield handle


# =================================================== trace record/replay
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

    def test_replay_twice_is_byte_identical(self, daemon, tmp_path):
        """Against a warm daemon, two speed-0 replays of one trace
        return byte-identical responses and identical per-tenant
        ordering."""
        events = synthesize_trace(POOL, requests=12, clients=3, seed=3,
                                  mean_gap=0.0)
        path = str(tmp_path / "det.jsonl")
        save_trace(path, events)
        events = load_trace(path)
        warmup = replay_trace(daemon.address, events, speed=0)
        assert warmup.dropped == 0 and not warmup.failures
        first = replay_trace(daemon.address, events, speed=0)
        second = replay_trace(daemon.address, events, speed=0)
        for run in (first, second):
            assert run.dropped == 0 and not run.failures
            assert run.ok == run.received == len(events)
            assert run.cached == run.received  # warm: all cache-served
        assert first.digests == second.digests
        assert first.tenant_orders == second.tenant_orders
        assert first.goodput_spread() == pytest.approx(1.0)

    def test_replay_honors_recorded_timing(self, daemon):
        # ~30ms of recorded gaps at speed 1 cannot finish instantly,
        # and speed 0 must ignore the gaps entirely
        events = [TraceEvent(t=i * 0.01, client=0,
                             payload=payload(*SOURCES[0]))
                  for i in range(4)]
        timed = replay_trace(daemon.address, events, speed=1.0)
        assert timed.wall_seconds >= 0.03
        flat = replay_trace(daemon.address, events, speed=0)
        assert flat.wall_seconds < timed.wall_seconds
        assert timed.dropped == flat.dropped == 0


# =================================================== faults and timing
class TestReplay:
    def test_faults_with_tenants_answered_by_error_code(self, daemon):
        """Protocol abuse mixed into tenant-labelled traffic: every
        fault kind comes back as the daemon's error code, nothing is
        dropped, and requests a disconnect abandoned leave the offered
        load, so every tenant's completion ratio stays 1.0."""
        events = synthesize_trace(POOL, requests=20, clients=3, seed=4,
                                  mean_gap=0.0)
        faults = FaultPlan(malformed=0.1, oversized=0.05, unknown_op=0.1,
                           disconnect=0.1)
        run = replay_trace(daemon.address, events, speed=0, depth=4,
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

    def test_replay_is_deterministic_under_faults(self, daemon):
        events = synthesize_trace(POOL, requests=12, clients=2, seed=8,
                                  mean_gap=0.0)
        faults = FaultPlan(malformed=0.1, unknown_op=0.1, disconnect=0.1)
        tallies = []
        for _ in range(2):
            run = replay_trace(daemon.address, events, speed=0, depth=4,
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
        real_compile_job = daemon_mod.compile_job

        def slow_compile_job(*args, **kwargs):
            time.sleep(delay)
            return real_compile_job(*args, **kwargs)

        monkeypatch.setattr(daemon_mod, "compile_job", slow_compile_job)
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
