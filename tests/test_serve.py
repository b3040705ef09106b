"""Tests for the optimization-as-a-service daemon (repro.serve).

Covers the wire protocol (parse/encode/error codes), the daemon's
request/response semantics — most importantly that pipelined results
are identical to sequential one-at-a-time compiles, and that a miss is
answered the moment it compiles, one miss per free worker — response
ordering under pipelining and concurrency, error-response shapes, and
clean shutdown with in-flight requests drained.
"""

import asyncio
import gc
import json
import os
import pickle
import threading
import time
import warnings
from types import SimpleNamespace

import pytest

from repro.frontend import compile_source
from repro.core import MerlinPipeline
from repro.isa import ProgramType, disassemble
from repro.serve import (
    DaemonThread,
    ServeClient,
    ServeConfig,
    ServeError,
    protocol,
)
from repro.serve.protocol import ProtocolError, parse_request

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


def payload(name, source, **extra):
    out = {"op": "compile", "name": name, "source": source, "entry": name,
           "prog_type": "tracepoint", "ctx_size": 64}
    out.update(extra)
    return out


def reference_compile(name, source, mcpu="v2", ctx_size=64):
    """What the daemon must return: a direct in-process compile."""
    module = compile_source(source, name)
    return MerlinPipeline().compile(
        module.get(name), module, prog_type=ProgramType.TRACEPOINT,
        mcpu=mcpu, ctx_size=ctx_size)


@pytest.fixture(scope="module")
def daemon():
    config = ServeConfig()
    with DaemonThread(config) as handle:
        yield handle


@pytest.fixture
def client(daemon):
    handle = ServeClient(daemon.address)
    yield handle
    handle.close()


# ==================================================== protocol (no I/O)
class TestProtocol:
    def test_roundtrip_all_fields(self):
        line = protocol.encode({
            "id": 7, "op": "compile", "name": "p", "source": "u64 f...",
            "entry": "f", "prog_type": "xdp", "mcpu": "v3",
            "ctx_size": 128, "kernel": "5.19",
            "passes": ["cc", "po"], "validate": "report",
            "asm": True})
        request = parse_request(line)
        assert request.id == 7
        assert request.name == "p"
        assert request.entry == "f"
        assert request.prog_type is ProgramType.XDP
        assert request.mcpu == "v3"
        assert request.ctx_size == 128
        assert request.kernel == "5.19"
        assert request.passes == frozenset({"cc", "po"})
        assert request.validate == "report"
        assert request.asm is True

    def test_defaults(self):
        request = parse_request(b'{"op": "compile", "source": "x"}')
        assert request.id is None
        assert request.name == "anon"
        assert request.mcpu == "v2"
        assert request.validate is False
        assert request.passes is None

    def test_validate_op_defaults_to_report(self):
        request = parse_request(b'{"op": "validate", "source": "x"}')
        assert request.validate == "report"

    def test_control_ops_need_no_source(self):
        for op in ("ping", "stats", "shutdown"):
            assert parse_request(f'{{"op": "{op}"}}'.encode()).op == op

    @pytest.mark.parametrize("line", [
        b"not json at all",
        b"[1, 2, 3]",
        b"\xff\xfe bad utf8",
        b'{"op": "compile", "source": ',
    ])
    def test_bad_json(self, line):
        with pytest.raises(ProtocolError) as info:
            parse_request(line)
        assert info.value.code == "bad-json"

    @pytest.mark.parametrize("obj", [
        {"source": "x"},                                    # missing op
        {"op": "compile"},                                  # missing source
        {"op": "compile", "source": "   "},                 # blank source
        {"op": "compile", "source": "x", "mcpu": "v9"},
        {"op": "compile", "source": "x", "prog_type": "nope"},
        {"op": "compile", "source": "x", "ctx_size": -1},
        {"op": "compile", "source": "x", "ctx_size": True},
        {"op": "compile", "source": "x", "kernel": "2.4"},
        {"op": "compile", "source": "x", "passes": "all"},
        {"op": "compile", "source": "x", "passes": ["bogus_pass"]},
        {"op": "compile", "source": "x", "validate": "maybe"},
        {"op": "compile", "source": "x", "asm": "yes"},
        {"op": "compile", "source": "x", "name": 3},
    ])
    def test_bad_request(self, obj):
        with pytest.raises(ProtocolError) as info:
            parse_request(protocol.encode(obj))
        assert info.value.code == "bad-request"

    def test_unknown_op(self):
        with pytest.raises(ProtocolError) as info:
            parse_request(b'{"op": "transmogrify"}')
        assert info.value.code == "unknown-op"

    def test_oversized_source(self):
        big = "x" * (protocol.MAX_SOURCE_BYTES + 1)
        with pytest.raises(ProtocolError) as info:
            parse_request(protocol.encode({"op": "compile", "source": big}))
        assert info.value.code == "oversized"

    def test_error_id_preserved(self):
        with pytest.raises(ProtocolError) as info:
            parse_request(b'{"id": 42, "op": "compile"}')
        assert info.value.request_id == 42
        response = protocol.error_from(info.value)
        assert response == {"id": 42, "ok": False,
                            "error": {"code": "bad-request",
                                      "message": info.value.message}}

    def test_config_key_groups_pipeline_config(self):
        base = parse_request(protocol.encode(
            {"op": "compile", "source": "x"}))
        same = parse_request(protocol.encode(
            {"op": "compile", "source": "y", "mcpu": "v3",
             "ctx_size": 32}))
        assert base.config_key == same.config_key  # mcpu/ctx don't split
        other_kernel = parse_request(protocol.encode(
            {"op": "compile", "source": "x", "kernel": "4.15"}))
        assert other_kernel.config_key != base.config_key
        report = parse_request(protocol.encode(
            {"op": "compile", "source": "x", "validate": "report"}))
        strict = parse_request(protocol.encode(
            {"op": "compile", "source": "x", "validate": True}))
        # True and "report" have different failure semantics: never
        # compile them on one pipeline
        assert report.config_key != strict.config_key


# ================================================== daemon round trips
class TestRoundTrip:
    def test_ping(self, client):
        response = client.ping()
        assert response["ok"] is True
        assert response["result"]["pong"] is True
        assert response["result"]["protocol_version"] == \
            protocol.PROTOCOL_VERSION

    def test_compile_matches_local_pipeline(self, client):
        name, source = SOURCES[0]
        program, report = reference_compile(name, source)
        response = client.compile(source, name=name, entry=name,
                                  prog_type="tracepoint", asm=True)
        assert response["ok"] is True
        result = response["result"]
        assert result["name"] == name
        assert result["ni_original"] == report.ni_original
        assert result["ni_optimized"] == report.ni_optimized
        assert result["insns"] == program.ni
        assert result["asm"] == disassemble(program.insns)

    def test_repeat_is_cached(self, client):
        name, source = SOURCES[1]
        first = client.compile(source, name=name, entry=name,
                               prog_type="tracepoint")["result"]
        second = client.compile(source, name=name, entry=name,
                                prog_type="tracepoint")["result"]
        assert second["cached"] is True
        assert second["ni_optimized"] == first["ni_optimized"]

    def test_validate_reports_certificates(self, client):
        name, source = SOURCES[2]
        response = client.compile(source, name=name, entry=name,
                                  prog_type="tracepoint",
                                  validate="report")
        certs = response["result"]["certificates"]
        assert certs["applications"] >= 1
        assert certs["certified"] is True
        assert sum(certs["by_status"].values()) == certs["applications"]

    def test_stats_endpoint_shape(self, client):
        client.ping()
        stats = client.stats()
        for section in ("requests", "connections", "queue", "batches",
                        "throughput", "latency", "cache", "config"):
            assert section in stats, section
        assert stats["requests"]["received"] >= 1
        assert stats["config"]["protocol_version"] == \
            protocol.PROTOCOL_VERSION
        assert 0.0 <= stats["cache"]["hit_rate"] <= 1.0

    def test_tcp_transport(self):
        config = ServeConfig(host="127.0.0.1", port=0)
        with DaemonThread(config) as handle:
            kind, host, port = handle.address
            assert kind == "tcp"
            with ServeClient(("tcp", host, port)) as client:
                assert client.ping()["ok"] is True


# ============================================ pipelined-request semantics
class TestBatchingSemantics:
    """Requests pipelined on one connection queue behind each other's
    compiles and still return what one-at-a-time compiles return."""

    def test_batched_equals_sequential(self):
        """The core contract: misses queued behind a compile return
        byte-identical results to one-at-a-time compiles."""
        with DaemonThread(ServeConfig()) as handle:
            with ServeClient(handle.address) as client:
                batched = client.compile_pipelined(
                    [payload(n, s, asm=True) for n, s in SOURCES])
            stats = handle.daemon.snapshot()
        assert stats["batches"]["dispatched"] == len(SOURCES)
        for (name, source), response in zip(SOURCES, batched):
            assert response["ok"], response
            program, report = reference_compile(name, source)
            result = response["result"]
            assert result["ni_original"] == report.ni_original
            assert result["ni_optimized"] == report.ni_optimized
            assert result["asm"] == disassemble(program.insns)

    def test_mixed_configs_in_one_window(self):
        """Misses with different pipeline configs queued together each
        compile on their own config's pipeline."""
        requests = [
            payload("fold", SOURCES[0][1], kernel="6.5", asm=True),
            payload("fold", SOURCES[0][1], kernel="4.15", asm=True),
            payload("mask", SOURCES[1][1], kernel="6.5", asm=True),
        ]
        with DaemonThread(ServeConfig()) as handle:
            with ServeClient(handle.address) as client:
                responses = client.compile_pipelined(requests)
        assert all(r["ok"] for r in responses)
        # 4.15 lacks bounded loops/ALU32 support: the old-kernel result
        # must come from the old-kernel pipeline, not the 6.5 one
        from repro.verifier import KERNELS

        module = compile_source(SOURCES[0][1], "fold")
        old, _ = MerlinPipeline(kernel=KERNELS["4.15"]).compile(
            module.get("fold"), module,
            prog_type=ProgramType.TRACEPOINT, ctx_size=64)
        assert responses[1]["result"]["asm"] == disassemble(old.insns)
        new, _ = reference_compile("fold", SOURCES[0][1])
        assert responses[0]["result"]["asm"] == disassemble(new.insns)

    def test_batch_stats_accounting(self):
        """One dispatch per compile: eight distinct misses are eight
        dispatches of one request each."""
        with DaemonThread(ServeConfig()) as handle:
            with ServeClient(handle.address) as client:
                client.compile_pipelined(
                    [payload(f"p{i}", SOURCES[i % len(SOURCES)][1].replace(
                        SOURCES[i % len(SOURCES)][0], f"p{i}"))
                     for i in range(8)])
            stats = handle.daemon.snapshot()
        batches = stats["batches"]
        assert batches == {"dispatched": 8, "requests": 8}
        assert stats["requests"]["compiles"] == 8
        assert stats["latency"]["count"] == 8


@pytest.fixture
def gated_compiles(monkeypatch):
    """Record every in-process compile the daemon dispatches (by job
    name) and hold the first one in flight until ``gate`` is set."""
    from repro.serve import daemon as daemon_module

    gate = threading.Event()
    names = []
    real_compile_job = daemon_module.compile_job

    def recording_compile_job(pipeline, job, *args):
        names.append(job.name)
        if len(names) == 1:
            assert gate.wait(timeout=60)
        return real_compile_job(pipeline, job, *args)

    monkeypatch.setattr(daemon_module, "compile_job",
                        recording_compile_job)
    yield SimpleNamespace(gate=gate, names=names)
    gate.set()


def wait_until(condition, timeout=30.0):
    deadline = time.monotonic() + timeout
    while not condition():
        assert time.monotonic() < deadline, "condition never held"
        time.sleep(0.005)


class TestOneCompilePerShape:
    """A request shape (``_memo_key``) compiles once while it is in
    flight: copies admitted meanwhile wait for that compile and are
    answered with its result, or with its error, each under its own
    id."""

    @staticmethod
    def pipelined(gated, requests, memoize=True):
        """Send the first of *requests*, then, while it compiles, the
        rest on the same connection, then let the compile finish;
        returns (compiled job names, answers, the daemon's stats)."""
        with DaemonThread(ServeConfig()) as handle:
            if not memoize:
                handle.daemon._memoize = lambda *args: None
            with ServeClient(handle.address) as client:
                ids = [client.send(requests[0])]
                wait_until(lambda: gated.names)
                ids += [client.send(request) for request in requests[1:]]
                wait_until(lambda: handle.daemon.stats.requests_received
                           == len(requests))
                gated.gate.set()
                answers = [client.recv() for _ in ids]
            stats = handle.daemon.stats
        return list(gated.names), answers, stats

    def test_copies_compile_once_and_answer_in_order(self, gated_compiles):
        fold, mask = payload(*SOURCES[0]), payload(*SOURCES[1])
        calls, answers, stats = self.pipelined(
            gated_compiles, [fold, fold, mask, fold])
        assert calls == ["fold", "mask"]          # one compile per shape
        assert [a["id"] for a in answers] == [1, 2, 3, 4]
        assert all(a["ok"] for a in answers), answers
        assert [a["result"]["name"] for a in answers] == \
            ["fold", "fold", "mask", "fold"]
        assert [a["result"]["cached"] for a in answers] == \
            [False, True, False, True]
        assert stats.fast_path_hits == 2
        assert stats.compiles_dispatched == 2
        assert stats.compiles_completed == 4

    def test_a_failing_first_request_fails_every_copy(self, gated_compiles):
        bad = payload("bad", "u64 bad(u8* ctx) { return nope; }")
        calls, answers, stats = self.pipelined(
            gated_compiles, [bad, payload(*SOURCES[0]), bad, bad])
        assert calls == ["bad", "fold"]
        assert [a["id"] for a in answers] == [1, 2, 3, 4]
        assert answers[1]["ok"]
        errors = [answers[i]["error"] for i in (0, 2, 3)]
        assert all(e["code"] == "compile-error" for e in errors), errors
        assert "undeclared variable" in errors[0]["message"]
        assert errors[1:] == [errors[0], errors[0]]
        assert stats.compile_errors == 3
        assert stats.fast_path_hits == 0

    def test_a_copy_is_answered_without_a_memo_entry(self, gated_compiles):
        fold = payload(*SOURCES[0])
        calls, answers, stats = self.pipelined(
            gated_compiles, [fold, fold], memoize=False)
        assert calls == ["fold"]
        assert [a["id"] for a in answers] == [1, 2]
        assert [a["result"]["cached"] for a in answers] == [False, True]
        assert stats.fast_path_hits == 1


# ======================================================= ordering
class TestOrdering:
    def test_pipelined_responses_in_arrival_order(self, daemon):
        with ServeClient(daemon.address) as client:
            payloads = []
            for i in range(12):
                name, source = SOURCES[i % len(SOURCES)]
                payloads.append(payload(name, source))
            # compile_pipelined asserts ids come back in send order
            responses = client.compile_pipelined(payloads)
        assert [r["id"] for r in responses] == \
            [i + 1 for i in range(len(payloads))]
        assert all(r["ok"] for r in responses)

    def test_order_holds_with_mixed_error_and_ok(self, daemon):
        with ServeClient(daemon.address) as client:
            ids = [
                client.send(payload(*SOURCES[0])),
                client.send({"op": "compile", "source": "u64 f( {"}),
                client.send(payload(*SOURCES[1])),
                client.send({"op": "transmogrify"}),
                client.send(payload(*SOURCES[2])),
            ]
            responses = [client.recv() for _ in ids]
        assert [r["id"] for r in responses] == ids
        assert [r["ok"] for r in responses] == \
            [True, False, True, False, True]
        assert responses[1]["error"]["code"] == "compile-error"
        assert responses[3]["error"]["code"] == "unknown-op"

    def test_concurrent_clients_each_keep_order(self, daemon):
        errors = []

        def worker(worker_id):
            try:
                with ServeClient(daemon.address) as client:
                    payloads = []
                    for i in range(6):
                        name, source = SOURCES[(worker_id + i)
                                               % len(SOURCES)]
                        payloads.append(payload(name, source))
                    responses = client.compile_pipelined(payloads)
                    assert all(r["ok"] for r in responses)
            except Exception as exc:  # pragma: no cover - diagnostic
                errors.append(f"worker {worker_id}: {exc!r}")

        threads = [threading.Thread(target=worker, args=(n,))
                   for n in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []


# ============================================= admission fast path
def _fresh(name, value):
    """A source no daemon has seen: it queues and compiles."""
    return payload(name, f"u64 {name}(u8* ctx) {{ return {value}; }}")


class TestAdmissionFastPath:
    """A repeat of a memoized request shape is answered at admission:
    it skips the queue and the executor and deserializes nothing."""

    def test_warm_repeat_skips_the_batcher(self):
        request = payload(*SOURCES[0])
        with DaemonThread(ServeConfig()) as handle:
            with ServeClient(handle.address) as client:
                client.request(request, check=True)   # compile, memoize
                before = client.stats()
                started = time.monotonic()
                response = client.request(request, check=True)
                elapsed = time.monotonic() - started
                after = client.stats()
        assert response["result"]["cached"] is True
        assert elapsed < 0.1, elapsed
        # the repeat was never dispatched
        assert after["batches"]["requests"] == before["batches"]["requests"]
        assert after["requests"]["fast_path_hits"] == \
            before["requests"]["fast_path_hits"] + 1

    def test_memory_hit_unpickles_nothing(self, monkeypatch):
        real_loads = pickle.loads
        calls = []

        def counting_loads(*args, **kwargs):
            calls.append(1)
            return real_loads(*args, **kwargs)

        request = payload(*SOURCES[1])
        with DaemonThread(ServeConfig()) as handle:
            with ServeClient(handle.address) as client:
                client.request(request, check=True)
                monkeypatch.setattr(pickle, "loads", counting_loads)
                response = client.request(request, check=True)
                monkeypatch.undo()
            snapshot = handle.daemon.snapshot()
        assert response["result"]["cached"] is True
        assert snapshot["cache"]["memory_hits"] == 1
        assert calls == []

    def test_one_hit_moves_each_counter_once(self):
        request = payload(*SOURCES[2], tenant="t1")
        with DaemonThread(ServeConfig()) as handle:
            with ServeClient(handle.address) as client:
                client.request(request, check=True)
                before = client.stats()
                client.request(request, check=True)
                after = client.stats()

        def moved(*path):
            old, new = before, after
            for part in path:
                old, new = old.get(part, 0), new.get(part, 0)
            return new - old

        assert moved("requests", "fast_path_hits") == 1
        assert moved("requests", "compiles") == 1
        assert moved("queue_wait", "count") == 1
        assert moved("fairness", "served_by_tenant", "t1") == 1
        assert moved("fairness", "served_by_priority", "0") == 1
        assert moved("cache", "hits") == 1
        assert moved("cache", "memory_hits") == 1
        assert moved("cache", "misses") == 0
        assert moved("batches", "requests") == 0
        # the hit itself waited 0 ms in the queue
        waits = [snap["queue_wait"] for snap in (before, after)]
        waited_ms = waits[1]["mean_ms"] * waits[1]["count"] \
            - waits[0]["mean_ms"] * waits[0]["count"]
        assert waited_ms < 1.0, waited_ms

    def test_hit_answers_behind_an_earlier_miss(self):
        """[new A, repeat B, new C] on one connection: B resolves at
        admission, before A compiles, and still comes back second."""
        repeat = payload(*SOURCES[3])
        with DaemonThread(ServeConfig()) as handle:
            with ServeClient(handle.address) as client:
                client.request(repeat, check=True)
                # compile_pipelined asserts ids come back in send order
                responses = client.compile_pipelined(
                    [_fresh("order_a", 1), repeat, _fresh("order_c", 2)])
        assert [r["ok"] for r in responses] == [True, True, True]
        assert [r["result"]["cached"] for r in responses] == \
            [False, True, False]

    def test_memo_is_lru(self, monkeypatch):
        """Past the memo limit the least recently *used* shape goes:
        a hit refreshes its entry."""
        from repro.serve.daemon import OptimizationDaemon

        monkeypatch.setattr(OptimizationDaemon, "_MEMO_LIMIT", 2)
        a, b, c = (payload(*SOURCES[i]) for i in range(3))
        with DaemonThread(ServeConfig()) as handle:
            with ServeClient(handle.address) as client:
                for request in (a, b, a, c):   # compile A, B; hit A; C
                    client.request(request, check=True)
                hits = client.stats()["requests"]["fast_path_hits"]
                assert client.request(a, check=True)["result"]["cached"]
                assert client.stats()["requests"]["fast_path_hits"] \
                    == hits + 1

    def test_memoized_answer_equals_the_cached_compile(self):
        """The memoized answer is the bytes a cache-hit compile of the
        same request returns (the dispatcher's path)."""
        request = payload(*SOURCES[0], asm=True, validate="report")
        with DaemonThread(ServeConfig()) as handle:
            with ServeClient(handle.address) as client:
                client.request(request, check=True)
                fast = client.request(request, check=True)["result"]
                handle.daemon._source_keys.clear()   # forget the memo
                batched = client.request(request, check=True)["result"]
        assert fast == batched
        assert fast["cached"] is True


# ================================================== error shapes (wire)
class TestErrorResponses:
    def test_malformed_line_gets_bad_json_with_null_id(self, client):
        client.send_raw(b"this is not json\n")
        response = client.recv()
        assert response["ok"] is False
        assert response["id"] is None
        assert response["error"]["code"] == "bad-json"
        assert isinstance(response["error"]["message"], str)
        # the connection survives per-request protocol errors
        assert client.ping()["ok"] is True

    def test_oversized_source_is_rejected_per_request(self, client):
        big = ("u64 f(u8* ctx) { return 1; } //"
               + "x" * protocol.MAX_SOURCE_BYTES)
        response = client.compile(big, check=False)
        assert response["ok"] is False
        assert response["error"]["code"] == "oversized"
        assert response["id"] is not None
        assert client.ping()["ok"] is True

    def test_compile_error_shape(self, client):
        response = client.compile("u64 broken(u8* ctx) { return x; }",
                                  name="broken", check=False)
        assert response["ok"] is False
        assert response["error"]["code"] == "compile-error"
        assert response["error"]["message"]

    def test_check_raises_serve_error(self, client):
        with pytest.raises(ServeError) as info:
            client.compile("u64 broken(u8* ctx) { return x; }", check=True)
        assert info.value.code == "compile-error"

    def test_bad_request_shape(self, client):
        response = client.request(
            {"op": "compile", "source": "u64 f(u8* ctx) { return 1; }",
             "mcpu": "v9"})
        assert response["error"]["code"] == "bad-request"
        assert "mcpu" in response["error"]["message"]

    def test_error_codes_are_in_contract(self, client):
        probes = [
            ({"op": "nope"}, "unknown-op"),
            ({"op": "compile"}, "bad-request"),
        ]
        for request, expected in probes:
            response = client.request(request)
            assert response["error"]["code"] == expected
            assert response["error"]["code"] in protocol.ERROR_CODES


# ================================================== shutdown semantics
class TestShutdown:
    def test_drain_answers_in_flight_requests(self):
        """Requests already admitted when stop(drain=True) lands must
        all be answered before the daemon exits."""
        config = ServeConfig()
        handle = DaemonThread(config).start()
        try:
            client = ServeClient(handle.address)
            payloads = []
            for i in range(6):
                name, source = SOURCES[i % len(SOURCES)]
                payloads.append(payload(name, source))
            ids = [client.send(p) for p in payloads]
            handle.stop(drain=True)          # races the compiles in flight
            responses = [client.recv() for _ in ids]
            client.close()
        finally:
            handle.stop()
        assert [r["id"] for r in responses] == ids
        # every response is either a real result or an explicit
        # shutting-down rejection -- never silently dropped
        codes = [r["error"]["code"] for r in responses if not r["ok"]]
        assert all(c == "shutting-down" for c in codes)
        assert any(r["ok"] for r in responses)

    def test_drain_completes_with_held_connection(self):
        """Regression: a client that keeps its connection open after
        the drain must not wedge shutdown.  From Python 3.12,
        ``Server.wait_closed`` also waits for every accepted transport
        to detach, so awaiting it before connection teardown deadlocks
        against exactly this client."""
        config = ServeConfig()
        handle = DaemonThread(config).start()
        client = ServeClient(handle.address)
        try:
            ids = [client.send(payload(*SOURCES[i % len(SOURCES)]))
                   for i in range(6)]
            # the SIGTERM-handler path: stop arrives from outside the
            # protocol while the client holds its socket open
            handle.daemon.request_stop(drain=True)
            responses = [client.recv() for _ in ids]
            assert [r["id"] for r in responses] == ids
            assert all(r["ok"] for r in responses), responses
            # the daemon must close the connection out from under us
            # (EOF), not wait for us to hang up first
            assert client._rfile.readline() == b""
        finally:
            client.close()
            handle.stop()
        assert not handle._thread.is_alive()

    def test_drain_shutdown_drops_nothing(self):
        """Every request sent before a ``shutdown`` op is answered ok,
        in order, before the shutdown ack."""
        handle = DaemonThread(ServeConfig()).start()
        try:
            with ServeClient(handle.address) as client:
                ids = [client.send(payload(
                           f"d{i}", f"u64 d{i}(u8* ctx) {{ "
                                    f"return {i} * 31; }}"))
                       for i in range(10)]
                shutdown_id = client.send({"op": "shutdown"})
                responses = [client.recv() for _ in ids]
                ack = client.recv()
            assert [r["id"] for r in responses] == ids
            assert all(r["ok"] for r in responses), responses
            assert ack["id"] == shutdown_id and ack["ok"]
            handle._thread.join(timeout=60)
            assert not handle._thread.is_alive()
        finally:
            handle.stop()

    def test_shutdown_op_acks_then_stops(self):
        config = ServeConfig()
        handle = DaemonThread(config).start()
        client = ServeClient(handle.address)
        ack = client.shutdown()
        assert ack["result"] == {"stopping": True}
        handle._thread.join(timeout=30)
        assert not handle._thread.is_alive()
        client.close()

    def test_socket_is_removed_after_stop(self):
        config = ServeConfig()
        handle = DaemonThread(config).start()
        kind, path = handle.address
        assert kind == "unix"
        handle.stop()
        assert not os.path.exists(path)

    def test_default_socket_directory_is_removed(self, tmp_path,
                                                 monkeypatch):
        """Building a config with neither a socket path nor a host, or
        a daemon, creates nothing; the daemon makes its temp
        directories (the socket's and, with ``jobs > 1``, the workers'
        cache tree) in ``start()`` and removes them in ``stop()``."""
        import tempfile

        from repro.serve.daemon import OptimizationDaemon

        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        config = ServeConfig(jobs=2)
        OptimizationDaemon(config)
        assert list(tmp_path.iterdir()) == []
        handle = DaemonThread(config).start()
        kind, path = handle.address
        assert kind == "unix"
        assert os.path.dirname(os.path.dirname(path)) == str(tmp_path)
        assert len(list(tmp_path.iterdir())) == 2
        handle.stop()
        assert list(tmp_path.iterdir()) == []

    def test_new_connections_refused_after_stop(self):
        config = ServeConfig()
        handle = DaemonThread(config).start()
        handle.stop()
        with pytest.raises((ConnectionError, FileNotFoundError, OSError)):
            ServeClient(handle.address)

    def test_failed_connect_closes_its_socket(self, tmp_path):
        missing = str(tmp_path / "missing.sock")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            with pytest.raises(OSError):
                ServeClient(missing)
            gc.collect()
        assert not [w for w in caught
                    if issubclass(w.category, ResourceWarning)]

    def test_stop_is_idempotent(self):
        handle = DaemonThread(ServeConfig()).start()
        handle.stop()
        handle.stop()  # second call is a no-op, not an error


# =============================================== multi-process workers
class TestWorkerPool:
    def test_jobs_pool_matches_sequential(self):
        seq_cfg = ServeConfig()
        par_cfg = ServeConfig(jobs=2)
        requests = [payload(n, s, asm=True) for n, s in SOURCES]
        with DaemonThread(seq_cfg) as handle:
            with ServeClient(handle.address) as client:
                seq = client.compile_pipelined(requests)
        with DaemonThread(par_cfg) as handle:
            with ServeClient(handle.address) as client:
                par = client.compile_pipelined(requests)
            assert handle.daemon.cache.directory is not None
        for a, b in zip(seq, par):
            assert a["ok"] and b["ok"]
            assert a["result"]["asm"] == b["result"]["asm"]
            assert a["result"]["ni_optimized"] == b["result"]["ni_optimized"]

    def test_workers_answer_before_the_socket_binds(self, monkeypatch):
        """``start()`` returns only once each of the ``jobs`` workers
        has answered a call, so no client pays a worker's spawn and
        import."""
        import multiprocessing

        from repro.serve.daemon import OptimizationDaemon

        answered = []
        real_start_workers = OptimizationDaemon._start_workers

        async def recording_start_workers(daemon):
            answered.append(await real_start_workers(daemon))
            return answered[-1]

        monkeypatch.setattr(OptimizationDaemon, "_start_workers",
                            recording_start_workers)
        with DaemonThread(ServeConfig(jobs=2)) as handle:
            live = {child.pid for child in multiprocessing.active_children()}
            assert handle.address is not None
        assert len(answered) == 1
        assert len(answered[0]) == 2 and answered[0] <= live


# ======================================= profile-guided layout (pgo)
class TestPgoRequests:
    """The ``pgo`` request field: parsing, per-request layout results,
    and memoization separation from plain compiles."""

    def test_parse_pgo_true_gives_default_spec(self):
        from repro.core.bytecode_passes.layout import PgoSpec
        request = parse_request(
            b'{"op": "compile", "source": "x", "pgo": true}')
        assert request.pgo == PgoSpec()

    def test_parse_pgo_dict(self):
        request = parse_request(protocol.encode(
            {"op": "compile", "source": "x",
             "pgo": {"tests": 3, "seed": 9}}))
        assert request.pgo.tests == 3
        assert request.pgo.seed == 9
        assert request.pgo.runs == 1  # defaults fill in

    def test_parse_pgo_absent_or_false_is_off(self):
        assert parse_request(
            b'{"op": "compile", "source": "x"}').pgo is None
        assert parse_request(
            b'{"op": "compile", "source": "x", "pgo": false}').pgo is None

    @pytest.mark.parametrize("pgo", [
        "yes",                       # not a bool/dict
        3,                           # not a bool/dict
        {"tests": -1},               # negative
        {"tests": True},             # bool masquerading as int
        {"bogus": 1},                # unknown key
        {"seed": "7"},               # wrong type
    ])
    def test_bad_pgo_rejected(self, pgo):
        obj = {"op": "compile", "source": "x", "pgo": pgo}
        with pytest.raises(ProtocolError) as info:
            parse_request(protocol.encode(obj))
        assert info.value.code == "bad-request"

    def test_pgo_compile_reports_layout(self, client):
        from repro.core.bytecode_passes.layout import PgoSpec
        name, source = SOURCES[2]  # branchy
        response = client.compile(source, name=name, entry=name,
                                  prog_type="tracepoint", pgo=True)
        result = response["result"]
        assert "layout" in result
        assert result["layout"]["spec"] == PgoSpec().fingerprint()
        assert result["layout"]["profiled_runs"] >= 1

    def test_pgo_and_plain_memoize_separately(self):
        config = ServeConfig()
        with DaemonThread(config) as handle:
            with ServeClient(handle.address) as client:
                name, source = SOURCES[2]
                plain = client.compile(source, name=name, entry=name,
                                       prog_type="tracepoint")["result"]
                pgo = client.compile(source, name=name, entry=name,
                                     prog_type="tracepoint",
                                     pgo=True)["result"]
        assert "layout" not in plain
        assert pgo["cached"] is False  # its own cache entry
        assert "layout" in pgo


# ================================= poisoned pipelined misses (drain)
class TestPoisonedBatch:
    """One failing request among pipelined misses must produce a
    per-request error while its siblings compile, respond in order,
    and never stall the drain."""

    BAD_SOURCE = "u64 boom(u8* ctx) { return undefined_symbol; }"

    def test_siblings_survive_in_order_and_daemon_drains(self):
        config = ServeConfig()
        with DaemonThread(config) as handle:
            with ServeClient(handle.address) as client:
                requests = [payload(*SOURCES[0]),
                            payload("boom", self.BAD_SOURCE),
                            payload(*SOURCES[1]),
                            payload(*SOURCES[3])]
                # sent before any response is read
                responses = client.compile_pipelined(requests)
                stats = client.stats()
            # context exit runs stop(drain=True): a wedged compile
            # would hang right here
        assert [r["ok"] for r in responses] == [True, False, True, True]
        assert responses[1]["error"]["code"] == "compile-error"
        assert "undefined" in responses[1]["error"]["message"]
        # the siblings really compiled (identical to a local pipeline)
        for index, (name, source) in ((0, SOURCES[0]), (2, SOURCES[1]),
                                      (3, SOURCES[3])):
            program, report = reference_compile(name, source)
            assert responses[index]["result"]["ni_optimized"] == \
                report.ni_optimized
        assert stats["requests"]["compile_errors"] == 1
        assert stats["requests"]["compiles"] == 3
        # all four were dispatched to the executor, not a bypass
        assert stats["batches"]["requests"] == 4

    def test_all_poisoned_batch_still_drains(self):
        config = ServeConfig()
        with DaemonThread(config) as handle:
            with ServeClient(handle.address) as client:
                responses = client.compile_pipelined(
                    [payload(f"boom{i}",
                             self.BAD_SOURCE.replace("boom", f"boom{i}"))
                     for i in range(3)])
        assert all(not r["ok"] for r in responses)
        assert all(r["error"]["code"] == "compile-error"
                   for r in responses)


# ================================================== superopt requests
class TestSuperoptRequests:
    """The ``superopt`` request field: parsing, the shared pipeline,
    the per-request result block, memoization separation, and drain
    behaviour with poisoned superopt jobs."""

    def test_parse_superopt_true_gives_default_spec(self):
        from repro.core.superopt import SuperoptSpec
        request = parse_request(
            b'{"op": "compile", "source": "x", "superopt": true}')
        assert request.superopt == SuperoptSpec()

    def test_parse_superopt_dict(self):
        request = parse_request(protocol.encode(
            {"op": "compile", "source": "x",
             "superopt": {"window": 3, "iterations": 8}}))
        assert request.superopt.window == 3
        assert request.superopt.iterations == 8
        assert request.superopt.seed == 2024  # defaults fill in

    def test_parse_superopt_absent_or_false_is_off(self):
        assert parse_request(
            b'{"op": "compile", "source": "x"}').superopt is None
        assert parse_request(
            b'{"op": "compile", "source": "x", "superopt": false}'
        ).superopt is None

    @pytest.mark.parametrize("superopt", [
        "yes",                       # not a bool/dict
        3,                           # not a bool/dict
        {"iterations": -1},          # negative
        {"window": True},            # bool masquerading as int
        {"bogus": 1},                # unknown key
        {"seed": "7"},               # wrong type
    ])
    def test_bad_superopt_rejected(self, superopt):
        obj = {"op": "compile", "source": "x", "superopt": superopt}
        with pytest.raises(ProtocolError) as info:
            parse_request(protocol.encode(obj))
        assert info.value.code == "bad-request"

    def test_superopt_does_not_split_admission_groups(self):
        """The spec rides on the CompileJob, so requests with different
        superopt settings compile on one pipeline."""
        plain = parse_request(protocol.encode(
            {"op": "compile", "source": "x"}))
        tuned = parse_request(protocol.encode(
            {"op": "compile", "source": "x", "superopt": True}))
        assert plain.config_key == tuned.config_key
        assert tuned.superopt is not None

    def test_superopt_compile_reports_counters(self, client):
        from repro.core.superopt import SuperoptSpec
        name, source = SOURCES[0]  # fold: constant math to collapse
        response = client.compile(source, name=name, entry=name,
                                  prog_type="tracepoint", superopt=True)
        result = response["result"]
        assert "superopt" in result
        assert result["superopt"]["spec"] == SuperoptSpec().fingerprint()
        assert result["superopt"]["searches"] >= 0
        assert result["superopt"]["rewrites"] >= 0

    def test_superopt_and_plain_memoize_separately(self):
        config = ServeConfig()
        with DaemonThread(config) as handle:
            with ServeClient(handle.address) as client:
                name, source = SOURCES[0]
                plain = client.compile(source, name=name, entry=name,
                                       prog_type="tracepoint")["result"]
                tuned = client.compile(source, name=name, entry=name,
                                       prog_type="tracepoint",
                                       superopt=True)["result"]
        assert "superopt" not in plain
        assert tuned["cached"] is False  # its own cache entry
        assert "superopt" in tuned
        assert tuned["ni_optimized"] <= plain["ni_optimized"]

    def test_mixed_superopt_batch_matches_sequential(self):
        """Pipelined misses mixing superopt-on and -off jobs must
        return exactly what one-at-a-time compiles return."""
        sequential = {}
        config = ServeConfig()
        with DaemonThread(config) as handle:
            with ServeClient(handle.address) as client:
                for name, source in SOURCES[:3]:
                    for superopt in (False, True):
                        response = client.compile(
                            source, name=name, entry=name,
                            prog_type="tracepoint", superopt=superopt)
                        sequential[(name, superopt)] = response["result"]
        config = ServeConfig()
        with DaemonThread(config) as handle:
            with ServeClient(handle.address) as client:
                requests = [payload(name, source, superopt=superopt)
                            for name, source in SOURCES[:3]
                            for superopt in (False, True)]
                responses = client.compile_pipelined(requests)
        for request, response in zip(requests, responses):
            assert response["ok"], response
            want = sequential[(request["name"], request["superopt"])]
            got = response["result"]
            assert got["ni_optimized"] == want["ni_optimized"]
            assert got.get("superopt", {}).get("rewrites") == \
                want.get("superopt", {}).get("rewrites")

    def test_poisoned_superopt_batch_drains(self):
        """A failing superopt job among pipelined misses errors per
        request while superopt siblings compile — and the daemon still
        drains (no wedged compile)."""
        bad = "u64 boom(u8* ctx) { return undefined_symbol; }"
        config = ServeConfig()
        with DaemonThread(config) as handle:
            with ServeClient(handle.address) as client:
                requests = [payload(*SOURCES[0], superopt=True),
                            payload("boom", bad, superopt=True),
                            payload(*SOURCES[1], superopt=True)]
                responses = client.compile_pipelined(requests)
            # context exit runs stop(drain=True): a wedged superopt
            # compile would hang right here
        assert [r["ok"] for r in responses] == [True, False, True]
        assert responses[1]["error"]["code"] == "compile-error"
        for index in (0, 2):
            assert "superopt" in responses[index]["result"]


# ======================================== tenants + priorities (PR 10)
class TestTenantPriorityProtocol:
    def test_defaults(self):
        request = parse_request(protocol.encode(payload(*SOURCES[0])))
        assert request.tenant == ""
        assert request.priority == 0

    def test_explicit_values_parse(self):
        request = parse_request(protocol.encode(
            payload(*SOURCES[0], tenant="team-a", priority=7)))
        assert request.tenant == "team-a"
        assert request.priority == 7

    @pytest.mark.parametrize("extra", [
        {"tenant": 42},
        {"tenant": "x" * (protocol.MAX_TENANT_CHARS + 1)},
        {"priority": -1},
        {"priority": protocol.MAX_PRIORITY + 1},
        {"priority": "high"},
        {"priority": True},
    ], ids=["tenant-type", "tenant-length", "prio-negative",
            "prio-too-high", "prio-type", "prio-bool"])
    def test_bad_values_rejected(self, extra):
        with pytest.raises(ProtocolError) as err:
            parse_request(protocol.encode(payload(*SOURCES[0], **extra)))
        assert err.value.code == "bad-request"

    def test_excluded_from_config_key(self):
        # tenant/priority shape scheduling, never compilation: requests
        # differing only in them must share one pipeline (and,
        # downstream, one cache entry)
        plain = parse_request(protocol.encode(payload(*SOURCES[0])))
        tagged = parse_request(protocol.encode(
            payload(*SOURCES[0], tenant="team-a", priority=9)))
        assert plain.config_key == tagged.config_key

    def test_daemon_accepts_and_counts_tenants(self):
        config = ServeConfig()
        with DaemonThread(config) as handle:
            with ServeClient(handle.address) as client:
                for tenant in ("team-a", "team-a", "team-b"):
                    response = client.request(payload(
                        *SOURCES[0], tenant=tenant, priority=2),
                        check=True)
                    assert response["ok"]
            snapshot = handle.daemon.snapshot()
        fairness = snapshot["fairness"]
        assert fairness["served_by_tenant"]["team-a"] == 2
        assert fairness["served_by_tenant"]["team-b"] == 1
        assert fairness["served_by_priority"]["2"] == 3


class TestFairAdmissionQueue:
    """Unit tests for the fair priority queue (no daemon)."""

    def _drain(self, queue):
        import asyncio

        out = []
        while True:
            try:
                out.append(queue.get_nowait())
            except asyncio.QueueEmpty:
                return out

    def test_higher_priority_drains_first(self):
        from repro.serve.fairness import FairAdmissionQueue

        queue = FairAdmissionQueue()
        queue.put_nowait("low-1", priority=0)
        queue.put_nowait("high", priority=9)
        queue.put_nowait("low-2", priority=0)
        queue.put_nowait("mid", priority=4)
        assert self._drain(queue) == ["high", "mid", "low-1", "low-2"]

    def test_round_robin_across_backlogged_tenants(self):
        from repro.serve.fairness import FairAdmissionQueue

        queue = FairAdmissionQueue()
        for i in range(6):
            queue.put_nowait(f"a{i}", tenant="a")
        queue.put_nowait("b0", tenant="b")
        queue.put_nowait("c0", tenant="c")
        order = self._drain(queue)
        # the light tenants are served within the first round — a
        # six-deep backlog cannot starve them
        assert order.index("b0") <= 2
        assert order.index("c0") <= 2
        assert order[-4:] == ["a2", "a3", "a4", "a5"]

    def test_fifo_within_one_tenant(self):
        from repro.serve.fairness import FairAdmissionQueue

        queue = FairAdmissionQueue()
        for i in range(5):
            queue.put_nowait(i, tenant="t")
        assert self._drain(queue) == [0, 1, 2, 3, 4]

    def test_control_items_bypass_everything(self):
        from repro.serve.fairness import FairAdmissionQueue

        queue = FairAdmissionQueue(maxsize=1)
        queue.put_nowait("request", priority=9)
        queue.put_control("stop")        # exempt from maxsize too
        assert queue.qsize() == 2
        assert queue.get_nowait() == "stop"
        assert queue.get_nowait() == "request"

    def test_overflow_raises_queue_full(self):
        import asyncio

        from repro.serve.fairness import FairAdmissionQueue

        queue = FairAdmissionQueue(maxsize=2)
        queue.put_nowait(1)
        queue.put_nowait(2)
        with pytest.raises(asyncio.QueueFull):
            queue.put_nowait(3)

    def test_async_get_wakes_on_put(self):
        import asyncio

        from repro.serve.fairness import FairAdmissionQueue

        async def scenario():
            queue = FairAdmissionQueue()
            getter = asyncio.ensure_future(queue.get())
            await asyncio.sleep(0)       # getter parks on a waiter
            queue.put_nowait("item", priority=3, tenant="t")
            return await asyncio.wait_for(getter, timeout=5)

        assert asyncio.run(scenario()) == "item"


# ============================================ work-conserving dispatcher
def _miss(name, priority=0, tenant=""):
    """A stand-in for an admitted ``_Pending``: the dispatch loop reads
    its wait and hands it to ``_compile`` as is."""
    return SimpleNamespace(name=name, enqueued=time.monotonic(),
                           request=SimpleNamespace(priority=priority,
                                                   tenant=tenant))


class TestWorkConservingBatcher:
    """``_dispatch_loop`` driven directly, ``_compile`` replaced by a
    recorder that holds each compile until the scenario finishes one:
    which misses go out when, counted in event-loop ticks rather than
    wall-clock time."""

    TICKS = 5

    @staticmethod
    def _daemon(tmp_path, **config):
        from repro.serve.daemon import OptimizationDaemon

        daemon = OptimizationDaemon(ServeConfig(
            socket_path=str(tmp_path / "unused.sock"), **config))
        # every stand-in is a new shape: nothing is memoized or in flight
        daemon._fast_path = daemon._join = lambda pending: False
        return daemon

    @staticmethod
    def _admit(daemon, *misses):
        for miss in misses:
            daemon._queue.put_nowait(miss, priority=miss.request.priority,
                                     tenant=miss.request.tenant)

    async def _ticks(self):
        for _ in range(self.TICKS):
            await asyncio.sleep(0)

    def _run(self, daemon, scenario, stop=True):
        """Run ``scenario(sent, finish)`` beside the dispatch loop, each
        compile held until ``finish.release()`` lets the oldest one
        end, then queue a ``_STOP`` if *stop* and finish the rest.
        Returns the dispatched names in order and whether the loop
        ended within 5 s."""
        from repro.serve.daemon import _STOP

        async def main():
            daemon._loop = asyncio.get_running_loop()  # as start() does
            sent = []
            finish = asyncio.Semaphore(0)

            async def record(memo):
                miss = daemon._compiling.pop(memo)[0]
                sent.append(miss.name)
                await finish.acquire()

            daemon._memo_key = lambda request: id(request)
            daemon._compile = record
            loop = asyncio.ensure_future(daemon._dispatch_loop())
            await scenario(sent, finish)
            if stop:
                daemon._queue.put_control(_STOP)
            for _ in range(len(sent) + 8):
                finish.release()
            await asyncio.wait([loop], timeout=5.0)
            ended = loop.done()
            loop.cancel()
            return sent, ended

        return asyncio.run(main())

    def test_lone_miss_dispatches_at_once(self, tmp_path):
        daemon = self._daemon(tmp_path)
        seen = []

        async def scenario(sent, finish):
            await asyncio.sleep(0)          # the loop parks on the queue
            self._admit(daemon, _miss("only"))
            await self._ticks()
            seen.extend(sent)

        sent, ended = self._run(daemon, scenario)
        assert seen == ["only"]
        assert sent == ["only"] and ended

    def test_backlog_goes_out_one_per_free_worker_in_fair_order(
            self, tmp_path):
        """Misses queued while every worker compiles go out one per
        finished compile: priority first, then tenants round-robin."""
        daemon = self._daemon(tmp_path, jobs=2)

        async def scenario(sent, finish):
            await asyncio.sleep(0)
            self._admit(daemon, _miss("first"), _miss("second"))
            await self._ticks()
            assert sent == ["first", "second"]   # both workers busy
            self._admit(daemon, _miss("a0", tenant="a"),
                        _miss("a1", tenant="a"), _miss("a2", tenant="a"),
                        _miss("b0", tenant="b"),
                        _miss("hi", priority=5, tenant="b"),
                        _miss("c0", tenant="c"))
            await self._ticks()
            assert sent == ["first", "second"]   # nothing overtakes them
            for expected in (["hi"], ["hi", "a0"]):
                finish.release()                 # one worker frees up
                await self._ticks()
                assert sent[2:] == expected

        sent, ended = self._run(daemon, scenario)
        assert sent == ["first", "second", "hi", "a0", "b0", "c0",
                        "a1", "a2"]
        assert ended

    def test_stop_behind_misses_dispatches_them_first(self, tmp_path):
        from repro.serve.daemon import _STOP

        daemon = self._daemon(tmp_path)
        self._admit(daemon, _miss("m0"), _miss("m1"), _miss("m2"))
        daemon._queue.put_control(_STOP)

        async def scenario(sent, finish):
            await self._ticks()

        sent, ended = self._run(daemon, scenario, stop=False)
        assert sent == ["m0", "m1", "m2"]
        assert ended

    def test_config_reports_no_linger(self, tmp_path):
        daemon = self._daemon(tmp_path)
        assert daemon.snapshot()["config"]["max_delay_ms"] == 0


# ====================================== one miss per free worker (wire)
@pytest.fixture
def gated_pool(monkeypatch):
    """Record the name of every job submitted to a worker pool, and
    hold each job named in ``held`` in flight until ``gate`` is set:
    the worker compiles it at once, but its result reaches the daemon
    only then."""
    from concurrent.futures import Future, ProcessPoolExecutor

    from repro.core import CompileJob

    gate = threading.Event()
    names, held = [], set()
    real_submit = ProcessPoolExecutor.submit

    def jobs_in(value):
        """The jobs among a call's arguments (``map`` nests them)."""
        if isinstance(value, CompileJob):
            return [value]
        if isinstance(value, (tuple, list)):
            return [job for item in value for job in jobs_in(item)]
        return []

    def submit(pool, fn, *args, **kwargs):
        inner = real_submit(pool, fn, *args, **kwargs)
        jobs = [job.name for job in jobs_in(args)]
        names.extend(jobs)
        if not held.intersection(jobs):
            return inner
        outer = Future()

        def relay():
            gate.wait(timeout=60)
            if inner.exception() is None:
                outer.set_result(inner.result())
            else:
                outer.set_exception(inner.exception())

        threading.Thread(target=relay, daemon=True).start()
        return outer

    monkeypatch.setattr(ProcessPoolExecutor, "submit", submit)
    yield SimpleNamespace(gate=gate, names=names, held=held)
    gate.set()


class TestDispatch:
    """A miss is answered the moment it compiles, with at most ``jobs``
    compiles in flight, and a copy of a shape in flight never takes a
    worker."""

    def test_a_miss_is_answered_while_another_compiles(self, gated_pool):
        """Two connections, so arrival order does not couple them."""
        gated_pool.held.add("slow")
        with DaemonThread(ServeConfig(jobs=2)) as handle:
            with ServeClient(handle.address) as first, \
                    ServeClient(handle.address, timeout=10) as second:
                slow_id = first.send(_fresh("slow", 1))
                wait_until(lambda: gated_pool.names == ["slow"])
                quick = second.request(_fresh("quick", 2))
                # answered while "slow" cannot have finished
                assert quick["ok"], quick
                assert quick["result"]["cached"] is False
                gated_pool.gate.set()
                slow = first.recv()
        assert slow["id"] == slow_id and slow["ok"], slow
        assert gated_pool.names == ["slow", "quick"]

    def test_queued_misses_are_answered_as_each_compiles(self, monkeypatch):
        """One worker: of the misses queued behind a compile, the first
        is answered before the last starts compiling."""
        from repro.serve.daemon import OptimizationDaemon

        events = []
        gate = threading.Event()
        real_compile = MerlinPipeline.compile
        real_finish = OptimizationDaemon._finish

        def logged_compile(pipeline, func, *args, **kwargs):
            events.append(("start", func.name))
            if func.name == "head":
                assert gate.wait(timeout=60)
            return real_compile(pipeline, func, *args, **kwargs)

        def logged_finish(daemon, pending, response):
            events.append(("answer", pending.request.name))
            real_finish(daemon, pending, response)

        monkeypatch.setattr(MerlinPipeline, "compile", logged_compile)
        monkeypatch.setattr(OptimizationDaemon, "_finish", logged_finish)
        queued = ["q0", "q1", "q2"]
        with DaemonThread(ServeConfig()) as handle:
            with ServeClient(handle.address) as client:
                ids = [client.send(_fresh("head", 0))]
                wait_until(lambda: ("start", "head") in events)
                ids += [client.send(_fresh(name, value))
                        for value, name in enumerate(queued, start=1)]
                wait_until(lambda: handle.daemon._queue.qsize()
                           == len(queued))
                gate.set()
                answers = [client.recv() for _ in ids]
        assert [a["id"] for a in answers] == ids
        assert all(a["ok"] for a in answers), answers
        assert events.index(("answer", "q0")) \
            < events.index(("start", "q2"))

    @pytest.mark.parametrize("source", [
        SOURCES[0][1], "u64 fold(u8* ctx) { return nope; }",
    ], ids=["ok", "compile-error"])
    def test_copies_admitted_while_compiling_share_one_compile(
            self, gated_pool, source):
        gated_pool.held.add("fold")
        request = payload("fold", source)
        with DaemonThread(ServeConfig(jobs=2)) as handle:
            with ServeClient(handle.address) as first, \
                    ServeClient(handle.address) as second:
                first.send(request)
                wait_until(lambda: gated_pool.names == ["fold"])
                copies = [second.send(request) for _ in range(2)]
                wait_until(lambda: handle.daemon.stats.requests_received
                           == 1 + len(copies))
                gated_pool.gate.set()
                answers = [first.recv()] + [second.recv() for _ in copies]
                stats = second.stats()
        assert gated_pool.names == ["fold"]       # one compile
        assert stats["batches"]["requests"] == 1
        if answers[0]["ok"]:
            assert [a["result"]["cached"] for a in answers] == \
                [False, True, True]
            assert stats["requests"]["fast_path_hits"] == 2
        else:
            errors = [a["error"] for a in answers]
            assert errors[0]["code"] == "compile-error"
            assert errors == [errors[0]] * 3

    def test_copies_in_one_read_share_one_compile(self, gated_pool):
        """Both copies are queued before the dispatch loop runs, and it
        picks the second while a worker is still free: the first must
        have claimed its shape by then."""
        line = protocol.encode(payload(*SOURCES[0]))
        with DaemonThread(ServeConfig(jobs=2)) as handle:
            with ServeClient(handle.address) as client:
                client.send_raw(line + line)
                answers = [client.recv(), client.recv()]
        assert [a["result"]["cached"] for a in answers] == [False, True]
        assert gated_pool.names == ["fold"]

    def test_a_broken_pool_answers_internal(self, monkeypatch):
        from concurrent.futures import ProcessPoolExecutor
        from concurrent.futures.process import BrokenProcessPool

        def broken(pool, fn, *args, **kwargs):
            raise BrokenProcessPool("a child process terminated abruptly")

        with DaemonThread(ServeConfig(jobs=2)) as handle:
            monkeypatch.setattr(ProcessPoolExecutor, "submit", broken)
            with ServeClient(handle.address) as client:
                response = client.request(payload(*SOURCES[0]))
            monkeypatch.undo()
        assert response["error"]["code"] == "internal", response
        assert "BrokenProcessPool" in response["error"]["message"]


# ================================================== bench-serve report
class TestBenchServeFreshLatency:
    def test_fresh_latency_counts_first_sightings(self, tmp_path):
        """``fresh_latency_ms`` covers only the answers the daemon
        compiled: with one worker, each distinct program once in the
        cold phase, and nothing in the warm replay."""
        from repro.eval.serviceperf import bench_service
        from repro.serve.loadgen import load_trace

        trace = str(tmp_path / "trace.jsonl")
        report = bench_service(requests=40, clients=2, unique=5, seed=2024,
                               jobs=1, record_path=trace)
        distinct = {event.payload["source"] for event in load_trace(trace)}
        cold, warm = report.cold.to_dict(), report.warm.to_dict()
        assert cold["ok"] == cold["requests"]
        assert cold["fresh_latency_ms"]["count"] == len(distinct)
        assert cold["fresh_latency_ms"]["p50"] > 0
        assert warm["fresh_latency_ms"]["count"] == 0
