"""Load generation for the serve tier: synthetic traffic, traces, replay.

Traffic starts as a pool of *unique* programs drawn from the fuzz
generators (:mod:`repro.fuzz.generator`) at a fixed seed.
:func:`synthesize_trace` turns the pool into a *trace*: per client, a
Zipf-skewed stream of pool picks — a few programs are requested over
and over (the hot tenants every service has) while the tail stays cold.
That skew is what makes the shared warm cache matter: the hot head
should hit on every repeat, so a healthy server shows a cache hit-rate
near ``1 - unique/requests`` on a long run.

A trace is a JSONL file, one request event per line::

    {"v": 1, "t": 0.0123, "client": 0, "payload": {"op": "compile", ...}}

``t`` is seconds since the start of the trace, ``client`` groups the
events that travel over one connection (ordering is only guaranteed
per connection — the protocol's arrival-order contract), and
``payload`` is the request object minus its ``id``.  Synthesize one,
load a recorded one (:func:`load_trace` validates the shape), or write
the JSONL by hand.

:func:`replay_trace` is the one client loop: every load run,
benchmark or soak, is a replayed trace.  ``speed=1``
reproduces the recorded inter-arrival timing (open loop: latency runs
from each request's due time), ``speed=2`` halves every gap,
``speed=0`` ignores timing and pipelines flat out through a window of
``depth`` requests per connection.  Replay assigns sequential ids per
client, so two replays of one trace send byte-identical request lines;
against a warm server they get byte-identical responses back, and
:class:`ReplayResult` keeps a sha256 over each client's responses so
the determinism suite can assert exactly that.

Fault injection (:class:`FaultPlan`) mixes protocol abuse into a
replay — malformed JSON lines, oversized programs, unknown ops, and
abrupt client disconnects mid-stream — so graceful-degradation paths
are exercised under load, not just in unit tests.  Fault decisions
come from a per-client seeded ``random.Random``, so a replay with
faults is as deterministic as one without.
"""

from __future__ import annotations

import hashlib
import json
import random
import threading
import time
from collections import Counter, deque
from dataclasses import dataclass, field
from typing import Deque, Dict, Iterable, List, Optional, Sequence

from ..fuzz.generator import SourceGenerator
from . import protocol
from .client import Address, ServeClient
from .metrics import percentile

TRACE_VERSION = 1


@dataclass(frozen=True)
class PoolProgram:
    """One unique program in the traffic pool."""

    name: str
    source: str
    entry: str
    ctx_size: int = 64
    prog_type: str = "tracepoint"
    mcpu: str = "v2"

    def payload(self) -> dict:
        return {"op": "compile", "name": self.name, "source": self.source,
                "entry": self.entry, "prog_type": self.prog_type,
                "mcpu": self.mcpu, "ctx_size": self.ctx_size}


@dataclass(frozen=True)
class FaultPlan:
    """Per-request fault probabilities (independent draws)."""

    malformed: float = 0.0    # send a line that is not JSON
    oversized: float = 0.0    # send a source beyond MAX_SOURCE_BYTES
    unknown_op: float = 0.0   # send a valid line with a bogus op
    disconnect: float = 0.0   # hang up mid-stream, then reconnect

    @property
    def any(self) -> bool:
        return any((self.malformed, self.oversized, self.unknown_op,
                    self.disconnect))


# ---------------------------------------------------------------- pool
def build_pool(unique: int, seed: int = 0,
               prefilter: Optional[str] = "frontend",
               ctx_size: int = 64) -> List[PoolProgram]:
    """Draw *unique* distinct mini-C programs from the fuzz source
    generator.

    ``prefilter="frontend"`` keeps only programs the frontend parses
    (cheap); ``prefilter="full"`` keeps only programs the whole
    pipeline compiles (slower, used by the benchmark harness so every
    request is expected to succeed); ``prefilter=None`` keeps
    everything — the daemon's compile-error path then sees traffic too.
    """
    pool: List[PoolProgram] = []
    attempt = 0
    while len(pool) < unique and attempt < unique * 40:
        gen_seed = seed * 1_000_003 + attempt
        attempt += 1
        case = SourceGenerator(gen_seed).generate()
        candidate = PoolProgram(
            name=f"tenant_{len(pool)}", source=case.text, entry=case.name,
            ctx_size=max(case.ctx_size, ctx_size))
        if prefilter is not None:
            try:
                from ..frontend import compile_source

                module = compile_source(case.text, candidate.name)
                if prefilter == "full":
                    from ..core.pipeline import MerlinPipeline

                    MerlinPipeline().compile(
                        module.get(case.name), module,
                        ctx_size=candidate.ctx_size)
            except Exception:
                continue
        pool.append(candidate)
    if len(pool) < unique:
        raise RuntimeError(
            f"could only generate {len(pool)}/{unique} pool programs")
    return pool


def zipf_weights(n: int, s: float = 1.1) -> List[float]:
    return [1.0 / (rank ** s) for rank in range(1, n + 1)]


def zipf_stream(rng: random.Random, n_items: int, count: int,
                s: float = 1.1) -> List[int]:
    """*count* Zipf-skewed pool indices (rank 0 is the hottest)."""
    weights = zipf_weights(n_items, s)
    return rng.choices(range(n_items), weights=weights, k=count)


# ---------------------------------------------------------------- trace
@dataclass(frozen=True)
class TraceEvent:
    """One recorded request."""

    t: float            # seconds since trace start
    client: int         # connection the request travelled on
    payload: dict       # the request object, sans ``id``

    def to_line(self) -> str:
        return json.dumps({"v": TRACE_VERSION, "t": round(self.t, 6),
                           "client": self.client,
                           "payload": self.payload},
                          separators=(",", ":"))


def save_trace(path: str, events: Sequence[TraceEvent]) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for event in events:
            handle.write(event.to_line() + "\n")


def load_trace(path: str) -> List[TraceEvent]:
    """Read and validate a trace file; events come back sorted by
    ``(client, t)`` within each client's original order."""
    events: List[TraceEvent] = []
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, 1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(
                    f"{path}:{lineno}: not JSON: {exc}") from exc
            if not isinstance(obj, dict) \
                    or not isinstance(obj.get("payload"), dict):
                raise ValueError(
                    f"{path}:{lineno}: each event needs a payload object")
            t = obj.get("t", 0.0)
            client = obj.get("client", 0)
            if not isinstance(t, (int, float)) or t < 0:
                raise ValueError(f"{path}:{lineno}: bad timestamp {t!r}")
            if not isinstance(client, int) or client < 0:
                raise ValueError(f"{path}:{lineno}: bad client {client!r}")
            events.append(TraceEvent(t=float(t), client=client,
                                     payload=obj["payload"]))
    if not events:
        raise ValueError(f"{path}: empty trace")
    return events


def synthesize_trace(pool, requests: int, clients: int = 4,
                     seed: int = 0, zipf_s: float = 1.1,
                     mean_gap: float = 0.001,
                     priority_mix: Optional[Dict[int, float]] = None,
                     tenants: bool = True) -> List[TraceEvent]:
    """A deterministic synthetic trace: *requests* events per client,
    Zipf-skewed over *pool*, exponential inter-arrival gaps with mean
    *mean_gap* seconds (0: every event due at once, the closed-loop
    stream).  ``priority_mix`` maps priority -> probability (e.g.
    ``{0: 0.9, 5: 0.1}``); ``tenants`` labels each request with its
    pool program's name."""
    priorities = sorted((priority_mix or {0: 1.0}).items())
    levels = [p for p, _ in priorities]
    weights = [w for _, w in priorities]
    events: List[TraceEvent] = []
    for client in range(clients):
        rng = random.Random(seed * 7_919 + client)
        indices = zipf_stream(rng, len(pool), requests, s=zipf_s)
        t = 0.0
        for index in indices:
            t += rng.expovariate(1.0 / mean_gap) if mean_gap > 0 else 0.0
            program = pool[index]
            payload = program.payload()
            if tenants:
                payload["tenant"] = program.name
            priority = rng.choices(levels, weights=weights, k=1)[0]
            if priority:
                payload["priority"] = priority
            events.append(TraceEvent(t=t, client=client,
                                     payload=payload))
    return events


# ---------------------------------------------------------------- replay
def _merged(counters: Iterable[Dict[str, int]]) -> Dict[str, int]:
    out: Dict[str, int] = {}
    for counter in counters:
        for key, n in counter.items():
            out[key] = out.get(key, 0) + n
    return out


@dataclass
class ReplayClientResult:
    """One replayed connection's tally."""

    client: int = 0
    sent: int = 0
    received: int = 0
    ok: int = 0
    cached: int = 0
    errors: Dict[str, int] = field(default_factory=dict)
    #: injected faults by kind
    faults: Dict[str, int] = field(default_factory=dict)
    latencies: List[float] = field(default_factory=list)
    #: (latency, cached flag) per ok response, in arrival order
    answered: List[tuple] = field(default_factory=list)
    #: open-loop replay only: seconds each send ran behind its due time
    lateness: List[float] = field(default_factory=list)
    #: sha256 over the connection's responses — two replays of one
    #: trace against a warm server must match
    digest: str = ""
    #: (tenant, ok) per response, in arrival order — the per-tenant
    #: ordering witness for the determinism suite
    tenant_order: List[tuple] = field(default_factory=list)
    #: requests sent per tenant label (the offered load)
    tenant_sent: Dict[str, int] = field(default_factory=dict)
    failure: Optional[str] = None


@dataclass
class ReplayResult:
    """The merged outcome of one replay."""

    clients: List[ReplayClientResult] = field(default_factory=list)
    wall_seconds: float = 0.0
    speed: float = 0.0

    @property
    def sent(self) -> int:
        return sum(c.sent for c in self.clients)

    @property
    def received(self) -> int:
        return sum(c.received for c in self.clients)

    @property
    def ok(self) -> int:
        return sum(c.ok for c in self.clients)

    @property
    def cached(self) -> int:
        return sum(c.cached for c in self.clients)

    @property
    def dropped(self) -> int:
        """Requests that were fully sent and awaited but never got a
        response (must be zero for a healthy server)."""
        return self.sent - self.received

    @property
    def errors(self) -> Dict[str, int]:
        return _merged(c.errors for c in self.clients)

    @property
    def faults(self) -> Dict[str, int]:
        return _merged(c.faults for c in self.clients)

    @property
    def latencies(self) -> List[float]:
        return [x for c in self.clients for x in c.latencies]

    @property
    def failures(self) -> List[str]:
        return [c.failure for c in self.clients if c.failure]

    @property
    def digests(self) -> Dict[int, str]:
        return {c.client: c.digest for c in self.clients}

    @property
    def tenant_orders(self) -> Dict[int, List[tuple]]:
        return {c.client: c.tenant_order for c in self.clients}

    @property
    def requests_per_second(self) -> float:
        if self.wall_seconds <= 0:
            return 0.0
        return self.received / self.wall_seconds

    @property
    def tenant_goodput(self) -> Dict[str, int]:
        """Successful responses per tenant label."""
        return dict(Counter(tenant for c in self.clients
                            for tenant, okay in c.tenant_order
                            if okay and tenant))

    @property
    def tenant_offered(self) -> Dict[str, int]:
        """Requests sent and awaited per tenant label."""
        merged = _merged(c.tenant_sent for c in self.clients)
        return {tenant: n for tenant, n in merged.items() if n}

    def goodput_spread(self) -> float:
        """max/min of per-tenant *completion ratio* (goodput divided
        by offered load) — the fairness headline.  Offered arrival
        mixes are Zipf-skewed by design, so raw goodput counts differ
        wildly; what fairness guarantees is that every tenant's
        admitted share completes, i.e. this ratio spread stays ~1.0.
        Returns 0.0 when fewer than two tenants were offered load."""
        goodput = self.tenant_goodput
        ratios = [goodput.get(tenant, 0) / offered
                  for tenant, offered in self.tenant_offered.items()]
        if len(ratios) < 2 or min(ratios) == 0:
            return 0.0
        return max(ratios) / min(ratios)

    def to_dict(self) -> dict:
        lat = sorted(self.latencies)
        fresh = sorted(x for c in self.clients
                       for x, cached in c.answered if not cached)
        late = sorted(x for c in self.clients for x in c.lateness)
        goodput, offered = self.tenant_goodput, self.tenant_offered
        return {
            "clients": len(self.clients),
            "speed": self.speed,
            "sent": self.sent,
            "received": self.received,
            "ok": self.ok,
            "cached": self.cached,
            "dropped": self.dropped,
            "errors": self.errors,
            "faults": self.faults,
            "wall_seconds": round(self.wall_seconds, 3),
            "requests_per_second": round(self.requests_per_second, 2),
            "latency_ms": {
                "p50": round(percentile(lat, 50) * 1000, 3),
                "p90": round(percentile(lat, 90) * 1000, 3),
                "p99": round(percentile(lat, 99) * 1000, 3),
                "p999": round(percentile(lat, 99.9) * 1000, 3),
            },
            # first sight: the answers the server compiled
            "fresh_latency_ms": {
                "count": len(fresh),
                "p50": round(percentile(fresh, 50) * 1000, 3),
                "p99": round(percentile(fresh, 99) * 1000, 3),
            },
            "late_ms_p99": round(percentile(late, 99) * 1000, 3),
            "fairness": {
                "tenants": len(offered),
                "goodput": dict(sorted(goodput.items(),
                                       key=lambda kv: -kv[1])[:32]),
                "offered": dict(sorted(offered.items(),
                                       key=lambda kv: -kv[1])[:32]),
                # 1.0 = every tenant's offered stream completed in full
                "goodput_spread": round(self.goodput_spread(), 3),
            },
            "digests": self.digests,
        }


_MALFORMED_LINES = (
    b"this is not json\n",
    b"{\"op\": \"compile\", \"source\": \n",
    b"[1, 2, 3]\n",
    b"\xff\xfe invalid utf8 \xff\n",
)


def _replay_client(address: Address, events: Sequence[TraceEvent],
                   speed: float, depth: int, faults: FaultPlan,
                   result: ReplayClientResult) -> None:
    """One connection: send *events* through a sliding window of
    *depth* in-flight requests, tallying every response."""
    client = ServeClient(address)
    hasher = hashlib.sha256()
    rng = random.Random(result.client)   # fault draws only
    window: Deque[tuple] = deque()       # (clock start, tenant)

    def drain(target: int) -> None:
        while len(window) > target:
            started, tenant = window.popleft()
            line = client.recv_raw()
            result.received += 1
            latency = time.monotonic() - started
            result.latencies.append(latency)
            response = json.loads(line)
            hasher.update(json.dumps(response,
                                     separators=(",", ":")).encode())
            okay = bool(response.get("ok"))
            result.tenant_order.append((tenant, okay))
            if okay:
                result.ok += 1
                cached = bool(response["result"].get("cached"))
                result.cached += cached
                result.answered.append((latency, cached))
            else:
                code = response["error"]["code"]
                result.errors[code] = result.errors.get(code, 0) + 1

    def sent(due: Optional[float], tenant: str = "") -> None:
        # open loop times a request from its due time, so one held
        # back by a full window counts its wait; flat out from the send
        window.append((time.monotonic() if due is None else due, tenant))
        result.sent += 1
        if tenant:
            result.tenant_sent[tenant] = \
                result.tenant_sent.get(tenant, 0) + 1
        if len(window) >= depth:
            drain(depth - 1)

    def fault(kind: str) -> None:
        result.faults[kind] = result.faults.get(kind, 0) + 1

    start = time.monotonic()
    try:
        for seq, event in enumerate(events, 1):
            due = None
            if speed > 0:
                due = start + event.t / speed
                delay = due - time.monotonic()
                if delay > 0:
                    time.sleep(delay)
                result.lateness.append(max(0.0, time.monotonic() - due))
            if faults.any:
                if rng.random() < faults.disconnect:
                    # vanish mid-stream: the in-flight responses are
                    # intentionally lost, then come back for more
                    fault("disconnect")
                    for _started, tenant in window:  # never awaited
                        result.sent -= 1
                        if tenant:
                            result.tenant_sent[tenant] -= 1
                    window.clear()
                    client.abort()
                    client = ServeClient(address)
                if rng.random() < faults.malformed:
                    fault("malformed")
                    client.send_raw(rng.choice(_MALFORMED_LINES))
                    sent(due)
                if rng.random() < faults.oversized:
                    fault("oversized")
                    client.send({"op": "compile",
                                 "source": "u64 f(u8* ctx) { return 1; } //"
                                 + "x" * protocol.MAX_SOURCE_BYTES})
                    sent(due)
                if rng.random() < faults.unknown_op:
                    fault("unknown_op")
                    client.send({"op": "transmogrify"})
                    sent(due)
            client.send({"id": seq, **event.payload})
            sent(due, event.payload.get("tenant", ""))
        drain(0)
        result.digest = hasher.hexdigest()
    except Exception as exc:
        result.failure = f"{type(exc).__name__}: {exc}"
    finally:
        try:
            client.close()
        except Exception:
            pass


def replay_trace(address: Address, events: Sequence[TraceEvent],
                 speed: float = 1.0, depth: int = 64,
                 faults: Optional[FaultPlan] = None) -> ReplayResult:
    """Replay *events* against the daemon at *address*, one
    thread and one connection per trace client.

    ``speed`` scales the recorded inter-arrival gaps (0 = flat out);
    ``depth`` bounds per-connection pipelining; the response digest
    covers each whole response.  ``faults`` mixes protocol abuse into
    every client's stream.
    """
    if speed < 0:
        raise ValueError("speed must be >= 0")
    if depth < 1:
        raise ValueError("depth must be >= 1")
    faults = faults or FaultPlan()
    by_client: Dict[int, List[TraceEvent]] = {}
    for event in events:
        by_client.setdefault(event.client, []).append(event)
    for stream in by_client.values():
        stream.sort(key=lambda e: e.t)

    results = [ReplayClientResult(client=cid)
               for cid in sorted(by_client)]
    threads = []
    started = time.perf_counter()
    for result in results:
        thread = threading.Thread(
            target=_replay_client,
            args=(address, by_client[result.client], speed, depth, faults,
                  result),
            name=f"replay-{result.client}", daemon=True)
        threads.append(thread)
        thread.start()
    for thread in threads:
        thread.join()
    return ReplayResult(clients=results,
                        wall_seconds=time.perf_counter() - started,
                        speed=speed)
