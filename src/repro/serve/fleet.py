"""The fleet tier: a consistent-hash router over N shard daemons.

This module scales the single daemon out while keeping the wire
protocol identical — a client cannot tell a :class:`ShardRouter` from
one :class:`OptimizationDaemon` (except that ``stats`` gets richer)::

    client --- JSON lines ---> ShardRouter --+--> shard 0 (own process)
    client --- JSON lines ---> ShardRouter --+--> shard 1 (own process)
                                             +--> ...
                              one shared content-addressed cache tree

Design decisions worth naming:

* **Consistent hashing on the source text.**  Each shard daemon keeps
  its own source->key fast-path memo and in-memory cache LRU; routing
  a given program to the same shard every time keeps those hot.  The
  ring uses ``vnodes`` virtual nodes per shard so keyspace splits stay
  even, and a lookup walks past dead shards — while a shard is down
  its keys overflow to the next live point on the ring (the shared
  disk tree makes that correct, just colder).
* **Zero re-encode forwarding.**  The daemon guarantees per-connection
  responses in request-arrival order, so the router matches responses
  to requests *positionally* per shard link — no id rewriting, no
  response parsing: request lines are forwarded verbatim and response
  lines are relayed verbatim.  The router only ``json.loads`` the
  request to pick a shard and remember the id for error synthesis.
* **Failure is structured, never silent.**  A shard dying mid-batch
  resolves every in-flight request on that link with a ``shard-lost``
  error (retry-safe: compilation is pure and the cache write is
  atomic).  A supervisor then respawns the shard process (when
  ``respawn``) and reconnects; routing resumes without restarting the
  router.  Drain shutdown quiesces every client connection, then asks
  each shard to drain — zero admitted requests are dropped across the
  fleet.
* **One cache tree, many writers.**  Shards share ``cache_dir``; entry
  writes are temp-file + ``os.replace`` and evictions are tombstone
  renames, so cross-shard races never tear an entry — the contention
  suite pins this.
* **One front end.**  The router is the daemon's :class:`FrontEnd`
  (socket bind, read loop, in-order writer, drain shutdown) with a
  forwarding ``_route``, its :class:`FleetConfig` is a
  :class:`ServeConfig` plus the fleet's own fields, and
  :class:`FleetThread` is the daemon's :class:`ServerThread`.
"""

from __future__ import annotations

import asyncio
import contextlib
import hashlib
import json
import multiprocessing
import os
import signal
import tempfile
import time
from bisect import bisect_right
from collections import deque
from dataclasses import dataclass, field, fields
from typing import Any, Deque, Dict, List, Optional, Sequence, Tuple

from ..cache import CacheStats
from . import protocol
from .daemon import (
    FrontEnd,
    OptimizationDaemon,
    ServeConfig,
    ServerThread,
    _Connection,
)


# ------------------------------------------------------------------ ring
def _hash64(data) -> int:
    if isinstance(data, str):
        data = data.encode("utf-8", "surrogatepass")
    return int.from_bytes(hashlib.sha256(data).digest()[:8], "big")


class HashRing:
    """Consistent-hash ring over integer shard ids.

    ``vnodes`` virtual points per shard keep the keyspace split even
    (with 64 vnodes the max/min shard share is within ~2x for any
    realistic fleet size).  ``lookup`` returns the first *alive* shard
    at or after the key's point, wrapping around — so removing a shard
    only moves that shard's keys, the consistent-hashing property the
    per-shard memo/LRU affinity relies on.
    """

    def __init__(self, nodes: Sequence[int], vnodes: int = 64):
        if not nodes:
            raise ValueError("ring needs at least one node")
        self.nodes = list(nodes)
        self.vnodes = vnodes
        points = []
        for node in self.nodes:
            for v in range(vnodes):
                points.append((_hash64(f"shard-{node}#{v}"), node))
        points.sort()
        self._points = points
        self._hashes = [p[0] for p in points]

    def lookup(self, key, alive: Optional[set] = None) -> Optional[int]:
        start = bisect_right(self._hashes, _hash64(key))
        n = len(self._points)
        tried = set()
        for step in range(n):
            node = self._points[(start + step) % n][1]
            if node in tried:
                continue
            tried.add(node)
            if alive is None or node in alive:
                return node
            if len(tried) == len(self.nodes):
                break
        return None

    def shares(self, samples: int = 4096) -> Dict[int, float]:
        """Fraction of a uniform keyspace owned per shard (for tests)."""
        counts = {node: 0 for node in self.nodes}
        for i in range(samples):
            counts[self.lookup(f"sample-{i}")] += 1
        return {node: count / samples for node, count in counts.items()}


# ---------------------------------------------------------------- config
@dataclass
class FleetConfig(ServeConfig):
    """A router and its shard fleet.

    The socket fields address the router's front end; every other
    :class:`ServeConfig` field shapes each shard daemon (``jobs`` is
    per shard, ``cache_dir`` is the one tree they all share).
    """

    shards: int = 2
    runtime_dir: Optional[str] = None   # shard sockets + default cache
    vnodes: int = 64
    respawn: bool = True                # supervisor restarts dead shards
    reconnect_delay: float = 0.1
    connect_timeout: float = 60.0       # shard spawn + import + bind

    def __post_init__(self):
        if self.shards < 1:
            raise ValueError("shards must be >= 1")
        if self.runtime_dir is None:
            self.runtime_dir = tempfile.mkdtemp(prefix="repro-fleet-")
        if self.cache_dir is None:
            self.cache_dir = os.path.join(self.runtime_dir, "cache")
        if self.socket_path is None and self.host is None:
            self.socket_path = os.path.join(self.runtime_dir,
                                            "router.sock")
        super().__post_init__()

    def shard_socket(self, index: int) -> str:
        return os.path.join(self.runtime_dir, f"shard-{index}.sock")

    def shard_config(self, index: int) -> ServeConfig:
        shared = {f.name: getattr(self, f.name) for f in fields(ServeConfig)}
        shared.update(socket_path=self.shard_socket(index), host=None,
                      port=0, shard_id=index)
        return ServeConfig(**shared)

    def describe(self) -> dict:
        return {
            "protocol_version": protocol.PROTOCOL_VERSION,
            "shards": self.shards,
            "jobs_per_shard": self.jobs,
            "vnodes": self.vnodes,
            "cache_dir": self.cache_dir,
            "cache_ttl_seconds": self.cache_ttl,
            "cache_max_bytes": self.cache_max_bytes,
            "max_batch": self.max_batch,
            "kernel": self.kernel,
        }


# ------------------------------------------------------- shard process
def _shard_main(config: ServeConfig) -> None:
    """Entry point of one shard process (spawn context)."""
    daemon = OptimizationDaemon(config)

    async def run() -> None:
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGTERM, signal.SIGINT):
            with contextlib.suppress(NotImplementedError, OSError):
                loop.add_signal_handler(
                    signum,
                    lambda: asyncio.ensure_future(daemon.stop(drain=True)))
        await daemon.start()
        await daemon.serve_forever()

    asyncio.run(run())


# ------------------------------------------------------------ router IO
class _ShardLink:
    """The router's connection to one shard daemon.

    Responses are matched to forwarded requests positionally (the
    daemon's arrival-order guarantee); ``pending`` remembers only the
    original request id so a dead shard can answer with a structured
    ``shard-lost`` error instead of a hang.
    """

    def __init__(self, router: "ShardRouter", index: int,
                 socket_path: str):
        self.router = router
        self.index = index
        self.socket_path = socket_path
        self.reader: Optional[asyncio.StreamReader] = None
        self.writer: Optional[asyncio.StreamWriter] = None
        self.pending: Deque[Tuple[Any, "asyncio.Future"]] = deque()
        self.alive = False
        self.reader_task: Optional[asyncio.Task] = None
        self.forwarded = 0

    async def connect(self, timeout: float) -> None:
        deadline = time.monotonic() + timeout
        last: Optional[BaseException] = None
        while time.monotonic() < deadline:
            try:
                self.reader, self.writer = await asyncio.open_unix_connection(
                    self.socket_path, limit=protocol.MAX_LINE_BYTES)
                self.alive = True
                self.reader_task = asyncio.ensure_future(self._read_loop())
                return
            except (ConnectionError, OSError, FileNotFoundError) as exc:
                last = exc
                await asyncio.sleep(0.05)
        raise RuntimeError(
            f"shard {self.index} did not come up on "
            f"{self.socket_path}") from last

    def forward(self, line: bytes, request_id: Any,
                future: "asyncio.Future") -> None:
        self.pending.append((request_id, future))
        self.forwarded += 1
        self.writer.write(line)

    async def request(self, obj: dict, timeout: float = 30.0) -> dict:
        """Router-internal request over the same FIFO (stats, shutdown)."""
        future = asyncio.get_running_loop().create_future()
        self.forward(protocol.encode(obj), obj.get("id"), future)
        await self.writer.drain()
        line = await asyncio.wait_for(future, timeout=timeout)
        return json.loads(line)

    async def _read_loop(self) -> None:
        try:
            while True:
                line = await self.reader.readline()
                if not line:
                    break
                if self.pending:
                    _rid, future = self.pending.popleft()
                    if not future.done():
                        future.set_result(line)
        except (ConnectionError, OSError, ValueError,
                asyncio.LimitOverrunError):
            pass
        finally:
            self.alive = False
            self.fail_pending("shard daemon connection lost")
            with contextlib.suppress(Exception):
                self.writer.close()
            self.router._on_link_down(self)

    def fail_pending(self, message: str) -> None:
        while self.pending:
            request_id, future = self.pending.popleft()
            if not future.done():
                self.router.stats.shard_lost_errors += 1
                future.set_result(protocol.encode(protocol.error_response(
                    request_id, "shard-lost",
                    f"shard {self.index}: {message}")))


@dataclass
class RouterStats:
    """Front-end counters (per-shard numbers live in the shard stats)."""

    started_at: float = field(default_factory=time.monotonic)
    connections_opened: int = 0
    connections_closed: int = 0
    requests_received: int = 0
    responses_sent: int = 0
    forwarded: int = 0
    local_responses: int = 0    # ping/stats/errors answered here
    protocol_errors: int = 0
    rejected: int = 0
    disconnects: int = 0
    shard_lost_errors: int = 0
    reconnects: int = 0
    respawns: int = 0

    def snapshot(self, routed_by_shard: Dict[int, int]) -> dict:
        return {
            "uptime_seconds": round(
                time.monotonic() - self.started_at, 3),
            "connections": {"opened": self.connections_opened,
                            "closed": self.connections_closed},
            "requests": {
                "received": self.requests_received,
                "responded": self.responses_sent,
                "forwarded": self.forwarded,
                "local_responses": self.local_responses,
                "protocol_errors": self.protocol_errors,
                "rejected": self.rejected,
                "disconnects": self.disconnects,
            },
            "shard_lost_errors": self.shard_lost_errors,
            "reconnects": self.reconnects,
            "respawns": self.respawns,
            "routed_by_shard": {str(k): v for k, v
                                in sorted(routed_by_shard.items())},
        }


# ---------------------------------------------------------------- router
def _reap(proc: multiprocessing.Process) -> None:
    """Make sure a shard whose link dropped is gone before its respawn.

    A killed shard's socket can close before the process reads as dead,
    so liveness is no signal here: join briefly, then SIGKILL whatever
    is left.  The respawn then never dials a dead socket, and never
    races the old process for its socket path."""
    proc.join(1.0)
    if proc.is_alive():
        proc.kill()
        proc.join(5.0)


class ShardRouter(FrontEnd):
    """The fleet front end; speaks the daemon protocol verbatim."""

    def __init__(self, config: Optional[FleetConfig] = None):
        super().__init__()
        self.config = config or FleetConfig()
        self.stats = RouterStats()
        self.ring = HashRing(range(self.config.shards),
                             vnodes=self.config.vnodes)
        self._mp = multiprocessing.get_context("spawn")
        self._procs: Dict[int, multiprocessing.Process] = {}
        self._links: List[_ShardLink] = []
        self._revive_tasks: set = set()

    # ------------------------------------------------------------ setup
    def _spawn_shard(self, index: int) -> None:
        proc = self._mp.Process(
            target=_shard_main, args=(self.config.shard_config(index),),
            name=f"repro-shard-{index}", daemon=True)
        proc.start()
        self._procs[index] = proc

    async def _start_backend(self) -> None:
        os.makedirs(self.config.cache_dir, exist_ok=True)
        # spawn every shard first (they come up in parallel), then
        # connect; each spawn is cheap, the child import is the slow part
        await asyncio.gather(*[
            self._loop.run_in_executor(None, self._spawn_shard, index)
            for index in range(self.config.shards)])
        self._links = [
            _ShardLink(self, index, self.config.shard_socket(index))
            for index in range(self.config.shards)]
        await asyncio.gather(*[
            link.connect(self.config.connect_timeout)
            for link in self._links])

    # ---------------------------------------------------------- routing
    def alive_shards(self) -> set:
        return {link.index for link in self._links if link.alive}

    def shard_for(self, source: str) -> Optional[int]:
        """Which live shard the ring routes *source* to (test hook)."""
        return self.ring.lookup(source, alive=self.alive_shards())

    def home_shard(self, source: str) -> int:
        """The ring's first choice, ignoring liveness (test hook)."""
        return self.ring.lookup(source)

    def _resolved(self, response: dict) -> "asyncio.Future":
        self.stats.local_responses += 1
        return super()._resolved(response)

    async def _route(self, conn: _Connection, line: bytes) -> None:
        try:
            obj = json.loads(line)
            if not isinstance(obj, dict):
                raise ValueError("not an object")
        except (ValueError, UnicodeDecodeError):
            self.stats.protocol_errors += 1
            conn.enqueue(self._resolved(protocol.error_response(
                None, "bad-json", "unparseable line")))
            return
        request_id = obj.get("id")
        op = obj.get("op")
        if op == "ping":
            conn.enqueue(self._resolved(protocol.ok_response(
                request_id, {
                    "pong": True, "router": True,
                    "shards": self.config.shards,
                    "alive_shards": len(self.alive_shards()),
                    "protocol_version": protocol.PROTOCOL_VERSION,
                })))
            return
        if op == "stats":
            future = self._loop.create_future()
            conn.enqueue(future)

            async def fill() -> None:
                try:
                    snapshot = await self.snapshot()
                    response = protocol.ok_response(request_id, snapshot)
                except Exception as exc:  # pragma: no cover
                    response = protocol.error_response(
                        request_id, "internal",
                        f"{type(exc).__name__}: {exc}")
                self.stats.local_responses += 1
                if not future.done():
                    future.set_result(protocol.encode(response))

            asyncio.ensure_future(fill())
            return
        if op == "shutdown":
            conn.enqueue(self._resolved(protocol.ok_response(
                request_id, {"stopping": True})))
            asyncio.ensure_future(self.stop(drain=True))
            return
        # compile / validate / anything else: the shard decides
        if self._stopping:
            self.stats.rejected += 1
            conn.enqueue(self._resolved(protocol.error_response(
                request_id, "shutting-down",
                "router is draining; request not admitted")))
            return
        source = obj.get("source")
        if not isinstance(source, str):
            source = ""
        shard = self.ring.lookup(source, alive=self.alive_shards())
        if shard is None:
            self.stats.shard_lost_errors += 1
            conn.enqueue(self._resolved(protocol.error_response(
                request_id, "shard-lost", "no live shard in the fleet")))
            return
        link = self._links[shard]
        future = self._loop.create_future()
        if not line.endswith(b"\n"):
            line += b"\n"
        link.forward(line, request_id, future)
        self.stats.forwarded += 1
        conn.enqueue(future)
        try:
            await link.writer.drain()
        except (ConnectionError, OSError):
            pass  # the link's read loop notices and fails pending

    # ------------------------------------------------------- supervision
    def _on_link_down(self, link: _ShardLink) -> None:
        if self._stopping or self._loop is None:
            return
        task = asyncio.ensure_future(self._revive(link))
        self._revive_tasks.add(task)
        task.add_done_callback(self._revive_tasks.discard)

    async def _revive(self, link: _ShardLink) -> None:
        """Bring a dead shard back: reap and respawn its process
        (optional), reconnect, and return it to the routing ring."""
        while not self._stopping:
            if self.config.respawn:
                proc = self._procs.get(link.index)
                if proc is not None:
                    await self._loop.run_in_executor(None, _reap, proc)
                await self._loop.run_in_executor(
                    None, self._spawn_shard, link.index)
                self.stats.respawns += 1
            try:
                await link.connect(timeout=self.config.connect_timeout)
                self.stats.reconnects += 1
                return
            except RuntimeError:
                if not self.config.respawn:
                    return  # nothing will ever answer; stay down
                await asyncio.sleep(self.config.reconnect_delay)

    # ------------------------------------------------------------- stats
    async def snapshot(self) -> dict:
        """The fleet ``stats`` payload: router counters, per-shard
        snapshots, and the cross-shard aggregate."""
        shards: List[dict] = []
        for link in self._links:
            entry: dict = {"shard": link.index, "alive": link.alive,
                           "forwarded": link.forwarded, "stats": None}
            if link.alive:
                try:
                    response = await link.request(
                        {"id": f"router-stats-{link.index}",
                         "op": "stats"}, timeout=10.0)
                    if response.get("ok"):
                        entry["stats"] = response["result"]
                except (asyncio.TimeoutError, ConnectionError, OSError,
                        ValueError):
                    entry["alive"] = link.alive
            shards.append(entry)
        routed = {link.index: link.forwarded for link in self._links}
        return {
            "router": self.stats.snapshot(routed),
            "config": self.config.describe(),
            "fleet": aggregate_shard_stats(
                [s["stats"] for s in shards if s["stats"] is not None]),
            "shards": shards,
        }

    # -------------------------------------------------------------- stop
    async def _settle(self, drain: bool) -> None:
        if drain:
            # every forwarded request resolves (response or shard-lost)
            for link in self._links:
                while link.pending and link.alive:
                    await asyncio.sleep(0.005)

    async def _stop_backend(self) -> None:
        for task in list(self._revive_tasks):
            task.cancel()
            with contextlib.suppress(BaseException):
                await task
        # capture the last full fleet view while the shards can still
        # answer a stats request; router counters alone if that fails
        try:
            self.final_snapshot = await self.snapshot()
        except Exception:
            self.final_snapshot = {
                "router": self.stats.snapshot(
                    {link.index: link.forwarded for link in self._links}),
                "config": self.config.describe()}
        # drain the shards themselves: ask politely, then escalate
        for link in self._links:
            if link.alive:
                with contextlib.suppress(Exception):
                    await link.request(
                        {"id": "router-shutdown", "op": "shutdown"},
                        timeout=10.0)
        for link in self._links:
            if link.reader_task is not None:
                with contextlib.suppress(BaseException):
                    await asyncio.wait_for(link.reader_task, timeout=10.0)
            with contextlib.suppress(Exception):
                link.writer.close()
        for index, proc in self._procs.items():
            await self._loop.run_in_executor(None, proc.join, 15.0)
            if proc.is_alive():  # pragma: no cover - escalation path
                proc.terminate()
                await self._loop.run_in_executor(None, proc.join, 5.0)
                if proc.is_alive():
                    proc.kill()
                    await self._loop.run_in_executor(None, proc.join, 5.0)


def aggregate_shard_stats(snapshots: Sequence[dict]) -> dict:
    """Fold per-shard daemon snapshots into one fleet view.

    Counters sum; latency percentiles take the worst shard (a
    conservative fleet bound — exact fleet percentiles would need the
    raw reservoirs) with the mean request-weighted; the cache hit rate
    is recomputed from the summed counters, not averaged.
    """
    out: dict = {"shards": len(snapshots)}
    if not snapshots:
        return out

    def sum_over(path: Tuple[str, ...]) -> float:
        total = 0
        for snap in snapshots:
            node = snap
            for part in path:
                node = node.get(part, {})
            if isinstance(node, (int, float)):
                total += node
        return total

    requests = {}
    for key in ("received", "responded", "compiles", "fast_path_hits",
                "compile_errors", "protocol_errors", "rejected",
                "disconnects"):
        requests[key] = int(sum_over(("requests", key)))
    out["requests"] = requests
    out["queue"] = {
        "depth": int(sum_over(("queue", "depth"))),
        "peak_depth": int(max(
            snap.get("queue", {}).get("peak_depth", 0)
            for snap in snapshots)),
    }
    out["batches"] = {
        "dispatched": int(sum_over(("batches", "dispatched"))),
        "requests": int(sum_over(("batches", "requests"))),
        "max_size": int(max(snap.get("batches", {}).get("max_size", 0)
                            for snap in snapshots)),
    }
    out["cache"] = CacheStats(**{
        counter.name: int(sum_over(("cache", counter.name)))
        for counter in fields(CacheStats)}).to_dict()
    out["throughput"] = {
        "programs_per_second": round(
            sum_over(("throughput", "programs_per_second")), 3),
        "busy_seconds": round(sum_over(("throughput", "busy_seconds")),
                              3),
    }
    latencies = [snap.get("latency", {}) for snap in snapshots]
    count = int(sum(lat.get("count", 0) for lat in latencies))
    weighted_mean = 0.0
    if count:
        weighted_mean = sum(
            lat.get("mean_ms", 0.0) * lat.get("count", 0)
            for lat in latencies) / count
    out["latency"] = {
        "count": count,
        "p50_ms_worst": max((lat.get("p50_ms", 0.0)
                             for lat in latencies), default=0.0),
        "p99_ms_worst": max((lat.get("p99_ms", 0.0)
                             for lat in latencies), default=0.0),
        "p999_ms_worst": max((lat.get("p999_ms", 0.0)
                              for lat in latencies), default=0.0),
        "max_ms": max((lat.get("max_ms", 0.0)
                       for lat in latencies), default=0.0),
        "mean_ms": round(weighted_mean, 3),
    }
    tenants: Dict[str, int] = {}
    priorities: Dict[str, int] = {}
    for snap in snapshots:
        fairness = snap.get("fairness", {})
        for tenant, served in fairness.get("served_by_tenant",
                                           {}).items():
            tenants[tenant] = tenants.get(tenant, 0) + served
        for prio, served in fairness.get("served_by_priority",
                                         {}).items():
            priorities[prio] = priorities.get(prio, 0) + served
    out["fairness"] = {
        "tenants_seen": len(tenants),
        "served_by_tenant": dict(sorted(tenants.items(),
                                        key=lambda kv: -kv[1])[:32]),
        "served_by_priority": dict(sorted(priorities.items())),
    }
    return out


# ---------------------------------------------------------------- thread
class FleetThread(ServerThread):
    """A router and its shard fleet on a background thread::

        with FleetThread(FleetConfig(shards=2)) as fleet:
            client = ServeClient(fleet.address)
            ...
    """

    def __init__(self, config: Optional[FleetConfig] = None):
        super().__init__(ShardRouter(config))

    @property
    def router(self) -> ShardRouter:
        return self.server

    def kill_shard(self, index: int) -> None:
        """Fault injection: SIGKILL one shard process mid-flight."""
        proc = self.router._procs.get(index)
        if proc is not None and proc.is_alive():
            proc.kill()
