"""``repro serve``: the long-running optimization-as-a-service daemon.

Architecture (one asyncio event loop, one dispatch thread, N worker
processes)::

    client --- JSON lines ---> connection handler --+
    client --- JSON lines ---> connection handler --+--> admission queue
                                                         |
                                           batcher task: collect up to
                                           max_batch requests or wait
                                           max_delay, group by pipeline
                                           config, then
                                                         |
                                           compile_many(..., executor=
                                           persistent process pool,
                                           cache=shared warm cache,
                                           on_error="capture")
                                                         |
    client <-- response lines (arrival order) <-- per-request futures

Admission batching amortizes dispatch overhead and lets concurrent
clients share one warm cache: the first compile of a program pays the
pipeline, every repeat — from any client, any connection, any worker
process — is a cache hit.  Responses stream back per request as each
batch completes; a connection's responses always come back in its
request-arrival order, so clients may pipeline arbitrarily deep.

Graceful degradation is deliberate and tested: malformed or oversized
requests get structured error responses, a client disconnecting
mid-stream only increments a counter, cache-directory loss degrades
the store to memory-only, and shutdown drains every admitted request
before closing connections.

The socket half — bind, per-connection read loop, in-order writer,
drain-then-close shutdown (:class:`FrontEnd`) — and the background
thread runner (:class:`ServerThread`) are shared with the fleet's
:class:`~repro.serve.fleet.ShardRouter`: a server supplies only how a
request line is answered and how its back end starts, settles and stops.
"""

from __future__ import annotations

import asyncio
import contextlib
import multiprocessing
import os
import shutil
import tempfile
import threading
import time
from collections import OrderedDict
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..cache import CompilationCache
from ..core.batch import CompileJob, compile_many
from ..core.pipeline import ALL_OPTIMIZERS, MerlinPipeline
from ..verifier import KERNELS
from . import protocol
from .fairness import FairAdmissionQueue
from .metrics import ServiceStats
from .protocol import ProtocolError, Request

_STOP = object()   # admission-queue sentinel: drain, then exit
_EOF = object()    # per-connection write-queue sentinel


@dataclass
class ServeConfig:
    """Everything that shapes one daemon instance."""

    socket_path: Optional[str] = None   # unix domain socket (default)
    host: Optional[str] = None          # or TCP on host:port
    port: int = 0
    jobs: int = 1                       # compile worker processes
    cache_dir: Optional[str] = None     # shared warm cache (None: temp)
    max_memory_entries: int = 4096
    max_batch: int = 16                 # admission window: size cap ...
    max_delay: float = 0.01             # ... and linger seconds
    kernel: str = "6.5"
    queue_limit: int = 4096             # admission backpressure
    #: how long ``stop(drain=True)`` lets the event loop keep admitting
    #: already-readable sockets before refusing new work — shrinks the
    #: window in which a request racing the stop call is dropped
    drain_grace: float = 0.05
    #: per-tenant admission weights (missing tenants weigh 1); the
    #: fair queue serves a backlogged tenant at most ``weight``
    #: consecutive slots per round
    tenant_weights: Optional[Dict[str, int]] = None
    #: requests at this priority or above cut the admission window's
    #: linger timer short (the batch dispatches immediately)
    preempt_priority: int = 1
    #: idle TTL for cache entries (seconds; None = keep forever)
    cache_ttl: Optional[float] = None
    #: disk-store size budget enforced by the periodic sweep
    cache_max_bytes: Optional[int] = None
    #: how often the eviction sweep runs when either bound is set
    sweep_interval: float = 5.0
    #: fleet shard index (set by the router; labels stats snapshots)
    shard_id: Optional[int] = None

    def __post_init__(self):
        if self.jobs < 1:
            raise ValueError("jobs must be >= 1")
        if self.max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if self.max_delay < 0:
            raise ValueError("max_delay must be >= 0")
        if self.kernel not in KERNELS:
            raise ValueError(f"unknown kernel {self.kernel!r}")
        if not 0 <= self.preempt_priority <= protocol.MAX_PRIORITY + 1:
            raise ValueError("preempt_priority out of range")
        if self.sweep_interval <= 0:
            raise ValueError("sweep_interval must be positive")
        if self.socket_path is None and self.host is None:
            self.socket_path = os.path.join(
                tempfile.mkdtemp(prefix="repro-serve-"), "serve.sock")

    def describe(self) -> dict:
        return {
            "protocol_version": protocol.PROTOCOL_VERSION,
            "jobs": self.jobs,
            "max_batch": self.max_batch,
            "max_delay_ms": round(self.max_delay * 1000, 3),
            "kernel": self.kernel,
            "cache_dir": self.cache_dir,
            "preempt_priority": self.preempt_priority,
            "cache_ttl_seconds": self.cache_ttl,
            "cache_max_bytes": self.cache_max_bytes,
            "shard_id": self.shard_id,
        }


class _Pending:
    """One admitted compile request awaiting its batch."""

    __slots__ = ("request", "future", "enqueued", "dispatched")

    def __init__(self, request: Request, future: "asyncio.Future"):
        self.request = request
        self.future = future
        self.enqueued = time.monotonic()
        self.dispatched = 0.0


class _Connection:
    """Per-client state: a FIFO of response futures and one writer.

    Futures resolve to encoded response lines, so the writer never
    re-encodes: the daemon encodes its own responses and the router
    relays shard lines verbatim."""

    def __init__(self, writer: asyncio.StreamWriter, stats):
        self.writer = writer
        self.stats = stats
        self.queue: "asyncio.Queue" = asyncio.Queue()
        self.inflight = 0
        self.broken = False
        self.writer_task: Optional[asyncio.Task] = None

    def enqueue(self, future: "asyncio.Future") -> None:
        self.inflight += 1
        self.queue.put_nowait(future)

    async def write_loop(self) -> None:
        """Write responses strictly in request-arrival order."""
        while True:
            item = await self.queue.get()
            if item is _EOF:
                break
            line = await item
            if not self.broken:
                try:
                    self.writer.write(line)
                    await self.writer.drain()
                    self.stats.responses_sent += 1
                except (ConnectionError, OSError):
                    # client went away mid-stream: keep draining
                    # futures (their results are simply dropped)
                    self.broken = True
                    self.stats.disconnects += 1
            self.inflight -= 1

    async def quiesce(self) -> None:
        while self.inflight > 0:
            await asyncio.sleep(0.005)


class FrontEnd:
    """The JSON-lines socket front end of a server.

    A subclass sets ``config`` (socket fields and ``drain_grace``) and
    ``stats`` (connection and request counters), answers each request
    line in :meth:`_route`, and runs its back end through three hooks:
    :meth:`_start_backend` before the socket binds, :meth:`_settle`
    once the socket stopped accepting (every admitted request must
    resolve), and :meth:`_stop_backend` after the last connection
    closed.
    """

    def __init__(self):
        self._connections: set = set()
        self._handler_tasks: set = set()
        self._server: Optional[asyncio.AbstractServer] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stopping = False       # no longer admitting work
        self._stop_requested = False  # stop() body claimed
        self._stopped = asyncio.Event()
        self.address: Optional[Tuple] = None
        #: the last full ``stats`` payload, captured by stop() for
        #: post-shutdown reporting (e.g. ``--stats-out``)
        self.final_snapshot: Optional[dict] = None

    # ------------------------------------------------------------ setup
    async def start(self) -> None:
        """Start the back end, then bind the socket; returns once ready."""
        self._loop = asyncio.get_running_loop()
        self._stopped = asyncio.Event()
        await self._start_backend()
        if self.config.socket_path is not None:
            with contextlib.suppress(FileNotFoundError):
                os.unlink(self.config.socket_path)
            self._server = await asyncio.start_unix_server(
                self._handle_connection, path=self.config.socket_path,
                limit=protocol.MAX_LINE_BYTES)
            self.address = ("unix", self.config.socket_path)
        else:
            self._server = await asyncio.start_server(
                self._handle_connection, host=self.config.host,
                port=self.config.port, limit=protocol.MAX_LINE_BYTES)
            sock = self._server.sockets[0]
            self.address = ("tcp",) + sock.getsockname()[:2]

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        await self._stopped.wait()

    # ------------------------------------------------------- connections
    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        conn = _Connection(writer, self.stats)
        conn.writer_task = asyncio.ensure_future(conn.write_loop())
        self._connections.add(conn)
        self._handler_tasks.add(asyncio.current_task())
        self.stats.connections_opened += 1
        try:
            while True:
                try:
                    line = await reader.readline()
                except (ValueError, asyncio.LimitOverrunError):
                    # request line beyond the framing limit: the stream
                    # is unrecoverable — answer once, then hang up
                    self.stats.protocol_errors += 1
                    conn.enqueue(self._resolved(protocol.error_response(
                        None, "oversized",
                        f"line exceeds {protocol.MAX_LINE_BYTES} bytes")))
                    break
                except (ConnectionError, OSError):
                    break
                if not line:
                    break
                if not line.strip():
                    continue
                self.stats.requests_received += 1
                await self._route(conn, line)
        finally:
            conn.queue.put_nowait(_EOF)
            try:
                await conn.writer_task
            except BaseException:  # incl. CancelledError at teardown
                conn.writer_task.cancel()
            finally:
                with contextlib.suppress(Exception):
                    writer.close()
                self._connections.discard(conn)
                self._handler_tasks.discard(asyncio.current_task())
                self.stats.connections_closed += 1

    def _resolved(self, response: dict) -> "asyncio.Future":
        future = self._loop.create_future()
        future.set_result(protocol.encode(response))
        return future

    # -------------------------------------------------------------- stop
    async def stop(self, drain: bool = True) -> None:
        """Stop accepting, settle every admitted request (answered when
        *drain*, rejected otherwise), flush and close every connection,
        then stop the back end."""
        if self._stop_requested:
            await self._stopped.wait()
            return
        self._stop_requested = True
        if drain and self.config.drain_grace > 0:
            # let the loop process sockets that are already readable
            # (accepts and buffered request lines that raced this call)
            # so they are admitted and drained instead of dropped
            await asyncio.sleep(self.config.drain_grace)
        self._stopping = True
        if self._server is not None:
            # close() alone stops the accept loop.  wait_closed() must
            # come *after* connection teardown: from Python 3.12 it
            # also waits for every accepted transport to detach, so
            # awaiting it here deadlocks against a client that holds
            # its connection open across the drain.
            self._server.close()
        await self._settle(drain)
        # every admitted future is resolved; let the writers flush
        for conn in list(self._connections):
            await conn.quiesce()
        for conn in list(self._connections):
            conn.queue.put_nowait(_EOF)
            with contextlib.suppress(Exception):
                conn.writer.close()
        for task in list(self._handler_tasks):
            with contextlib.suppress(Exception):
                await asyncio.wait_for(task, timeout=5.0)
        if self._server is not None:
            with contextlib.suppress(asyncio.TimeoutError):
                await asyncio.wait_for(self._server.wait_closed(), 5.0)
        await self._stop_backend()
        if self.config.socket_path is not None:
            with contextlib.suppress(OSError):
                os.unlink(self.config.socket_path)
        self._stopped.set()

    def request_stop(self, drain: bool = True) -> None:
        """Thread-safe stop trigger (for signal handlers / test code)."""
        if self._loop is not None:
            asyncio.run_coroutine_threadsafe(self.stop(drain=drain),
                                             self._loop)


class OptimizationDaemon(FrontEnd):
    """The asyncio service around :func:`repro.core.batch.compile_many`."""

    def __init__(self, config: Optional[ServeConfig] = None):
        super().__init__()
        self.config = config or ServeConfig()
        self.stats = ServiceStats()
        self._own_cache_dir: Optional[str] = None
        cache_dir = self.config.cache_dir
        if cache_dir is None and self.config.jobs > 1:
            # worker processes share the warm cache through disk only
            cache_dir = self._own_cache_dir = tempfile.mkdtemp(
                prefix="repro-serve-cache-")
            self.config.cache_dir = cache_dir
        self.cache = CompilationCache(
            directory=cache_dir,
            max_memory_entries=self.config.max_memory_entries,
            ttl_seconds=self.config.cache_ttl,
            max_disk_bytes=self.config.cache_max_bytes)
        self._pipelines: Dict[tuple, MerlinPipeline] = {}
        # source-text -> cache-key memo: repeat requests skip the
        # frontend entirely and answer straight from the warm cache
        self._source_keys: "OrderedDict[tuple, str]" = OrderedDict()
        self._queue = FairAdmissionQueue(
            maxsize=self.config.queue_limit,
            weights=self.config.tenant_weights)
        self._batcher_task: Optional[asyncio.Task] = None
        self._sweep_task: Optional[asyncio.Task] = None
        self._dispatch_thread = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-serve-dispatch")
        self._pool: Optional[ProcessPoolExecutor] = None

    # ------------------------------------------------------------ setup
    def _pipeline_for(self, request: Request) -> MerlinPipeline:
        key = request.config_key
        pipeline = self._pipelines.get(key)
        if pipeline is None:
            enabled = key[1] if key[1] is not None else ALL_OPTIMIZERS
            pipeline = MerlinPipeline(kernel=KERNELS[key[0]],
                                      enabled=frozenset(enabled))
            self._pipelines[key] = pipeline
        return pipeline

    async def _start_backend(self) -> None:
        if self.config.jobs > 1:
            # spawn (not fork): the daemon is multi-threaded by design
            self._pool = ProcessPoolExecutor(
                max_workers=self.config.jobs,
                mp_context=multiprocessing.get_context("spawn"))
        self._batcher_task = asyncio.ensure_future(self._batch_loop())
        if self.config.cache_ttl is not None \
                or self.config.cache_max_bytes is not None:
            self._sweep_task = asyncio.ensure_future(self._sweep_loop())

    async def _sweep_loop(self) -> None:
        """Periodic TTL/size-budget eviction over the shared store.

        The walk runs off-loop (default thread executor) so a large
        tree never stalls request handling; the sweep itself is safe
        against concurrent sweepers in other shard daemons — the
        tombstone rename arbitrates every removal.
        """
        while not self._stopping:
            await asyncio.sleep(self.config.sweep_interval)
            if self._stopping:
                break
            try:
                await self._loop.run_in_executor(None, self.cache.sweep)
            except Exception:  # pragma: no cover - sweep is best-effort
                pass

    # ----------------------------------------------------------- routing
    async def _route(self, conn: _Connection, line: bytes) -> None:
        try:
            request = protocol.parse_request(line)
        except ProtocolError as exc:
            self.stats.protocol_errors += 1
            conn.enqueue(self._resolved(protocol.error_from(exc)))
            return
        if request.op == "ping":
            conn.enqueue(self._resolved(protocol.ok_response(
                request.id, {"pong": True,
                             "protocol_version": protocol.PROTOCOL_VERSION})))
            return
        if request.op == "stats":
            conn.enqueue(self._resolved(protocol.ok_response(
                request.id, self.snapshot())))
            return
        if request.op == "shutdown":
            conn.enqueue(self._resolved(protocol.ok_response(
                request.id, {"stopping": True})))
            asyncio.ensure_future(self.stop(drain=True))
            return
        # compile / validate
        if self._stopping:
            self.stats.rejected += 1
            conn.enqueue(self._resolved(protocol.error_response(
                request.id, "shutting-down",
                "daemon is draining; request not admitted")))
            return
        future = self._loop.create_future()
        pending = _Pending(request, future)
        try:
            self._queue.put_nowait(pending, priority=request.priority,
                                   tenant=request.tenant)
        except asyncio.QueueFull:
            self.stats.rejected += 1
            conn.enqueue(self._resolved(protocol.error_response(
                request.id, "shutting-down", "admission queue full")))
            return
        depth = self._queue.qsize()
        if depth > self.stats.peak_queue_depth:
            self.stats.peak_queue_depth = depth
        conn.enqueue(future)

    # ---------------------------------------------------------- batching
    def _preempts(self, pending: _Pending) -> bool:
        return pending.request.priority >= self.config.preempt_priority

    async def _batch_loop(self) -> None:
        """Admission batching: linger up to ``max_delay`` for up to
        ``max_batch`` requests, then dispatch them as one batch.

        The fair queue hands requests over highest-priority-first and
        weighted round-robin across tenants; a request at or above
        ``preempt_priority`` additionally cancels the remaining linger
        so urgent work never waits out the window behind bulk traffic.
        """
        stop_seen = False
        while not stop_seen:
            item = await self._queue.get()
            if item is _STOP:
                break
            batch = [item]
            preempted = self._preempts(item)
            deadline = self._loop.time() + self.config.max_delay
            while len(batch) < self.config.max_batch and not preempted:
                remaining = deadline - self._loop.time()
                if remaining <= 0:
                    break
                try:
                    nxt = await asyncio.wait_for(self._queue.get(),
                                                 timeout=remaining)
                except asyncio.TimeoutError:
                    break
                if nxt is _STOP:
                    stop_seen = True
                    break
                batch.append(nxt)
                preempted = self._preempts(nxt)
            if preempted:
                self.stats.preempted_batches += 1
            await self._dispatch(batch)
        # drain anything admitted after the sentinel was queued
        leftovers: List[_Pending] = []
        while not self._queue.empty():
            item = self._queue.get_nowait()
            if item is not _STOP:
                leftovers.append(item)
        if leftovers:
            await self._dispatch(leftovers)

    # one memo entry per distinct request shape; bounded like the cache
    _MEMO_LIMIT = 8192

    def _memo_key(self, request: Request) -> tuple:
        return (request.source, request.entry, request.name,
                request.prog_type, request.mcpu, request.ctx_size,
                request.asm, request.pgo, request.superopt,
                request.config_key)

    def _fast_path(self, pending: _Pending) -> bool:
        """Answer a repeat request straight from the warm cache.

        The content-addressed cache key hashes canonical IR, so a
        plain lookup still pays the full frontend.  The daemon sees
        identical *source text* over and over (the Zipf head), so it
        memoizes source -> key after the first compile and serves
        repeats without parsing anything.  Entries stored under a
        ``validate=True`` key were certified at store time, so
        replaying the raise check is unnecessary here.
        """
        key = self._source_keys.get(self._memo_key(pending.request))
        if key is None:
            return False
        hit = self.cache.get(key)
        if hit is None:
            return False
        program, report = hit
        report.cached = True
        self.stats.fast_path_hits += 1
        self.stats.compiles_completed += 1
        self.stats.observe_served(pending.request.tenant,
                                  pending.request.priority)
        self._finish(pending, protocol.ok_response(
            pending.request.id,
            self._payload(pending.request, program, report)))
        return True

    def _memoize(self, request: Request, report) -> None:
        if getattr(report, "cache_key", None) is None:
            return
        memo = self._memo_key(request)
        self._source_keys[memo] = report.cache_key
        self._source_keys.move_to_end(memo)
        while len(self._source_keys) > self._MEMO_LIMIT:
            self._source_keys.popitem(last=False)

    async def _dispatch(self, batch: List[_Pending]) -> None:
        """Group one admitted batch by pipeline config and compile."""
        now = time.monotonic()
        for pending in batch:
            pending.dispatched = now
            self.stats.queue_latency.observe(now - pending.enqueued)
        batch = [p for p in batch if not self._fast_path(p)]
        groups: Dict[tuple, List[_Pending]] = {}
        for pending in batch:
            groups.setdefault(pending.request.config_key,
                              []).append(pending)
        for key, members in groups.items():
            pipeline = self._pipeline_for(members[0].request)
            jobs = [CompileJob(name=p.request.name, source=p.request.source,
                               entry=p.request.entry,
                               prog_type=p.request.prog_type,
                               mcpu=p.request.mcpu,
                               ctx_size=p.request.ctx_size,
                               pgo=p.request.pgo,
                               superopt=p.request.superopt)
                    for p in members]
            validate = members[0].request.validate
            worker_jobs = self.config.jobs if self._pool is not None else 1
            call = lambda: compile_many(  # noqa: E731 - bound per group
                pipeline, jobs, jobs=worker_jobs, cache=self.cache,
                executor=self._pool, validate=validate,
                on_error="capture")
            try:
                report = await self._loop.run_in_executor(
                    self._dispatch_thread, call)
            except Exception as exc:  # pool died, pickle failure, ...
                for pending in members:
                    self._finish(pending, protocol.error_response(
                        pending.request.id, "internal",
                        f"{type(exc).__name__}: {exc}"))
                continue
            self.stats.observe_batch(len(members), report.wall_seconds)
            # Resolve strictly by position, and resolve *every* member:
            # a report that somehow came back short (a broken batch
            # implementation, a truncated worker result) must still
            # answer the unmatched requests — an unresolved future
            # wedges its connection's write loop and stop(drain=True)
            # then never finishes quiescing.
            for index, pending in enumerate(members):
                if index >= len(report.programs):
                    self.stats.compile_errors += 1
                    self._finish(pending, protocol.error_response(
                        pending.request.id, "internal",
                        "batch report shorter than the request group"))
                    continue
                program = report.programs[index]
                rep = report.reports[index]
                error = (report.errors[index]
                         if index < len(report.errors) else None)
                if error is not None or rep is None:
                    self.stats.compile_errors += 1
                    self._finish(pending, protocol.error_response(
                        pending.request.id, "compile-error",
                        error or "no result for request"))
                else:
                    self.stats.compiles_completed += 1
                    self.stats.observe_served(pending.request.tenant,
                                              pending.request.priority)
                    self._memoize(pending.request, rep)
                    self._finish(pending, protocol.ok_response(
                        pending.request.id,
                        self._payload(pending.request, program, rep)))

    def _finish(self, pending: _Pending, response: dict) -> None:
        self.stats.latency.observe(time.monotonic() - pending.enqueued)
        if not pending.future.done():
            pending.future.set_result(protocol.encode(response))

    def _payload(self, request: Request, program, report) -> dict:
        result = {
            "name": report.name,
            "ni_original": report.ni_original,
            "ni_optimized": report.ni_optimized,
            "ni_reduction": round(report.ni_reduction, 4),
            "cached": report.cached,
            "mcpu": program.mcpu,
            "insns": program.ni,
            "compile_ms": round(report.compile_seconds * 1000, 3),
        }
        if request.validate:
            by_status: Dict[str, int] = {}
            for cert in report.certificates:
                by_status[cert.status] = by_status.get(cert.status, 0) + 1
            result["certificates"] = {
                "applications": len(report.certificates),
                "certified": all(c.certified
                                 for c in report.certificates),
                "by_status": by_status,
            }
        if request.pgo is not None:
            layout = [s for s in report.pass_stats if s.name == "layout"]
            result["layout"] = {
                "rewrites": sum(s.rewrites for s in layout),
                "profiled_runs": sum(s.details.get("profiled_runs", 0)
                                     for s in layout),
                "spec": request.pgo.fingerprint(),
            }
        if request.superopt is not None:
            superopt = [s for s in report.pass_stats
                        if s.name == "superopt"]
            result["superopt"] = {
                "rewrites": sum(s.rewrites for s in superopt),
                "searches": sum(s.details.get("searches", 0)
                                for s in superopt),
                "memo_hits": sum(s.details.get("memo_hits", 0)
                                 for s in superopt),
                "spec": request.superopt.fingerprint(),
            }
        if request.asm:
            from ..isa import disassemble

            result["asm"] = disassemble(program.insns)
        return result

    # ------------------------------------------------------------- stats
    def snapshot(self) -> dict:
        return self.stats.snapshot(
            queue_depth=self._queue.qsize(),
            cache_stats=self.cache.stats.to_dict(),
            config=self.config.describe())

    # -------------------------------------------------------------- stop
    async def _settle(self, drain: bool) -> None:
        if not drain:
            while not self._queue.empty():
                item = self._queue.get_nowait()
                if item is not _STOP:
                    self.stats.rejected += 1
                    self._finish(item, protocol.error_response(
                        item.request.id, "shutting-down",
                        "daemon stopped without draining"))
        self._queue.put_control(_STOP)
        if self._batcher_task is not None:
            await self._batcher_task
        if self._sweep_task is not None:
            self._sweep_task.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await self._sweep_task

    async def _stop_backend(self) -> None:
        self._dispatch_thread.shutdown(wait=True)
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
        if self._own_cache_dir is not None:
            shutil.rmtree(self._own_cache_dir, ignore_errors=True)
        self.final_snapshot = self.snapshot()


class ServerThread:
    """Run a server (one daemon or a fleet router) on a private event
    loop in a background thread.  The pattern tests and the bench
    harness use::

        with DaemonThread(ServeConfig(max_delay=0.005)) as daemon:
            client = ServeClient(daemon.address)
            ...
    """

    def __init__(self, server: FrontEnd):
        self.server = server
        self._ready = threading.Event()
        self._error: Optional[BaseException] = None
        self._thread = threading.Thread(target=self._run,
                                        name="repro-serve", daemon=True)

    # --------------------------------------------------------- lifecycle
    def _run(self) -> None:
        try:
            asyncio.run(self._main())
        except BaseException as exc:  # pragma: no cover - startup failure
            self._error = exc
            self._ready.set()

    async def _main(self) -> None:
        await self.server.start()
        self._ready.set()
        await self.server.serve_forever()

    def start(self) -> "ServerThread":
        self._thread.start()
        if not self._ready.wait(timeout=120):
            raise RuntimeError("server failed to start in time")
        if self._error is not None:
            raise RuntimeError("server failed to start") from self._error
        return self

    def stop(self, drain: bool = True, timeout: float = 120.0) -> None:
        if self._thread.is_alive():
            self.server.request_stop(drain=drain)
            self._thread.join(timeout=timeout)

    @property
    def address(self) -> Tuple:
        return self.server.address

    @property
    def stats(self):
        return self.server.stats

    def __enter__(self) -> "ServerThread":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()


class DaemonThread(ServerThread):
    """One :class:`OptimizationDaemon` on a background thread."""

    def __init__(self, config: Optional[ServeConfig] = None):
        super().__init__(OptimizationDaemon(config))

    @property
    def daemon(self) -> OptimizationDaemon:
        return self.server
