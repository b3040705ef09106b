"""``repro serve``: the long-running optimization-as-a-service daemon.

Architecture (one asyncio event loop, one dispatch thread, N worker
processes)::

    client --- JSON lines ---> connection handler --+
    client --- JSON lines ---> connection handler --+--> admission
                                                         |
                                 +-----------------------+
                                 |                       |
                      memo hit (a repeat): one     miss: admission queue
                      cache lookup, the memoized         |
                      answer, its future           batcher task: take the
                      resolved at once             first miss and whatever
                                 |                 else is queued (up to
                                 |                 max_batch), group by
                                 |                 pipeline config, then
                                 |                       |
                                 |                 compile_many(..., executor=
                                 |                 persistent process pool,
                                 |                 cache=shared warm cache,
                                 |                 on_error="capture")
                                 |                       |
    client <-- response lines (arrival order) <-- per-request futures

Only misses reach the batcher.  A repeat of a request shape the daemon
has compiled is answered at admission from its memo, at the cost of
one cache lookup.  A miss is dispatched the moment the batcher is free:
no timer holds it back, and misses that arrive while a batch compiles
go out together as the next one.  Every client and worker process
shares one warm cache: the first compile of a program pays the
pipeline, every repeat — from any client, any connection, any worker
process — is a cache hit.
Responses stream back per request as each future resolves; a
connection's responses always come back in its request-arrival order,
so clients may pipeline arbitrarily deep.

With ``jobs > 1`` every worker process is spawned and has imported the
compile path before the socket binds, so no client pays a worker's
start-up.

Graceful degradation is deliberate and tested: malformed or oversized
requests get structured error responses, a client disconnecting
mid-stream only increments a counter, cache-directory loss degrades
the store to memory-only, and shutdown drains every admitted request
before closing connections.
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
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

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

#: admission backpressure: requests queued beyond this are rejected
QUEUE_LIMIT = 4096
#: how long ``stop(drain=True)`` lets the event loop keep admitting
#: already-readable sockets before refusing new work — shrinks the
#: window in which a request racing the stop call is dropped
DRAIN_GRACE = 0.05


@dataclass
class ServeConfig:
    """Everything that shapes one daemon instance."""

    socket_path: Optional[str] = None   # unix domain socket (default)
    host: Optional[str] = None          # or TCP on host:port
    port: int = 0
    jobs: int = 1                       # compile worker processes
    cache_dir: Optional[str] = None     # shared warm cache (None: temp)
    max_memory_entries: int = 4096
    max_batch: int = 16                 # most misses in one dispatch
    kernel: str = "6.5"
    #: idle TTL for cache entries (seconds; None = keep forever)
    cache_ttl: Optional[float] = None
    #: disk-store size budget enforced by the periodic sweep
    cache_max_bytes: Optional[int] = None
    #: how often the eviction sweep runs when either bound is set
    sweep_interval: float = 5.0

    def __post_init__(self):
        if self.jobs < 1:
            raise ValueError("jobs must be >= 1")
        if self.max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if self.kernel not in KERNELS:
            raise ValueError(f"unknown kernel {self.kernel!r}")
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
            # nothing lingers: perfbench's serve workload reads this key
            # as the unscaled part of each latency (ROADMAP item 4
            # removes it)
            "max_delay_ms": 0,
            "kernel": self.kernel,
            "cache_dir": self.cache_dir,
            "cache_ttl_seconds": self.cache_ttl,
            "cache_max_bytes": self.cache_max_bytes,
        }


class _Pending:
    """One admitted compile request and the future its answer resolves."""

    __slots__ = ("request", "future", "enqueued", "dispatched")

    def __init__(self, request: Request, future: "asyncio.Future"):
        self.request = request
        self.future = future
        self.enqueued = time.monotonic()
        self.dispatched = 0.0


class _Connection:
    """Per-client state: a FIFO of response futures and one writer.

    Futures resolve to encoded response lines, so the writer only
    writes them."""

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


def _worker_ready() -> int:
    """A pool worker's start-up call, answered with its pid.  A worker
    imports this module, and with it the compile path, to unpickle it."""
    return os.getpid()


class OptimizationDaemon:
    """The asyncio service around :func:`repro.core.batch.compile_many`."""

    def __init__(self, config: Optional[ServeConfig] = None):
        self.config = config or ServeConfig()
        self.stats = ServiceStats()
        self._own_cache_dir: Optional[str] = None
        cache_dir = self.config.cache_dir
        if cache_dir is None and self.config.jobs > 1:
            # worker processes share the warm cache through disk only
            cache_dir = self._own_cache_dir = tempfile.mkdtemp(
                prefix="repro-serve-cache-")
        self.cache = CompilationCache(
            directory=cache_dir,
            max_memory_entries=self.config.max_memory_entries,
            ttl_seconds=self.config.cache_ttl,
            max_disk_bytes=self.config.cache_max_bytes)
        self._pipelines: Dict[tuple, MerlinPipeline] = {}
        # LRU memo, request shape -> (cache key, answer): a repeat
        # request skips the frontend and the batcher, and is answered
        # at admission while its cache entry is live
        self._source_keys: "OrderedDict[tuple, Tuple[str, dict]]" = \
            OrderedDict()
        self._queue = FairAdmissionQueue(maxsize=QUEUE_LIMIT)
        self._batcher_task: Optional[asyncio.Task] = None
        self._sweep_task: Optional[asyncio.Task] = None
        self._dispatch_thread = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-serve-dispatch")
        self._pool: Optional[ProcessPoolExecutor] = None
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
    def _pipeline_for(self, request: Request) -> MerlinPipeline:
        key = request.config_key
        pipeline = self._pipelines.get(key)
        if pipeline is None:
            enabled = key[1] if key[1] is not None else ALL_OPTIMIZERS
            pipeline = MerlinPipeline(kernel=KERNELS[key[0]],
                                      enabled=frozenset(enabled))
            self._pipelines[key] = pipeline
        return pipeline

    async def start(self) -> None:
        """Start the workers, the batcher and the sweeper, then bind the
        socket; returns once ready."""
        self._loop = asyncio.get_running_loop()
        self._stopped = asyncio.Event()
        if self.config.jobs > 1:
            # spawn (not fork): the daemon is multi-threaded by design
            self._pool = ProcessPoolExecutor(
                max_workers=self.config.jobs,
                mp_context=multiprocessing.get_context("spawn"))
            await self._start_workers()
        self._batcher_task = asyncio.ensure_future(self._batch_loop())
        if self.config.cache_ttl is not None \
                or self.config.cache_max_bytes is not None:
            self._sweep_task = asyncio.ensure_future(self._sweep_loop())
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

    async def _start_workers(self) -> set:
        """Have every pool worker answer once; returns their pids.

        The pool spawns a worker only when a call needs one, and a
        worker loads the compile path only with its first call, so
        without this the first misses pay a spawn and an import.  One
        ready worker can take every call while a sibling still starts,
        so rounds of calls repeat until each worker has answered.
        """
        ready: set = set()
        while len(ready) < self.config.jobs:
            ready.update(await asyncio.gather(*[
                self._loop.run_in_executor(self._pool, _worker_ready)
                for _ in range(self.config.jobs)]))
        return ready

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        await self._stopped.wait()

    async def _sweep_loop(self) -> None:
        """Periodic TTL/size-budget eviction over the shared store.

        The walk runs off-loop (default thread executor) so a large
        tree never stalls request handling; the sweep itself is safe
        against concurrent sweepers in other processes — the tombstone
        rename arbitrates every removal.
        """
        while not self._stopping:
            await asyncio.sleep(self.config.sweep_interval)
            if self._stopping:
                break
            try:
                await self._loop.run_in_executor(None, self.cache.sweep)
            except Exception:  # pragma: no cover - sweep is best-effort
                pass

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
        if self._fast_path(pending):
            # a memoized repeat is answered at admission, and the
            # writer still sends it in arrival order behind any
            # earlier miss on this connection
            self.stats.queue_latency.observe(0.0)
            conn.enqueue(future)
            return
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
    async def _batch_loop(self) -> None:
        """Work-conserving dispatch: await the first queued miss, take
        whatever else is already queued (up to ``max_batch``, in the
        fair queue's priority and tenant order) and dispatch at once.

        No timer holds a miss back; misses that arrive while a batch
        compiles form the next batch.  The ``_STOP`` sentinel ends the
        loop once every miss queued before it was dispatched.
        """
        stopping = False
        while not (stopping and self._queue.empty()):
            item = await self._queue.get()
            batch: List[_Pending] = []
            while True:
                if item is _STOP:
                    stopping = True
                else:
                    batch.append(item)
                if len(batch) >= self.config.max_batch \
                        or self._queue.empty():
                    break
                item = self._queue.get_nowait()
            if batch:
                await self._dispatch(batch)

    # one memo entry per distinct request shape; bounded like the cache
    _MEMO_LIMIT = 8192

    def _memo_key(self, request: Request) -> tuple:
        return (request.source, request.entry, request.name,
                request.prog_type, request.mcpu, request.ctx_size,
                request.asm, request.pgo, request.superopt,
                request.config_key)

    def _fast_path(self, pending: _Pending) -> bool:
        """Answer a repeat request from the memo, if its entry is live.

        The content-addressed cache key hashes canonical IR, so a
        plain lookup still pays the full frontend.  The daemon sees
        identical *source text* over and over (the Zipf head), so it
        memoizes request shape -> (cache key, answer) after the first
        compile and serves repeats without parsing anything.  The
        answer depends only on the stored program/report and on fields
        in the memo key, so it is built once; a hit still looks its
        cache key up (without deserializing), so an evicted or expired
        entry falls through to a compile and the cache counts the hit.
        Entries stored under a ``validate=True`` key were certified at
        store time, so replaying the raise check is unnecessary here.
        """
        memo = self._memo_key(pending.request)
        answer = self._source_keys.get(memo)
        if answer is None:
            return False
        key, result = answer
        if self.cache.lookup(key) is None:
            return False
        self._source_keys.move_to_end(memo)
        self.stats.fast_path_hits += 1
        self._serve(pending, result)
        return True

    def _memoize(self, request: Request, key: Optional[str],
                 result: dict) -> None:
        if key is None:
            return
        memo = self._memo_key(request)
        # a repeat is served from the cache: its answer says so
        self._source_keys[memo] = (key, dict(result, cached=True))
        self._source_keys.move_to_end(memo)
        while len(self._source_keys) > self._MEMO_LIMIT:
            self._source_keys.popitem(last=False)

    async def _dispatch(self, batch: List[_Pending]) -> None:
        """Group one admitted batch by pipeline config and compile each
        request shape once.

        The first request of each ``_memo_key`` compiles; its copies in
        the batch are answered with its result as fast-path hits
        (``cached: true``), or with its error.
        """
        now = time.monotonic()
        for pending in batch:
            pending.dispatched = now
            self.stats.queue_latency.observe(now - pending.enqueued)
        shapes: Dict[tuple, List[_Pending]] = {}
        for pending in batch:
            if not self._fast_path(pending):
                shapes.setdefault(self._memo_key(pending.request),
                                  []).append(pending)
        groups: Dict[tuple, List[List[_Pending]]] = {}
        for same in shapes.values():
            groups.setdefault(same[0].request.config_key,
                              []).append(same)
        for key, members in groups.items():
            firsts = [same[0] for same in members]
            pipeline = self._pipeline_for(firsts[0].request)
            jobs = [CompileJob(name=p.request.name, source=p.request.source,
                               entry=p.request.entry,
                               prog_type=p.request.prog_type,
                               mcpu=p.request.mcpu,
                               ctx_size=p.request.ctx_size,
                               pgo=p.request.pgo,
                               superopt=p.request.superopt)
                    for p in firsts]
            validate = firsts[0].request.validate
            worker_jobs = self.config.jobs if self._pool is not None else 1
            call = lambda: compile_many(  # noqa: E731 - bound per group
                pipeline, jobs, jobs=worker_jobs, cache=self.cache,
                executor=self._pool, validate=validate,
                on_error="capture")
            try:
                report = await self._loop.run_in_executor(
                    self._dispatch_thread, call)
            except Exception as exc:  # pool died, pickle failure, ...
                for same in members:
                    for pending in same:
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
            for index, (first, *copies) in enumerate(members):
                if index >= len(report.programs):
                    self._fail([first, *copies], "internal",
                               "batch report shorter than the request group")
                    continue
                program = report.programs[index]
                rep = report.reports[index]
                error = (report.errors[index]
                         if index < len(report.errors) else None)
                if error is not None or rep is None:
                    self._fail([first, *copies], "compile-error",
                               error or "no result for request")
                    continue
                result = self._payload(first.request, program, rep)
                self._memoize(first.request, rep.cache_key, result)
                self._serve(first, result)
                hit = dict(result, cached=True)
                for pending in copies:
                    self.stats.fast_path_hits += 1
                    self._serve(pending, hit)

    def _serve(self, pending: _Pending, result: dict) -> None:
        self.stats.compiles_completed += 1
        self.stats.observe_served(pending.request.tenant,
                                  pending.request.priority)
        self._finish(pending, protocol.ok_response(pending.request.id,
                                                   result))

    def _fail(self, requests: List[_Pending], code: str,
              message: str) -> None:
        for pending in requests:
            self.stats.compile_errors += 1
            self._finish(pending, protocol.error_response(
                pending.request.id, code, message))

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
    async def stop(self, drain: bool = True) -> None:
        """Stop accepting, settle every admitted request (answered when
        *drain*, rejected otherwise), flush and close every connection,
        then shut the dispatch thread and the workers down."""
        if self._stop_requested:
            await self._stopped.wait()
            return
        self._stop_requested = True
        if drain:
            # let the loop process sockets that are already readable
            # (accepts and buffered request lines that raced this call)
            # so they are admitted and drained instead of dropped
            await asyncio.sleep(DRAIN_GRACE)
        self._stopping = True
        if self._server is not None:
            # close() alone stops the accept loop.  wait_closed() must
            # come *after* connection teardown: from Python 3.12 it
            # also waits for every accepted transport to detach, so
            # awaiting it here deadlocks against a client that holds
            # its connection open across the drain.
            self._server.close()
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
        self._dispatch_thread.shutdown(wait=True)
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
        if self._own_cache_dir is not None:
            shutil.rmtree(self._own_cache_dir, ignore_errors=True)
        self.final_snapshot = self.snapshot()
        if self.config.socket_path is not None:
            with contextlib.suppress(OSError):
                os.unlink(self.config.socket_path)
        self._stopped.set()

    def request_stop(self, drain: bool = True) -> None:
        """Thread-safe stop trigger (for signal handlers / test code)."""
        if self._loop is not None:
            asyncio.run_coroutine_threadsafe(self.stop(drain=drain),
                                             self._loop)


class DaemonThread:
    """Run one :class:`OptimizationDaemon` on a private event loop in a
    background thread.  The pattern tests and the bench harness use::

        with DaemonThread(ServeConfig()) as daemon:
            client = ServeClient(daemon.address)
            ...
    """

    def __init__(self, config: Optional[ServeConfig] = None):
        self.daemon = OptimizationDaemon(config)
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
        await self.daemon.start()
        self._ready.set()
        await self.daemon.serve_forever()

    def start(self) -> "DaemonThread":
        self._thread.start()
        if not self._ready.wait(timeout=120):
            raise RuntimeError("daemon failed to start in time")
        if self._error is not None:
            raise RuntimeError("daemon failed to start") from self._error
        return self

    def stop(self, drain: bool = True, timeout: float = 120.0) -> None:
        if self._thread.is_alive():
            self.daemon.request_stop(drain=drain)
            self._thread.join(timeout=timeout)

    @property
    def address(self) -> Tuple:
        return self.daemon.address

    def __enter__(self) -> "DaemonThread":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()
