"""``repro serve``: the long-running optimization-as-a-service daemon.

Architecture (one asyncio event loop, one executor: a dispatch thread
when ``jobs == 1``, ``jobs`` worker processes otherwise)::

    client --- JSON lines ---> connection handler --+
    client --- JSON lines ---> connection handler --+--> admission
                                                         |
                                 +-----------------------+
                                 |                       |
                      memo hit (a repeat): one     miss: fair admission
                      cache lookup, the memoized   queue (priority, then
                      answer, its future           tenant round-robin)
                      resolved at once                   |
                                 |                 dispatch loop: when one
                                 |                 of ``jobs`` slots is
                                 |                 free, take the next miss
                                 |                       |
                                 |                 compile_job on the
                                 |                 executor, shared warm
                                 |                 cache; copies of a shape
                                 |                 in flight share its answer
                                 |                       |
    client <-- response lines (arrival order) <-- per-request futures

Only misses reach the queue.  A repeat of a request shape the daemon
has compiled is answered at admission from its memo, at the cost of
one cache lookup.  A miss is dispatched the moment a worker is free and
answered the moment it compiles: at most ``jobs`` compiles are in
flight, no timer holds a miss back, and a copy of a request shape that
is compiling waits for that compile instead of taking a worker.  Every
client and worker process shares one warm cache: the first compile of
a program pays the pipeline, every repeat — from any client, any
connection, any worker process — is a cache hit.
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
from concurrent.futures import (Executor, ProcessPoolExecutor,
                                ThreadPoolExecutor)
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..cache import CompilationCache
from ..core.batch import (CompileJob, compile_job, compile_job_in_worker,
                          failure_cause)
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
#: compiled entries the daemon's cache keeps in memory
MEMORY_ENTRIES = 4096
#: how long ``stop(drain=True)`` lets the event loop keep admitting
#: already-readable sockets before refusing new work — shrinks the
#: window in which a request racing the stop call is dropped
DRAIN_GRACE = 0.05


@dataclass
class ServeConfig:
    """Everything that shapes one daemon instance."""

    #: unix domain socket; with no ``host`` either, the daemon makes a
    #: temp directory for one in ``start()`` and removes it in ``stop()``
    socket_path: Optional[str] = None
    host: Optional[str] = None          # or TCP on host:port
    port: int = 0
    jobs: int = 1                       # compiles in flight (processes)
    cache_dir: Optional[str] = None     # shared warm cache (None: temp)
    kernel: str = "6.5"

    def __post_init__(self):
        if self.jobs < 1:
            raise ValueError("jobs must be >= 1")
        if self.kernel not in KERNELS:
            raise ValueError(f"unknown kernel {self.kernel!r}")

    def describe(self) -> dict:
        return {
            "protocol_version": protocol.PROTOCOL_VERSION,
            "jobs": self.jobs,
            # nothing lingers: perfbench's serve workload reads this key
            # as the unscaled part of each latency (ROADMAP item 4
            # removes it)
            "max_delay_ms": 0,
            "kernel": self.kernel,
            "cache_dir": self.cache_dir,
        }


class _Pending:
    """One admitted compile request and the future its answer resolves."""

    __slots__ = ("request", "future", "enqueued")

    def __init__(self, request: Request, future: "asyncio.Future"):
        self.request = request
        self.future = future
        self.enqueued = time.monotonic()


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
    """The asyncio service around :func:`repro.core.batch.compile_job`."""

    def __init__(self, config: Optional[ServeConfig] = None):
        self.config = config or ServeConfig()
        self.stats = ServiceStats()
        self._own_cache_dir: Optional[str] = None
        self._own_socket_dir: Optional[str] = None
        self.cache = CompilationCache(
            directory=self.config.cache_dir,
            max_memory_entries=MEMORY_ENTRIES)
        self._pipelines: Dict[tuple, MerlinPipeline] = {}
        # LRU memo, request shape -> (cache key, answer): a repeat
        # request skips the frontend and the queue, and is answered
        # at admission while its cache entry is live
        self._source_keys: "OrderedDict[tuple, Tuple[str, dict]]" = \
            OrderedDict()
        # request shape -> the misses its one compile in flight answers
        self._compiling: Dict[tuple, List[_Pending]] = {}
        self._queue = FairAdmissionQueue(maxsize=QUEUE_LIMIT)
        self._dispatch_task: Optional[asyncio.Task] = None
        self._executor: Optional[Executor] = None
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
        """Start the executor (and every worker) and the dispatch loop,
        then bind the socket; returns once ready.  Temp directories the
        config leaves to the daemon (the socket's, and the cache tree
        the workers share) are made here and removed by ``stop()``."""
        self._loop = asyncio.get_running_loop()
        self._stopped = asyncio.Event()
        if self.config.jobs > 1:
            if self.cache.directory is None:
                # worker processes share the warm cache through disk only
                self.cache.directory = self._own_cache_dir = \
                    tempfile.mkdtemp(prefix="repro-serve-cache-")
            # spawn (not fork): the daemon is multi-threaded by design
            self._executor = ProcessPoolExecutor(
                max_workers=self.config.jobs,
                mp_context=multiprocessing.get_context("spawn"))
            await self._start_workers()
        else:
            self._executor = ThreadPoolExecutor(
                max_workers=1, thread_name_prefix="repro-serve-dispatch")
        self._dispatch_task = asyncio.ensure_future(self._dispatch_loop())
        path = self.config.socket_path
        if path is None and self.config.host is None:
            self._own_socket_dir = tempfile.mkdtemp(prefix="repro-serve-")
            path = os.path.join(self._own_socket_dir, "serve.sock")
        if path is not None:
            with contextlib.suppress(FileNotFoundError):
                os.unlink(path)
            self._server = await asyncio.start_unix_server(
                self._handle_connection, path=path,
                limit=protocol.MAX_LINE_BYTES)
            self.address = ("unix", path)
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
                self._loop.run_in_executor(self._executor, _worker_ready)
                for _ in range(self.config.jobs)]))
        return ready

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
        if self._fast_path(pending) or self._join(pending):
            # a memoized repeat is answered at admission, a copy of a
            # shape in flight by its compile, and the writer still
            # sends either in arrival order behind any earlier miss on
            # this connection
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

    # -------------------------------------------------------- dispatch
    async def _dispatch_loop(self) -> None:
        """Keep at most ``jobs`` compiles in flight.

        A free slot comes first, then the next miss in the fair queue's
        priority and tenant order, so every pick is ordered.  A miss
        that the memo answers now, or whose shape is compiling, gives
        its slot back at once.  The ``_STOP`` sentinel ends dispatch
        once the queue is empty; the loop then waits for the compiles
        in flight.
        """
        slots = asyncio.Semaphore(self.config.jobs)
        compiles: set = set()

        def finished(task: "asyncio.Task") -> None:
            compiles.discard(task)
            slots.release()

        stopping = False
        while not (stopping and self._queue.empty()):
            await slots.acquire()
            pending = await self._queue.get()
            if pending is _STOP:
                stopping = True
                slots.release()
                continue
            self.stats.queue_latency.observe(
                time.monotonic() - pending.enqueued)
            if self._fast_path(pending) or self._join(pending):
                slots.release()
                continue
            # claimed before the task runs: the next pick may be a
            # copy, and it must join this compile
            memo = self._memo_key(pending.request)
            self._compiling[memo] = [pending]
            task = asyncio.ensure_future(self._compile(memo))
            compiles.add(task)
            task.add_done_callback(finished)
        if compiles:
            await asyncio.wait(compiles)

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
        cache key up (without deserializing), so an evicted entry
        falls through to a compile and the cache counts the hit.
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

    def _join(self, pending: _Pending) -> bool:
        """Attach a miss to the compile of its shape, if one is in
        flight: that compile answers it."""
        waiting = self._compiling.get(self._memo_key(pending.request))
        if waiting is None:
            return False
        waiting.append(pending)
        return True

    async def _compile(self, memo: tuple) -> None:
        """Compile the miss that claimed *memo* on the executor, then
        answer it and every copy of its shape that joined meanwhile:
        the copies as fast-path hits (``cached: true``), or all with
        its error."""
        request = self._compiling[memo][0].request
        started = time.perf_counter()
        code = "compile-error"
        try:
            compiled, cause = await self._run(request)
        except Exception as exc:  # the pool died, a pickle failed, ...
            code, compiled, cause = "internal", None, \
                f"{type(exc).__name__}: {exc}"
        self.stats.observe_dispatch(time.perf_counter() - started)
        first, *copies = self._compiling.pop(memo)
        if compiled is None:
            self._fail([first, *copies], code, cause)
            return
        program, report = compiled
        result = self._payload(request, program, report)
        self._memoize(request, report.cache_key, result)
        self._serve(first, result)
        hit = dict(result, cached=True)
        for pending in copies:
            self.stats.fast_path_hits += 1
            self._serve(pending, hit)

    async def _run(self, request: Request) -> tuple:
        """One job on the executor: in this process against the
        daemon's cache, or in a worker on its own handle to the cache
        tree, whose counters join the daemon's.  Returns ``(program,
        report)`` and ``None``, or ``None`` and the job's failure
        cause."""
        pipeline = self._pipeline_for(request)
        job = CompileJob(name=request.name, source=request.source,
                         entry=request.entry, prog_type=request.prog_type,
                         mcpu=request.mcpu, ctx_size=request.ctx_size,
                         pgo=request.pgo, superopt=request.superopt)
        if self.config.jobs == 1:
            try:
                return await self._loop.run_in_executor(
                    self._executor, compile_job, pipeline, job,
                    self.cache, request.validate), None
            except Exception as exc:
                return None, failure_cause(exc)
        result, cause, stats = await self._loop.run_in_executor(
            self._executor, compile_job_in_worker, pipeline, job,
            self.cache.directory, request.validate)
        self.cache.stats.merge(stats)
        return result, cause

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
        *drain*; otherwise queued misses are rejected and compiles in
        flight still answer), flush and close every connection, then
        shut the executor down."""
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
        if self._dispatch_task is not None:
            await self._dispatch_task
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
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None
        self.final_snapshot = self.snapshot()
        if self.address is not None and self.address[0] == "unix":
            with contextlib.suppress(OSError):
                os.unlink(self.address[1])
        for own in (self._own_cache_dir, self._own_socket_dir):
            if own is not None:
                shutil.rmtree(own, ignore_errors=True)
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
