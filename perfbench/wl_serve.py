"""The ``serve`` workload (open loop, one connection, two threads).

A ``repro serve`` daemon runs in its own process with the default
configuration (one compile worker, 10 ms admission linger, in-memory
cache) on a unix socket inside the checkout.  Setup starts it and
pre-warms it, one request at a time, with a pool of XDP and suite
programs.  The window then replays a seeded schedule of ``RATE``
requests/s: a Poisson stream of Zipf-skewed repeats of the pool (warm
ops), and one program the daemon has never seen (a cold op) in every
``NEW_SLOT_S`` slot, at a seeded time in the middle half of the slot,
so new programs never queue behind each other and every run holds the
same number of them.  A sender thread sends each request at its due
time and a receiver thread reads the responses; every latency is
measured from the request's due time, so a stalled sender or daemon
shows up in later requests too.  Errored, refused and unanswered
requests fail and count as misses at the time the run gave up on them.
"""

from __future__ import annotations

import dataclasses
import json
import os
import re
import select
import socket
import subprocess
import sys
import threading
import time
from typing import List, Optional

from common import derived_seed, quantile, rng_for, vm_hwm_mib
from programs import suite_draw, xdp_programs
from workload import RunRecord, oracle_check

#: requests per second, repeats and new programs together
RATE = 150.0
#: one never-seen program per slot of this many seconds: enough cold
#: ops for a steady median, few enough that repeats seldom wait behind
#: a compile
NEW_SLOT_S = 0.1
#: how many of the smallest XDP programs the new requests redeploy
NEW_BASES = 4
ZIPF_S = 1.1
#: a run whose sender ran later than this at p99 is marked invalid
#: (the shared host stalls a core for 10-20 ms now and then)
LATENESS_BOUND_MS = 25.0
#: how long after the last due time the run waits for responses
DRAIN_S = 30.0
_START_TIMEOUT_S = 60.0


class _Lines:
    """Newline-framed reads from a blocking socket, polled so a reader
    can give up at a deadline."""

    def __init__(self, sock: socket.socket):
        self.sock = sock
        self.buffer = b""

    def readline(self, poll_s: float = 0.5) -> Optional[bytes]:
        """One line, b"" on EOF, None when nothing arrived in *poll_s*."""
        while b"\n" not in self.buffer:
            if not select.select([self.sock], [], [], poll_s)[0]:
                return None
            chunk = self.sock.recv(1 << 16)
            if not chunk:
                return b""
            self.buffer += chunk
        line, self.buffer = self.buffer.split(b"\n", 1)
        return line


class Daemon:
    """One ``repro serve`` process and a connection to it."""

    def __init__(self, trace_out: Optional[str] = None):
        tmp = os.path.join(".perfbench", "tmp")
        os.makedirs(tmp, exist_ok=True)
        tag = f"{os.getpid()}-{time.monotonic_ns() & 0xffffff:x}"
        self.socket_path = os.path.join(tmp, f"serve-{tag}.sock")
        self.stats_path = os.path.join(tmp, f"serve-{tag}.stats.json")
        self.log_path = os.path.join(tmp, f"serve-{tag}.log")
        args = ["serve", "--socket", self.socket_path,
                "--stats-out", self.stats_path]
        if trace_out is None:
            argv = [sys.executable, "-m", "repro"] + args
        else:
            shim = os.path.join(os.path.dirname(__file__), "serve_shim.py")
            argv = [sys.executable, shim, trace_out] + args
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, ["src", env.get("PYTHONPATH")]))
        self._log = open(self.log_path, "wb")
        self.proc = subprocess.Popen(argv, env=env, stdout=self._log,
                                     stderr=subprocess.STDOUT)
        self.sock = self._connect()
        self.lines = _Lines(self.sock)
        self._ids = 0

    def _connect(self) -> socket.socket:
        deadline = time.monotonic() + _START_TIMEOUT_S
        while True:
            if self.proc.poll() is not None:
                raise RuntimeError(f"repro serve exited with "
                                   f"{self.proc.returncode}")
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            try:
                sock.connect(self.socket_path)
                return sock
            except OSError:
                sock.close()
                if time.monotonic() > deadline:
                    raise
                time.sleep(0.02)

    def call(self, request: dict, timeout: float = 120.0) -> dict:
        """One closed-loop request."""
        self._ids += 1
        request = dict(request, id=f"c{self._ids}")
        self.sock.sendall(json.dumps(request).encode() + b"\n")
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            line = self.lines.readline()
            if line == b"":
                raise RuntimeError("daemon closed the connection")
            if line is not None:
                return json.loads(line)
        raise TimeoutError(f"no response to {request['op']}")

    def call_many(self, requests: List[dict],
                  timeout: float = 120.0) -> List[Optional[dict]]:
        """Pipelined requests: send them all, then read the responses
        (in order, on one connection); None where none arrived."""
        first = self._ids + 1
        self._ids += len(requests)
        self.sock.sendall(b"".join(
            json.dumps(dict(request, id=f"c{first + k}")).encode() + b"\n"
            for k, request in enumerate(requests)))
        responses: List[Optional[dict]] = [None] * len(requests)
        deadline = time.monotonic() + timeout
        pending = len(requests)
        while pending and time.monotonic() < deadline:
            line = self.lines.readline()
            if line == b"":
                break
            if line is None:
                continue
            obj = json.loads(line)
            ident = obj.get("id")
            if not (isinstance(ident, str) and ident[1:].isdigit()):
                continue
            index = int(ident[1:]) - first
            if 0 <= index < len(requests) and responses[index] is None:
                responses[index] = obj
                pending -= 1
        return responses

    def peak_rss_mib(self) -> float:
        return vm_hwm_mib(self.proc.pid)

    def shutdown(self) -> Optional[dict]:
        """Stop with the ``shutdown`` op; returns the final stats
        snapshot the daemon wrote on exit."""
        final = None
        try:
            self.call({"op": "shutdown"}, timeout=30.0)
            self.proc.wait(timeout=60.0)
            with open(self.stats_path) as handle:
                final = json.load(handle)
        except (OSError, ValueError, RuntimeError,
                subprocess.TimeoutExpired):
            pass
        finally:
            self.close()
        return final

    def close(self) -> None:
        """Idempotent hard stop: the process is gone when this returns."""
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=10.0)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.sock.close()
        self._log.close()
        for path in (self.socket_path, self.stats_path, self.log_path):
            try:
                os.unlink(path)
            except OSError:
                pass


def pools(seed: int):
    """The pre-warmed pool, and the programs new requests redeploy.

    A new request redeploys one of the smallest XDP programs under a
    fresh entry name: text the daemon has never seen (the entry name is
    part of the cache key) that compiles in tens of milliseconds, so the
    head-of-line wait it causes stays short and repeats run to run."""
    xdp = xdp_programs()
    # three size-stratified programs per suite, so the pre-warm's cost
    # (in setup_s) depends little on the draw
    pool = xdp + suite_draw(seed, "serve-pool", per_suite=3, scale=0.1,
                            max_target_ni=600)
    bases = sorted(xdp, key=lambda p: len(p.source))[:NEW_BASES]
    rng_for(seed, "serve:new").shuffle(bases)
    return pool, bases


def fresh_program(bases: list, k: int):
    """The k-th new program of a run: base ``k mod NEW_BASES`` renamed."""
    base = bases[k % len(bases)]
    entry = f"{base.entry}_r{k}"
    source = re.sub(rf"\b{re.escape(base.entry)}\b", entry, base.source)
    return dataclasses.replace(base, name=f"{base.name}:r{k}",
                               source=source, entry=entry)


def setup(seed: int, clock, record: Optional[RunRecord],
          trace_out: Optional[str] = None) -> dict:
    pool, bases = pools(seed)
    clock.calibrate()
    daemon = Daemon(trace_out)
    try:
        for prog in pool:
            clock.calibrate()
            response = daemon.call(dict(op="compile", **prog.request()))
            if record is not None:
                record.attempted += 1
            if not response.get("ok"):
                raise RuntimeError(f"pre-warm {prog.name}: "
                                   f"{response.get('error')}")
    except BaseException:
        daemon.close()
        raise
    return {"daemon": daemon, "pool": pool, "bases": bases}


def schedule(seed: int, seconds: float, pool: list, bases: list) -> list:
    """(due offset s, program, is_new) for every request of the window."""
    slots = int(seconds / NEW_SLOT_S)
    if slots < 2 * NEW_BASES:
        raise ValueError("serve: window too short for the schedule")
    place = rng_for(seed, "serve:new-at")
    out = [((k + 0.25 + 0.5 * place.random()) * NEW_SLOT_S,
            fresh_program(bases, k), True) for k in range(slots)]
    rng = rng_for(seed, "serve:arrivals")
    pick = rng_for(seed, "serve:mix")
    order = list(pool)
    pick.shuffle(order)  # which pool program is the Zipf head
    weights = [1.0 / (rank + 1) ** ZIPF_S for rank in range(len(order))]
    repeat_rate = RATE - 1.0 / NEW_SLOT_S
    t = rng.expovariate(repeat_rate)
    while t < slots * NEW_SLOT_S:
        out.append((t, pick.choices(order, weights)[0], False))
        t += rng.expovariate(repeat_rate)
    out.sort(key=lambda item: item[0])
    return out


def run(state: dict, seed: int, seconds: float, clock, tracer,
        record: RunRecord) -> RunRecord:
    daemon: Daemon = state["daemon"]
    plan = schedule(seed, seconds, state["pool"], state["bases"])
    lines = [json.dumps(dict(op="compile", id=index,
                             **prog.request())).encode() + b"\n"
             for index, (_due, prog, _new) in enumerate(plan)]
    before = daemon.call({"op": "stats"})["result"]
    # the admission linger is a wall-clock timer: the speed
    # normalization leaves that much of each latency unscaled
    record.fixed_wait_s = before["config"]["max_delay_ms"] / 1000.0
    sent = [0.0] * len(plan)
    sent_at = [0.0] * len(plan)  # on the speed clock
    received: List[Optional[float]] = [None] * len(plan)
    responses: List[Optional[dict]] = [None] * len(plan)
    base = time.perf_counter() + 0.05
    deadline = base + plan[-1][0] + DRAIN_S

    def sender() -> None:
        for index, (due, _prog, _new) in enumerate(plan):
            wait = base + due - time.perf_counter()
            if wait > 0:
                time.sleep(wait)
            sent[index] = time.perf_counter()
            sent_at[index] = clock.now()
            daemon.sock.sendall(lines[index])

    def receiver() -> None:
        pending = len(plan)
        while pending and time.perf_counter() < deadline:
            line = daemon.lines.readline()
            if line == b"":
                return
            if line is None:
                continue
            now = time.perf_counter()
            obj = json.loads(line)
            index = obj.get("id")
            if isinstance(index, int) and 0 <= index < len(plan) \
                    and received[index] is None:
                received[index] = now
                responses[index] = obj
                pending -= 1

    window_start = clock.now()
    threads = [threading.Thread(target=sender, name="perfbench-send"),
               threading.Thread(target=receiver, name="perfbench-recv")]
    for thread in threads:
        thread.start()
    # sample host speed while the window runs; each sample holds the
    # interpreter lock for about a millisecond, which the sender's
    # lateness figures include
    while threads[0].is_alive():
        clock.calibrate()
        time.sleep(0.1)
    for thread in threads:
        thread.join(timeout=seconds + DRAIN_S + 30.0)
    if any(thread.is_alive() for thread in threads):
        raise RuntimeError("serve: load generator did not finish")
    record.window_s = clock.now() - window_start
    tracer.active = False

    lateness_ms = [(sent[i] - (base + due)) * 1000.0
                   for i, (due, _p, _n) in enumerate(plan)]
    for index, (due, prog, is_new) in enumerate(plan):
        record.attempted += 1
        response = responses[index]
        if response is None:
            record.fail(prog.name, f"request {index} unanswered")
            latency = deadline - (base + due)
        elif not response.get("ok"):
            record.fail(prog.name, f"request {index}: "
                                   f"{response.get('error')}")
            latency = deadline - (base + due)
        else:
            latency = received[index] - (base + due)
        (record.cold if is_new else record.warm).append(
            (sent_at[index], latency))

    after = daemon.call({"op": "stats"})["result"]
    record.peak_rss_mib = daemon.peak_rss_mib()
    # untimed: the bytecode the daemon serves for each distinct program
    # (``asm`` is part of the memo key, so these replies come from the
    # cache, not the window's fast path)
    distinct = [p for p in state["pool"]] \
        + [p for _due, p, is_new in plan if is_new]
    replies = daemon.call_many([dict(op="compile", asm=True, **p.request())
                                for p in distinct])
    served = []
    for prog, response in zip(distinct, replies):
        if response is not None and response.get("ok"):
            served.append((prog, response["result"]))
        else:
            record.fail(prog.name, "asm request: "
                        + (response.get("error") if response else "no reply"))
    final = daemon.shutdown()
    late_p99 = quantile(lateness_ms, 0.99)
    valid = late_p99 <= LATENESS_BOUND_MS
    compile_ms = [r["result"]["compile_ms"] for r, (_d, _p, new)
                  in zip(responses, plan) if new and r and r.get("ok")]
    record.info.update(
        new_compile_ms_p50=quantile(compile_ms, 0.5) if compile_ms else None,
        requests=len(plan), rate=RATE, new_requests=len(compile_ms),
        sender_late_ms_p99=late_p99, sender_late_ms_max=max(lateness_ms),
        lateness_bound_ms=LATENESS_BOUND_MS, valid=valid,
        final_stats=final)
    if not valid:
        print(f"serve: run INVALID: sender lateness p99 {late_p99:.2f} ms "
              f"exceeds {LATENESS_BOUND_MS} ms", flush=True)
    record.layers.update(_serve_layers(before, after, late_p99))
    _check(record, served, {p.name for p in state["pool"]}, seed)
    return record


def _serve_layers(before: dict, after: dict, late_p99: float) -> dict:
    def delta(section: str, key: str) -> float:
        return after[section][key] - before[section][key]

    cache = after.get("cache", {})
    old_cache = before.get("cache", {})
    batches = delta("batches", "dispatched")
    return {
        "serve.queue_wait_ms_p50": after["queue_wait"]["p50_ms"],
        "serve.queue_wait_ms_p99": after["queue_wait"]["p99_ms"],
        "serve.fast_path_hits": delta("requests", "fast_path_hits"),
        "serve.compiles": delta("requests", "compiles"),
        "serve.batches": batches,
        "serve.batch_mean_size":
            delta("batches", "requests") / batches if batches else 0.0,
        "serve.busy_s": delta("throughput", "busy_seconds"),
        "serve.gen_late_ms_p99": late_p99,
        "cache.memory_hits": cache.get("memory_hits", 0)
            - old_cache.get("memory_hits", 0),
        "cache.disk_hits": cache.get("disk_hits", 0)
            - old_cache.get("disk_hits", 0),
        "cache.misses": cache.get("misses", 0) - old_cache.get("misses", 0),
    }


def _check(record: RunRecord, served: list, pool: set, seed: int) -> None:
    """Untimed: every distinct program's served bytecode must equal a
    local compile of the same request and pass the full oracle.  The
    pool's programs (which include every new program's base) give the
    verifier and cycle totals; a new program's oracle verdict is its
    base's when the two compile to the same bytecode."""
    from repro.core import MerlinPipeline
    from repro.frontend import compile_source
    from repro.isa import ProgramType, disassemble
    from repro.verifier import KERNELS, verify

    kernel = KERNELS["6.5"]
    pipeline = MerlinPipeline(kernel=kernel)
    battery_seed = derived_seed(seed, "serve:battery")
    exact = record.exact
    verdicts = {}  # (base name, asm) -> oracle divergence
    for prog, result in served:
        module = compile_source(prog.source, prog.name)
        program, _report = pipeline.compile(
            module.get(prog.entry), module,
            prog_type=ProgramType(prog.prog_type), mcpu=prog.mcpu,
            ctx_size=prog.ctx_size)
        asm = disassemble(program.insns)
        if asm != result.get("asm"):
            record.fail(prog.name, "served bytecode differs from a local "
                                   "compile")
            continue
        in_pool = prog.name in pool
        key = (prog.name if in_pool else prog.name.rsplit(":r", 1)[0], asm)
        if in_pool:
            exact.add_ni(result["ni_original"], result["ni_optimized"])
            exact.verifier_npi += verify(program, kernel).npi
        if in_pool or key not in verdicts:
            divergence, cycles, runs = oracle_check(prog, program,
                                                    battery_seed)
            verdicts[key] = divergence
            if in_pool:
                exact.cycles += cycles
                exact.runs += runs
        if verdicts[key] is not None:
            record.fail(prog.name, f"served program diverges from the "
                                   f"baseline build on test "
                                   f"{verdicts[key][0]}")
