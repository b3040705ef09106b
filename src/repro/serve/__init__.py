"""repro.serve — optimization-as-a-service.

A long-running asyncio daemon (``repro serve``) that accepts
compile/validate requests over a local socket (JSON lines), answers
repeats at admission, hands each miss to a compile worker the moment
one is free and answers it the moment it compiles, shares one warm
compilation cache across every client and worker process, streams
per-request results back, and reports hit-rate / queue depth /
latency-percentile / throughput metrics via a ``stats`` endpoint.
``--jobs N`` keeps up to N compiles in flight in N worker processes,
all started before the socket binds, on the one cache tree.

::

    from repro.serve import DaemonThread, ServeClient, ServeConfig

    with DaemonThread(ServeConfig()) as daemon:
        with ServeClient(daemon.address) as client:
            result = client.compile("u64 f(u8* ctx) { return 7; }")
            print(result["result"]["ni_optimized"])

Traffic comes from one module (:mod:`repro.serve.loadgen`): synthesize
a Zipf-skewed tenant trace from the fuzz generators (or load a
recorded one) and replay it, optionally with fault injection, against
a daemon; ``repro bench-serve`` drives it to produce
``BENCH_service.json`` (see :mod:`repro.eval.serviceperf`).
"""

from .client import Address, ServeClient, ServeError
from .daemon import DaemonThread, OptimizationDaemon, ServeConfig
from .fairness import FairAdmissionQueue
from .loadgen import (
    FaultPlan,
    PoolProgram,
    ReplayResult,
    TraceEvent,
    build_pool,
    load_trace,
    replay_trace,
    save_trace,
    synthesize_trace,
    zipf_stream,
)
from .metrics import LatencyReservoir, ServiceStats, percentile
from .protocol import (
    ERROR_CODES,
    MAX_LINE_BYTES,
    MAX_SOURCE_BYTES,
    PROTOCOL_VERSION,
    ProtocolError,
    Request,
    encode,
    decode,
    error_response,
    ok_response,
    parse_request,
)

__all__ = [
    "Address",
    "DaemonThread",
    "ERROR_CODES",
    "FairAdmissionQueue",
    "FaultPlan",
    "LatencyReservoir",
    "MAX_LINE_BYTES",
    "MAX_SOURCE_BYTES",
    "OptimizationDaemon",
    "PROTOCOL_VERSION",
    "PoolProgram",
    "ProtocolError",
    "ReplayResult",
    "Request",
    "ServeClient",
    "ServeConfig",
    "ServeError",
    "ServiceStats",
    "TraceEvent",
    "build_pool",
    "decode",
    "encode",
    "error_response",
    "load_trace",
    "ok_response",
    "parse_request",
    "percentile",
    "replay_trace",
    "save_trace",
    "synthesize_trace",
    "zipf_stream",
]
