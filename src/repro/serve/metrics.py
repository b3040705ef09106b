"""Service-side metrics: latency percentiles, throughput, counters.

Everything here is mutated only from the daemon's event-loop thread
and snapshotted into plain dicts for the ``stats`` endpoint, so no
locking is needed.  The latency reservoir keeps the most recent
*window* observations — a production-scale daemon must report p99
without unbounded memory growth, which the soak test checks via RSS.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, Optional


def percentile(sorted_values, q: float) -> float:
    """Nearest-rank percentile over an already-sorted sequence."""
    if not sorted_values:
        return 0.0
    rank = max(0, min(len(sorted_values) - 1,
                      int(round(q / 100.0 * (len(sorted_values) - 1)))))
    return sorted_values[rank]


class LatencyReservoir:
    """Sliding window of request latencies (seconds in, ms out)."""

    def __init__(self, window: int = 4096):
        self.window = window
        self._values: Deque[float] = deque(maxlen=window)
        self.count = 0
        self.total_seconds = 0.0
        self.max_seconds = 0.0

    def observe(self, seconds: float) -> None:
        self._values.append(seconds)
        self.count += 1
        self.total_seconds += seconds
        if seconds > self.max_seconds:
            self.max_seconds = seconds

    def snapshot(self) -> Dict[str, float]:
        values = sorted(self._values)
        ms = 1000.0
        return {
            "count": self.count,
            "window": len(values),
            "p50_ms": round(percentile(values, 50) * ms, 3),
            "p90_ms": round(percentile(values, 90) * ms, 3),
            "p99_ms": round(percentile(values, 99) * ms, 3),
            "p999_ms": round(percentile(values, 99.9) * ms, 3),
            "max_ms": round(self.max_seconds * ms, 3),
            "mean_ms": round(self.total_seconds / self.count * ms, 3)
            if self.count else 0.0,
        }


@dataclass
class ServiceStats:
    """Counters the daemon accumulates and serves via ``stats``."""

    started_at: float = field(default_factory=time.monotonic)
    requests_received: int = 0
    responses_sent: int = 0
    compiles_completed: int = 0
    fast_path_hits: int = 0    # answered via the source->key memo
    compile_errors: int = 0
    protocol_errors: int = 0
    rejected: int = 0          # not admitted (daemon draining)
    disconnects: int = 0       # client vanished before its response
    connections_opened: int = 0
    connections_closed: int = 0
    compiles_dispatched: int = 0   # misses sent to the executor
    peak_queue_depth: int = 0   # high-water mark of the admission queue
    busy_seconds: float = 0.0  # summed wall time of those compiles
    latency: LatencyReservoir = field(default_factory=LatencyReservoir)
    queue_latency: LatencyReservoir = field(
        default_factory=lambda: LatencyReservoir(window=4096))
    #: completed compiles per tenant (bounded: overflow folds into
    #: ``__other__`` so a tenant-per-request abuser can't grow us)
    tenant_served: Dict[str, int] = field(default_factory=dict)
    #: completed compiles per priority class
    priority_served: Dict[int, int] = field(default_factory=dict)

    TENANT_CARDINALITY_LIMIT = 512

    def observe_dispatch(self, wall_seconds: float) -> None:
        self.compiles_dispatched += 1
        self.busy_seconds += wall_seconds

    def observe_served(self, tenant: str, priority: int) -> None:
        key = tenant or "__default__"
        if key not in self.tenant_served and \
                len(self.tenant_served) >= self.TENANT_CARDINALITY_LIMIT:
            key = "__other__"
        self.tenant_served[key] = self.tenant_served.get(key, 0) + 1
        self.priority_served[priority] = \
            self.priority_served.get(priority, 0) + 1

    @property
    def uptime_seconds(self) -> float:
        return time.monotonic() - self.started_at

    def snapshot(self, queue_depth: int = 0,
                 cache_stats: Optional[dict] = None,
                 config: Optional[dict] = None) -> dict:
        uptime = max(self.uptime_seconds, 1e-9)
        out = {
            "uptime_seconds": round(uptime, 3),
            "requests": {
                "received": self.requests_received,
                "responded": self.responses_sent,
                "compiles": self.compiles_completed,
                "fast_path_hits": self.fast_path_hits,
                "compile_errors": self.compile_errors,
                "protocol_errors": self.protocol_errors,
                "rejected": self.rejected,
                "disconnects": self.disconnects,
            },
            "connections": {
                "opened": self.connections_opened,
                "closed": self.connections_closed,
            },
            "queue": {"depth": queue_depth,
                      "peak_depth": self.peak_queue_depth},
            # one compile per dispatch; perfbench's serve workload reads
            # both keys (ROADMAP item 4 retires the section)
            "batches": {
                "dispatched": self.compiles_dispatched,
                "requests": self.compiles_dispatched,
            },
            "fairness": {
                "tenants_seen": len(self.tenant_served),
                "served_by_tenant": dict(sorted(
                    self.tenant_served.items(),
                    key=lambda kv: -kv[1])[:32]),
                "served_by_priority": {
                    str(k): v
                    for k, v in sorted(self.priority_served.items())},
            },
            "throughput": {
                "programs_per_second": round(
                    self.compiles_completed / uptime, 3),
                "busy_programs_per_second": round(
                    self.compiles_completed / self.busy_seconds, 3)
                if self.busy_seconds else 0.0,
                "busy_seconds": round(self.busy_seconds, 3),
            },
            "latency": self.latency.snapshot(),
            "queue_wait": self.queue_latency.snapshot(),
        }
        if cache_stats is not None:
            out["cache"] = cache_stats
        if config is not None:
            out["config"] = config
        return out
