"""Service-mode benchmark: cold vs warm throughput under skewed load.

Starts one ``repro.serve`` daemon (``jobs`` worker processes) and
replays one trace against it twice — once against an empty cache
(*cold*) and once, the exact same request stream, against the
now-warm cache (*warm*).  The trace is either
synthesized (:func:`repro.serve.loadgen.synthesize_trace`: Zipf-skewed
tenant traffic over a pool of generated programs, every event due at
once, optional priority mix) or a recorded file.  The report carries
programs/sec, client-observed latency percentiles, cache hit rates
read from the daemon's ``stats`` op, per-tenant goodput, and a scan of
the daemon's disk cache tree for torn entries.  ``repro bench-serve``
drives this and emits ``BENCH_service.json``.

The pool is prefiltered through a full local compile (setup cost,
outside both timed phases), so every request in both phases is
expected to succeed; the cold run still enjoys within-run cache hits
on the Zipf head — that is the point of the skew — so the headline
``speedup`` understates the raw compile-vs-cache-hit ratio.  Each
phase therefore also reports ``fresh_latency_ms``: the latency of the
answers the daemon compiled (``cached: false``) on their own.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional

from ..cache import scan_cache_tree
from ..serve.client import ServeClient
from ..serve.daemon import DaemonThread, ServeConfig
from ..serve.loadgen import (
    FaultPlan,
    ReplayResult,
    build_pool,
    load_trace,
    replay_trace,
    save_trace,
    synthesize_trace,
)


@dataclass
class PhaseResult:
    """One timed replay phase (cold or warm)."""

    phase: str
    requests: int
    ok: int
    dropped: int
    cached: int
    wall_seconds: float
    programs_per_second: float
    latency_ms: dict
    #: latency of the ``cached: false`` answers alone (first sight)
    fresh_latency_ms: dict
    late_ms_p99: float
    hit_rate: float
    errors: dict

    @classmethod
    def from_load(cls, phase: str, load: ReplayResult,
                  hit_rate: float) -> "PhaseResult":
        d = load.to_dict()
        return cls(phase=phase, requests=d["sent"], ok=d["ok"],
                   dropped=d["dropped"], cached=d["cached"],
                   wall_seconds=d["wall_seconds"],
                   programs_per_second=d["requests_per_second"],
                   latency_ms=d["latency_ms"],
                   fresh_latency_ms=d["fresh_latency_ms"],
                   late_ms_p99=d["late_ms_p99"], hit_rate=hit_rate,
                   errors=d["errors"])

    def to_dict(self) -> dict:
        return {
            "phase": self.phase,
            "requests": self.requests,
            "ok": self.ok,
            "dropped": self.dropped,
            "cached": self.cached,
            "wall_seconds": self.wall_seconds,
            "programs_per_second": self.programs_per_second,
            "latency_ms": self.latency_ms,
            "fresh_latency_ms": self.fresh_latency_ms,
            "late_ms_p99": self.late_ms_p99,
            "hit_rate": round(self.hit_rate, 4),
            "errors": self.errors,
        }


@dataclass
class ServiceBenchReport:
    """``BENCH_service.json``: one cold-vs-warm run, with the daemon's
    final ``stats``."""

    config: dict
    cold: PhaseResult = None
    warm: PhaseResult = None
    daemon_stats: dict = field(default_factory=dict)
    fairness: dict = field(default_factory=dict)
    cache_integrity: dict = field(default_factory=dict)
    trace: dict = field(default_factory=dict)

    @property
    def speedup(self) -> float:
        if self.cold is None or self.warm is None \
                or not self.cold.programs_per_second:
            return 0.0
        return self.warm.programs_per_second / self.cold.programs_per_second

    def to_dict(self) -> dict:
        return {
            "benchmark": "service",
            "config": self.config,
            "cold": self.cold.to_dict() if self.cold else None,
            "warm": self.warm.to_dict() if self.warm else None,
            "warm_over_cold_speedup": round(self.speedup, 2),
            "fairness": self.fairness,
            "cache_integrity": self.cache_integrity,
            "trace": self.trace,
            "daemon_stats": self.daemon_stats,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    def write(self, path: str) -> None:
        with open(path, "w") as handle:
            handle.write(self.to_json() + "\n")


def _cache_counters(snapshot: dict) -> Dict[str, int]:
    """Cache counters from a daemon's ``stats`` payload."""
    cache = snapshot.get("cache", {})
    return {key: int(cache.get(key, 0))
            for key in ("hits", "misses", "read_errors")}


def bench_service(requests: int = 1000, clients: int = 4,
                  unique: int = 80, seed: int = 2024,
                  zipf_s: float = 1.1, depth: int = 8,
                  jobs: int = 1,
                  faults: Optional[FaultPlan] = None,
                  priority_mix: Optional[Dict[int, float]] = None,
                  trace_path: Optional[str] = None,
                  record_path: Optional[str] = None,
                  speed: float = 0.0,
                  progress: Optional[Callable[[str], None]] = None,
                  ) -> ServiceBenchReport:
    """Run the cold-vs-warm service benchmark; see the module docs.

    *requests* is the total per phase, split evenly across *clients*
    (each client replays its own deterministic Zipf stream over a pool
    of *unique* distinct generated programs).  *trace_path* replays a
    recorded trace instead; *record_path* saves the phase stream as a
    trace file; *speed* scales the trace's inter-arrival gaps (0 = flat
    out).
    """
    say = progress or (lambda line: None)
    if trace_path is not None:
        events = load_trace(trace_path)
        say(f"loaded trace: {len(events)} events from {trace_path}")
    else:
        say(f"generating pool: {unique} unique programs (seed {seed})")
        pool = build_pool(unique, seed=seed, prefilter="full")
        events = synthesize_trace(
            pool, requests=max(1, requests // clients), clients=clients,
            seed=seed, zipf_s=zipf_s, mean_gap=0.0,
            priority_mix=priority_mix)
    if record_path is not None:
        save_trace(record_path, events)
    report = ServiceBenchReport(config={
        "jobs": jobs,
        "requests": len(events),
        "clients": len({e.client for e in events}),
        "unique_programs": None if trace_path is not None else unique,
        "seed": seed,
        "zipf_s": zipf_s,
        "pipeline_depth": depth,
        "speed": speed,
        "priority_mix": ({str(k): v for k, v in priority_mix.items()}
                         if priority_mix else None),
        "faults": vars(faults) if faults is not None else None,
    })
    if trace_path is not None:
        report.trace = {"path": trace_path, "events": len(events),
                        "speed": speed}

    handle = DaemonThread(ServeConfig(jobs=jobs))
    with handle, ServeClient(handle.address) as probe:
        counters = {"hits": 0, "misses": 0}
        for phase in ("cold", "warm"):
            say(f"{phase} phase: {len(events)} requests, "
                f"{report.config['clients']} client(s), one daemon, "
                f"jobs={jobs}")
            load = replay_trace(handle.address, events, speed=speed,
                                depth=depth, faults=faults)
            if load.failures:
                raise RuntimeError(f"replay clients failed: {load.failures}")
            before, snapshot = counters, probe.stats()
            counters = _cache_counters(snapshot)
            hits = counters["hits"] - before["hits"]
            lookups = hits + counters["misses"] - before["misses"]
            setattr(report, phase, PhaseResult.from_load(
                phase, load, hits / lookups if lookups else 0.0))
        report.daemon_stats = snapshot
        report.fairness = load.to_dict()["fairness"]
        cache_dir = handle.daemon.cache.directory
        if cache_dir is not None:
            say("scanning cache tree for torn entries")
            report.cache_integrity = dict(
                scan_cache_tree(cache_dir),
                read_errors=counters["read_errors"])
    return report
