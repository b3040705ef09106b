"""RQ2 harness: throughput, latency, and hardware counters for XDP
programs (paper Table 3, Fig. 11, Fig. 14).

Substitutes the CloudLab xl170 + T-Rex testbed with the package's VM:

* **throughput** — MLFFR of one core modelled as
  ``core_freq / (cycles_per_packet + driver_overhead)``, with
  cycles-per-packet measured by running the program over a generated
  traffic stream (cache and predictor state persist across packets);
* **latency** — an M/M/1 queue with a bounded buffer evaluated at the
  paper's four load levels (low / medium / high / saturate), defined
  relative to the unoptimized and best-known throughputs exactly as in
  §5.1;
* **counters** — cache misses, branch misses from the hardware models;
  context switches estimated from core utilization.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from ..hw import PerfCounters
from ..isa import BpfProgram
from ..vm import Machine
from ..workloads.packets import TrafficGenerator
from ..workloads.seeding import seed_maps

#: xl170 nodes carry 2.4 GHz E5-2640v4 cores
CORE_FREQ_HZ = 2.4e9
#: fixed per-packet driver + XDP dispatch cost (cycles)
DRIVER_CYCLES = 450.0
#: software queue in front of the XDP core (packets)
QUEUE_DEPTH = 512
#: fixed wire/PCIe round-trip latency (microseconds)
BASE_LATENCY_US = 8.0

#: context-switch model: a 5-second window at zero load vs fully busy
CS_BASE_PER_5S = 220.0
CS_UTIL_PER_5S = 5200.0

LOAD_LEVELS = ("low", "medium", "high", "saturate")


@dataclass
class PacketPerf:
    """Measured per-packet behaviour of one program."""

    name: str
    packets: int
    cycles_per_packet: float
    instructions_per_packet: float
    counters: PerfCounters  # totals over the measured stream
    actions: Dict[int, int] = field(default_factory=dict)

    @property
    def throughput_mpps(self) -> float:
        busy = self.cycles_per_packet + DRIVER_CYCLES
        return CORE_FREQ_HZ / busy / 1e6

    @property
    def service_time_us(self) -> float:
        return (self.cycles_per_packet + DRIVER_CYCLES) / CORE_FREQ_HZ * 1e6


class NetworkEval:
    """Runs XDP programs over generated traffic and reports RQ2 metrics."""

    def __init__(self, packets: int = 1500, packet_size: int = 64,
                 seed: int = 42, warmup: int = 100):
        self.packets = packets
        self.packet_size = packet_size
        self.seed = seed
        self.warmup = warmup

    def measure(self, program: BpfProgram, name: str = "") -> PacketPerf:
        generator = TrafficGenerator(seed=self.seed)
        machine = Machine(program, seed=self.seed)
        seed_maps(machine, generator)
        for packet in generator.stream(self.warmup, self.packet_size):
            machine.run(packet=packet)
        before = machine.counters.snapshot()
        actions: Dict[int, int] = {}
        instructions = 0
        for packet in generator.stream(self.packets, self.packet_size):
            result = machine.run(packet=packet)
            actions[result.xdp_action] = actions.get(result.xdp_action, 0) + 1
        delta = machine.counters.delta(before)
        return PacketPerf(
            name=name or program.name,
            packets=self.packets,
            cycles_per_packet=delta.cycles / self.packets,
            instructions_per_packet=delta.instructions / self.packets,
            counters=delta,
            actions=actions,
        )

    # ------------------------------------------------------------- latency
    @staticmethod
    def latency_us(perf: PacketPerf, offered_mpps: float) -> float:
        """Sojourn time under offered load (bounded M/M/1)."""
        service_us = perf.service_time_us
        mu = 1.0 / service_us  # packets per microsecond
        lam = offered_mpps  # Mpps == packets per microsecond
        max_latency = BASE_LATENCY_US + QUEUE_DEPTH * service_us
        if lam >= mu * 0.999:
            return max_latency
        wait = 1.0 / (mu - lam)
        return min(BASE_LATENCY_US + wait, max_latency)

    def load_levels(self, clang_perf: PacketPerf,
                    best_mpps: float) -> Dict[str, float]:
        """The paper's four offered-load points for one program."""
        clang_mpps = clang_perf.throughput_mpps
        return {
            "low": 0.70 * clang_mpps,
            "medium": clang_mpps,
            "high": best_mpps,
            "saturate": 1.15 * best_mpps,
        }

    # --------------------------------------------------------------- table 3
    def table3_row(self, perfs: Dict[str, PacketPerf]) -> Dict[str, object]:
        """One program's Table 3 entries. *perfs* maps variant name
        ('clang'/'k2'/'merlin') to its measurement."""
        best = max(p.throughput_mpps for p in perfs.values())
        loads = self.load_levels(perfs["clang"], best)
        row: Dict[str, object] = {}
        for variant, perf in perfs.items():
            row[f"throughput_{variant}"] = perf.throughput_mpps
        for level, offered in loads.items():
            row[f"load_{level}"] = offered
            for variant, perf in perfs.items():
                row[f"latency_{level}_{variant}"] = self.latency_us(
                    perf, offered
                )
        return row

    # ------------------------------------------------------------ counters
    @staticmethod
    def counters_in_window(perf: PacketPerf, offered_mpps: float,
                           window_seconds: float = 5.0) -> PerfCounters:
        """Scale measured per-packet rates to a time window at a load."""
        served_mpps = min(offered_mpps, perf.throughput_mpps)
        packets = served_mpps * 1e6 * window_seconds
        scale = packets / perf.packets
        delta = perf.counters
        window = PerfCounters(
            instructions=int(delta.instructions * scale),
            cycles=int(delta.cycles * scale),
            cache_references=int(delta.cache_references * scale),
            cache_misses=int(delta.cache_misses * scale),
            branches=int(delta.branches * scale),
            branch_misses=int(delta.branch_misses * scale),
        )
        utilization = min(1.0, offered_mpps / perf.throughput_mpps)
        window.context_switches = int(
            (CS_BASE_PER_5S + CS_UTIL_PER_5S * utilization)
            * window_seconds / 5.0
        )
        return window
