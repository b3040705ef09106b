"""Shared differential-execution oracle.

Grown out of the K2 baseline's test-based equivalence check
(:mod:`repro.baselines.equivalence` now delegates here): run two
programs over a battery of inputs and compare every observable output —
return value, map contents, bytes pushed to user space, packet
rewrites, redirects, and runtime faults.

Two callers with two needs share this module:

* the K2 baseline wants a boolean verdict (``equivalent``) with
  workload-aware map seeding, and treats any runtime fault as a
  disqualified candidate;
* the differential fuzzer wants per-test :class:`Observation` records
  (``observe_battery`` + ``first_divergence``) so a divergence can be
  reported, bisected, and minimized — and a fault is only a divergence
  when the two programs fault *differently*.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

from ..isa import BpfProgram, ProgramType
from ..vm import HelperError, Machine, MapError, MemoryFault, VmFault

#: every runtime misbehaviour the VM can signal
RUNTIME_FAULTS = (VmFault, MemoryFault, HelperError, MapError)

#: map population fractions cycled across the battery so both hit and
#: miss paths are observed (an empty-map oracle would happily approve
#: deleting the hit path; a full-map oracle the miss path)
COVERAGE_CYCLE = (1.0, 0.6, 0.0)


@dataclass
class TestCase:
    ctx: bytes
    packet: Optional[bytes]


def generate_tests(program: BpfProgram, count: int = 8,
                   seed: int = 7) -> List[TestCase]:
    """Inputs for the oracle: half realistic traffic (so protocol paths
    and map-hit paths are exercised), half adversarial random bytes."""
    from ..workloads.packets import FlowProfile, TrafficGenerator

    rng = random.Random(seed)
    # two flow mixes: plain IPv4 and a vlan/icmp-heavy one, so rare
    # protocol paths are represented in the battery
    generators = [
        TrafficGenerator(seed=seed),
        TrafficGenerator(FlowProfile(vlan_fraction=0.5, tcp_fraction=0.3,
                                     udp_fraction=0.3,
                                     dst_port_choices=(53, 443, 53, 123)),
                         seed=seed + 1),
    ]
    tests: List[TestCase] = []
    for i in range(count):
        if program.prog_type == ProgramType.XDP:
            if i % 4 == 3:
                length = rng.choice([14, 34, 60, 128, 256, 1500])
                packet = bytes(rng.randrange(256) for _ in range(length))
            else:
                generator = generators[i % 2]
                packet = generator.packet(rng.choice([60, 64, 128, 512, 1500]))
                if i % 4 == 2:
                    # adversarial mutation: flip bytes in a valid frame so
                    # header-field edge cases are represented
                    mutable = bytearray(packet)
                    for _ in range(3):
                        mutable[rng.randrange(len(mutable))] = rng.randrange(256)
                    packet = bytes(mutable)
            tests.append(TestCase(ctx=b"", packet=packet))
        else:
            ctx = bytes(rng.randrange(256) for _ in range(program.ctx_size))
            tests.append(TestCase(ctx=ctx, packet=None))
    return tests


def observable_state(machine: Machine) -> Tuple:
    """Everything a candidate must reproduce to be 'equal': map
    contents, bytes pushed to user space, and the (possibly rewritten)
    packet."""
    maps_state = []
    for name in sorted(machine.maps):
        bpf_map = machine.maps[name]
        if hasattr(bpf_map, "region"):
            maps_state.append((name, bytes(bpf_map.region.data)))
        else:
            entries = tuple(
                (key, bytes(region.data))
                for key, region in sorted(bpf_map.entries.items())
            )
            maps_state.append((name, entries))
    packet_region = machine.memory.regions.get("packet")
    packet = bytes(packet_region.data) if packet_region is not None else b""
    return (
        tuple(maps_state),
        machine.helpers.output_bytes,
        packet,
        tuple(machine.helpers.redirects),
    )


@dataclass(frozen=True)
class Observation:
    """What one program did on one test input."""

    return_value: Optional[int] = None
    state: Optional[Tuple] = None
    fault: Optional[str] = None
    #: perf counter values as a flat tuple, captured only when the
    #: caller asks.  Its one user is the repository benchmark, which
    #: totals the optimized program's cycles from it.  Never compared:
    #: an optimized program legitimately executes different instructions.
    counters: Optional[Tuple] = None

    def differs_from(self, other: "Observation") -> Optional[str]:
        """Name of the first differing observable, or None if equal."""
        if self.fault != other.fault:
            return "fault"
        if self.return_value != other.return_value:
            return "return"
        if self.state != other.state:
            return "state"
        return None


#: callable that pre-populates a fresh machine's maps for one test
Seeder = Callable[[Machine], None]


def _counter_tuple(machine: Machine) -> Tuple:
    import dataclasses

    return dataclasses.astuple(machine.counters)


def run_observed(program: BpfProgram, test: TestCase,
                 seeder: Optional[Seeder] = None,
                 max_insns: int = 200_000,
                 include_counters: bool = False) -> Observation:
    """Run *program* on one input; faults become part of the record."""
    machine = Machine(program, max_insns=max_insns)
    try:
        if seeder is not None:
            seeder(machine)
        result = machine.run(ctx=test.ctx, packet=test.packet)
    except RUNTIME_FAULTS as exc:
        return Observation(
            fault=type(exc).__name__,
            counters=_counter_tuple(machine) if include_counters else None,
        )
    return Observation(
        result.return_value,
        observable_state(machine),
        counters=_counter_tuple(machine) if include_counters else None,
    )


def populate_maps(machine: Machine, coverage: float = 1.0,
                  seed: int = 99) -> None:
    """Layout-agnostic map population for *generated* programs.

    The workload-aware variant (:func:`repro.workloads.seeding.seed_maps`)
    only knows the curated XDP map names; fuzzed programs declare
    arbitrary maps, so seed every map with index keys and random values.
    """
    rng = random.Random(seed)
    for name in sorted(machine.maps):
        bpf_map = machine.maps[name]
        spec = bpf_map.spec
        for index in range(min(spec.max_entries, 64)):
            if rng.random() >= coverage:
                continue
            key = index.to_bytes(spec.key_size, "little")
            value = bytes(rng.randrange(256) for _ in range(spec.value_size))
            bpf_map.update(key, value)


def observe_battery(program: BpfProgram, tests: Sequence[TestCase],
                    seed: int = 7, max_insns: int = 200_000,
                    populate: Callable[[Machine, float, int], None] = populate_maps,
                    include_counters: bool = False,
                    ) -> List[Observation]:
    """Observations for the whole battery, cycling map coverage."""
    observations: List[Observation] = []
    for index, test in enumerate(tests):
        coverage = COVERAGE_CYCLE[index % len(COVERAGE_CYCLE)]

        def seeder(machine: Machine, coverage: float = coverage,
                   index: int = index) -> None:
            if coverage:
                populate(machine, coverage, seed + index)

        observations.append(run_observed(program, test, seeder, max_insns,
                                         include_counters=include_counters))
    return observations


def first_divergence(a: Sequence[Observation], b: Sequence[Observation],
                     ) -> Optional[Tuple[int, str]]:
    """(test index, observable name) of the first disagreement, if any."""
    for index, (obs_a, obs_b) in enumerate(zip(a, b)):
        kind = obs_a.differs_from(obs_b)
        if kind is not None:
            return index, kind
    return None


def equivalent(original: BpfProgram, candidate: BpfProgram,
               tests: List[TestCase], max_insns: int = 200_000,
               seed: int = 7) -> bool:
    """True when the two programs agree on every test input (K2's
    test-based equivalence fast path).

    Maps are pre-seeded with workload-realistic entries so code behind
    map-hit branches is exercised, and *any* runtime fault — in either
    program — disqualifies the candidate, exactly as the K2 baseline
    has always behaved."""
    from ..workloads.packets import TrafficGenerator
    from ..workloads.seeding import seed_maps

    generator = TrafficGenerator(seed=seed)
    for index, test in enumerate(tests):
        # vary map population across tests (full / partial / empty) so
        # both hit and miss paths are observed
        coverage = COVERAGE_CYCLE[index % len(COVERAGE_CYCLE)]

        def seeder(machine: Machine, coverage: float = coverage,
                   index: int = index) -> None:
            if coverage:
                seed_maps(machine, generator, coverage=coverage,
                          seed=seed + index)

        obs_orig = run_observed(original, test, seeder, max_insns)
        obs_cand = run_observed(candidate, test, seeder, max_insns)
        if obs_orig.fault is not None or obs_cand.fault is not None:
            return False
        if obs_orig.differs_from(obs_cand) is not None:
            return False
    return True
