"""The ``event-stream`` workload (closed loop, one caller).

Setup compiles every program with Merlin, loads it (verifier, then
bind with the default engine) and seeds its maps, then builds each
program's input slice: 64-byte packets from a seeded
``TrafficGenerator`` for the XDP set (the Table 3 path), seeded
``random_ctx`` syscall contexts for a draw of trace-suite programs (the
Table 4 path).  The measured window fires whole passes over the
programs, one slice per program, until the run's seconds are used up;
machines keep their maps, caches and predictor state across passes, as
an attached program does.  The compiler does no work in the window.

Each load in setup is a cold op (every program is loaded
``LOAD_PASSES`` times); each invocation in the window is a warm op.
The exact totals come from the first load and the first pass.
"""

from __future__ import annotations

import dataclasses

from common import derived_seed, rng_for, vm_hwm_mib
from programs import suite_draw, xdp_programs
from workload import RunRecord, load, report_layers

#: invocations per program per pass: trace runs cost several times an
#: XDP run, so they are kept to about 7% of the invocations and the p90
#: does not straddle the two populations
XDP_SLICE = 200
TRACE_SLICE = 12
#: suite programs drawn per suite: enough loads in setup that the
#: median load lies in a dense part of their spread, whatever the draw
PER_SUITE = 8
#: setup loads every program this many times (each a full load in the
#: same fresh pipeline, none cached), so the load median rests on more
#: samples; only the first load's machine is kept
LOAD_PASSES = 2


def setup(seed: int, clock, record: RunRecord) -> list:
    from repro.core import MerlinPipeline
    from repro.workloads import TRACE_CTX_SIZE, TrafficGenerator, random_ctx
    from repro.workloads.seeding import seed_maps

    pipeline = MerlinPipeline()
    progs = xdp_programs() + suite_draw(seed, "stream",
                                        per_suite=PER_SUITE, scale=0.05)
    loaded = []
    loads = []
    for prog in progs:
        clock.calibrate()
        record.attempted += 1
        start = clock.now()
        program, report, result, machine = load(prog, pipeline)
        record.cold.append((start, clock.now() - start))
        loads.append((report, result))
        record.exact.add_ni(report.ni_original, report.ni_optimized)
        record.exact.verifier_npi += result.npi
        entry = {"prog": prog, "program": program, "machine": machine,
                 "outcomes": []}
        if prog.prog_type == "xdp":
            traffic_seed = derived_seed(seed, f"stream:traffic:{prog.name}")
            traffic = TrafficGenerator(seed=traffic_seed)
            seed_maps(machine, traffic, seed=traffic_seed)
            entry["traffic_seed"] = traffic_seed
            entry["inputs"] = [{"packet": p}
                               for p in traffic.stream(XDP_SLICE, 64)]
        else:
            rng = rng_for(seed, f"stream:ctx:{prog.name}")
            entry["inputs"] = [{"ctx": random_ctx(rng, TRACE_CTX_SIZE)}
                               for _ in range(TRACE_SLICE)]
        loaded.append(entry)
    for _ in range(LOAD_PASSES - 1):
        for prog in progs:
            clock.calibrate()
            record.attempted += 1
            start = clock.now()
            load(prog, pipeline)
            record.cold.append((start, clock.now() - start))
    record.layers.update(report_layers(loads))
    return loaded


def run(loaded: list, seed: int, seconds: float, clock, tracer,
        record: RunRecord) -> RunRecord:
    from repro.fuzz.oracle import RUNTIME_FAULTS
    from repro.hw import PerfCounters

    window_start = clock.now()
    passes = 0
    first = {}
    while passes == 0 or clock.now() - window_start < seconds:
        passes += 1
        for entry in loaded:
            clock.calibrate()
            machine = entry["machine"]
            outcomes = entry["outcomes"]
            before = machine.counters.snapshot()
            for inputs in entry["inputs"]:
                record.attempted += 1
                begin = tracer.op_start()
                start = clock.now()
                try:
                    outcome = machine.run(**inputs).return_value
                except RUNTIME_FAULTS as exc:
                    outcome = type(exc).__name__
                elapsed = clock.now() - start
                tracer.op_end(begin, elapsed)
                record.warm.append((start, elapsed))
                outcomes.append(outcome)
            if passes == 1:
                first[entry["prog"].name] = machine.counters.delta(before)
    record.window_s = clock.now() - window_start
    record.peak_rss_mib = vm_hwm_mib()
    tracer.active = False
    runs = sum(len(e["inputs"]) for e in loaded)
    total = PerfCounters()
    for delta in first.values():
        total.add(delta)
    record.exact.cycles = total.cycles
    record.exact.runs = runs
    # first-pass counts, so they repeat whatever the window's length
    record.layers.update({
        "vm.insns": total.instructions,
        "hw.insns_per_run": total.instructions / runs,
        "hw.cache_misses_per_run": total.cache_misses / runs,
        "hw.branch_misses_per_run": total.branch_misses / runs,
    })
    record.info.update(programs=len(loaded), passes=passes,
                       faults=sum(1 for e in loaded for o in e["outcomes"]
                                  if isinstance(o, str)))
    _check(record, loaded)
    return record


def _check(record: RunRecord, loaded: list) -> None:
    """Untimed: replay every program's stream on a fresh machine on the
    reference interpreter and compare per-run returns and faults, final
    map state, perf output, packet and counters."""
    from repro.fuzz.oracle import RUNTIME_FAULTS, observable_state
    from repro.vm import Machine
    from repro.workloads import TrafficGenerator
    from repro.workloads.seeding import seed_maps

    for entry in loaded:
        name = entry["prog"].name
        machine = entry["machine"]
        replay = Machine(entry["program"], engine="reference")
        if "traffic_seed" in entry:
            seed_maps(replay, TrafficGenerator(seed=entry["traffic_seed"]),
                      seed=entry["traffic_seed"])
        outcomes = []
        passes = len(entry["outcomes"]) // len(entry["inputs"])
        for _ in range(passes):
            for inputs in entry["inputs"]:
                try:
                    outcomes.append(replay.run(**inputs).return_value)
                except RUNTIME_FAULTS as exc:
                    outcomes.append(type(exc).__name__)
        if outcomes != entry["outcomes"]:
            index = next(i for i, (a, b) in enumerate(
                zip(outcomes, entry["outcomes"])) if a != b)
            record.fail(name, f"run {index} differs from the reference "
                              f"interpreter")
        elif observable_state(replay) != observable_state(machine):
            record.fail(name, "final map/output/packet state differs from "
                              "the reference interpreter")
        elif dataclasses.astuple(replay.counters) \
                != dataclasses.astuple(machine.counters):
            record.fail(name, "counters differ from the reference "
                              "interpreter")
