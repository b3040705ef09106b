"""Pinned compiler output over a wide corpus.

``golden_compile.json`` pins 31 small programs.  This test covers the
sizes where a quadratic path would bite, with six sha256 digests:

* ``print_module`` of every program's frontend output (cache keys hash
  this IR text);
* the use lists of that output: for every value (arguments, then
  instructions in order, then constants and symbols in order of first
  use), its users as (block, index) pairs in use-list order;
* the ``(ok, reason, npi, total_states, peak_states, pruned)`` verdict of
  the verifier on every program's ``compile_function`` baseline build;
* the encoded bytes of that baseline build (codegen: isel, register
  allocation, emission and the native cleanup);
* every program's ``MerlinPipeline().compile`` output: its bytes,
  ``ni_original``, ``ni_optimized``, ``mcpu`` and the rewrite count of
  each pass, in order (the IR clone, both codegen runs and the
  bytecode tier);
* what the VM does with every program's Merlin build: each run's
  observation on the program's 8-input oracle battery, counters
  included, and, for each XDP program, one machine fed a seeded
  200-packet stream after its maps are seeded, so map, cache and
  predictor state carry across runs as in a packet loop.  Each stream
  run gives its return value (or the fault's type and message) and
  every ``PerfCounters`` field; the final map contents close each
  stream.

The corpus, in order: the 19 XDP programs; the two largest programs of
each suite at scale 0.2 (by source length, then name; 16-24k
characters); and the source-layer fuzz programs of seeds 0-99
(``repro.fuzz.generator.generate("source", seed)``).  The first two
digests were computed before the frontend and verifier fast paths
existed, the next two before the codegen and bytecode-tier ones, the
VM's before its run loop read the opcode tables, and the use lists'
before the frontend stopped building throwaway phis.  Print
the current ones, from the repository root, with::

    PYTHONPATH=src python tests/test_output_digest.py

A seventh digest, marked ``slow``, pins the baseline and Merlin bytes
of a wider corpus of 811 programs: the 19 XDP programs, every suite
program at scale 0.1 and the source-layer fuzz programs of seeds
100-699.  It was computed before the register allocator ran on the
shared bytecode CFG and liveness.  Print it with ``--wide``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import sys

import pytest

from repro.codegen import compile_function
from repro.core import MerlinPipeline
from repro.frontend import compile_source
from repro.fuzz.generator import generate
from repro.fuzz.oracle import (RUNTIME_FAULTS, generate_tests,
                               observable_state, observe_battery)
from repro.ir import print_module
from repro.isa import ProgramType
from repro.verifier import verify
from repro.vm import Machine
from repro.workloads import TrafficGenerator
from repro.workloads.seeding import seed_maps
from repro.workloads.suites import TRACE_CTX_SIZE, generate_suite
from repro.workloads.xdp import ALL_XDP, XDP_CTX_SIZE

IR_SHA256 = "cdb9154b3bdd60f396f0c2a07d157a02b3dfbeef39d8d1496c901376b86342cf"
VERDICT_SHA256 = \
    "c8cf2d0dbcab3cf09897a246a5096aa460fcd567da6beb45c6a1b4d744e49bb3"
BASELINE_SHA256 = \
    "1a2f099d6bcf682bd9e32c7089f7e2e0110890137c1640c866f662c9cc44ebed"
PIPELINE_SHA256 = \
    "bf1ddba5247b44082f570003debe0311c8d3e7ace5c934b894b61c98af177f9e"
VM_SHA256 = \
    "f6ab164b06dcb3df1082abc46a65ead24d87b6fa9c817aef717835593c1ac30d"
USES_SHA256 = \
    "129c0fa950bbcdf58684d03a8935f8f1fd5cc222c8c549ea5923e619a42c9f03"
WIDE_SHA256 = \
    "d7c10982dab6e33270be124dea83ac9a8403202adb3cf1a10ec9b06bb123b894"

#: packets per XDP stream, as in one event-stream pass, and their seed
STREAM_PACKETS = 200
STREAM_SEED = 2024


def _cases():
    """(name, source, entry, prog_type, mcpu, ctx_size) per program."""
    cases = [(w.name, w.source, w.entry, ProgramType.XDP, "v2", XDP_CTX_SIZE)
             for w in ALL_XDP]
    for suite in ("sysdig", "tetragon", "tracee"):
        largest = sorted(generate_suite(suite, scale=0.2),
                         key=lambda p: (-len(p.source), p.name))[:2]
        cases += [(p.name, p.source, p.entry, ProgramType.TRACEPOINT, "v3",
                   TRACE_CTX_SIZE) for p in largest]
    for seed in range(100):
        case = generate("source", seed)
        cases.append((f"fuzz{seed}", case.text, case.name, case.prog_type,
                      case.mcpu, case.ctx_size))
    return cases


def _wide_cases():
    """The wide digest's corpus, in the shape of :func:`_cases`."""
    cases = [(w.name, w.source, w.entry, ProgramType.XDP, "v2", XDP_CTX_SIZE)
             for w in ALL_XDP]
    for suite in ("sysdig", "tetragon", "tracee"):
        cases += [(p.name, p.source, p.entry, ProgramType.TRACEPOINT, "v3",
                   TRACE_CTX_SIZE) for p in generate_suite(suite, scale=0.1)]
    for seed in range(100, 700):
        case = generate("source", seed)
        cases.append((f"fuzz{seed}", case.text, case.name, case.prog_type,
                      case.mcpu, case.ctx_size))
    return cases


def wide_digest() -> str:
    """sha256 of every wide-corpus program's baseline and Merlin bytes."""
    digest = hashlib.sha256()
    pipeline = MerlinPipeline()
    for name, source, entry, prog_type, mcpu, ctx_size in _wide_cases():
        module = compile_source(source, name)
        func = module.get(entry)
        program = compile_function(func, module, prog_type=prog_type,
                                   mcpu=mcpu, ctx_size=ctx_size)
        optimized, _ = pipeline.compile(
            func, module, prog_type=prog_type, mcpu=mcpu, ctx_size=ctx_size)
        digest.update(json.dumps(
            [name, program.encode().hex(), optimized.encode().hex()]
        ).encode() + b"\n")
    return digest.hexdigest()


def _stream_runs(program, seed: int = STREAM_SEED):
    """One machine over a seeded packet stream, after ``seed_maps``:
    each run's outcome and counters, then the final observable state."""
    machine = Machine(program)
    traffic = TrafficGenerator(seed=seed)
    seed_maps(machine, traffic, seed=seed)
    for packet in traffic.stream(STREAM_PACKETS, 64):
        try:
            outcome = machine.run(packet=packet).return_value
        except RUNTIME_FAULTS as exc:
            outcome = f"{type(exc).__name__}: {exc}"
        yield repr((outcome, dataclasses.astuple(machine.counters)))
    yield repr(observable_state(machine))


def use_lists(module):
    """One line per value of *module*: its users as (block, index)
    pairs, in the order of its use list."""
    for func in module:
        where = {}
        for block in func.blocks:
            for index, insn in enumerate(block.instructions):
                where[id(insn)] = (block.name, index)
        values = [*func.args, *func.instructions()]
        seen = {id(value) for value in values}
        for insn in func.instructions():
            for operand in insn.operands:
                if id(operand) not in seen:
                    seen.add(id(operand))
                    values.append(operand)
        for position, value in enumerate(values):
            users = [where.get(id(user)) for user in value.uses]
            yield f"{func.name} {position} {value.ref} {users}"


def digests() -> dict:
    ir_text = hashlib.sha256()
    uses = hashlib.sha256()
    verdicts = hashlib.sha256()
    baseline_bytes = hashlib.sha256()
    pipeline_output = hashlib.sha256()
    vm_runs = hashlib.sha256()
    pipeline = MerlinPipeline()
    for name, source, entry, prog_type, mcpu, ctx_size in _cases():
        module = compile_source(source, name)
        ir_text.update(f"{name}\n{print_module(module)}\n".encode())
        uses.update(f"{name}\n".encode())
        for line in use_lists(module):
            uses.update(line.encode() + b"\n")
        func = module.get(entry)
        program = compile_function(func, module, prog_type=prog_type,
                                   mcpu=mcpu, ctx_size=ctx_size)
        result = verify(program)
        verdicts.update(json.dumps(
            [name, result.ok, result.reason, result.npi,
             result.total_states, result.peak_states, result.pruned]
        ).encode() + b"\n")
        baseline_bytes.update(f"{name}\n".encode() + program.encode())
        optimized, report = pipeline.compile(
            func, module, prog_type=prog_type, mcpu=mcpu, ctx_size=ctx_size)
        pipeline_output.update(json.dumps(
            [name, optimized.encode().hex(), report.ni_original,
             report.ni_optimized, optimized.mcpu,
             [[s.name, s.rewrites] for s in report.pass_stats]]
        ).encode() + b"\n")
        battery = observe_battery(optimized, generate_tests(optimized),
                                  include_counters=True)
        vm_runs.update(f"{name}\n{battery!r}\n".encode())
        if prog_type == ProgramType.XDP:
            for line in _stream_runs(optimized):
                vm_runs.update(line.encode() + b"\n")
    return {"ir": ir_text.hexdigest(), "uses": uses.hexdigest(),
            "verdicts": verdicts.hexdigest(),
            "baseline": baseline_bytes.hexdigest(),
            "pipeline": pipeline_output.hexdigest(),
            "vm": vm_runs.hexdigest()}


@pytest.fixture(scope="module")
def current():
    return digests()


def test_frontend_and_verifier_output_is_unchanged(current):
    assert (current["ir"], current["verdicts"]) == (IR_SHA256, VERDICT_SHA256)


def test_frontend_use_lists_are_unchanged(current):
    assert current["uses"] == USES_SHA256


def test_codegen_and_bytecode_tier_output_is_unchanged(current):
    assert (current["baseline"], current["pipeline"]) \
        == (BASELINE_SHA256, PIPELINE_SHA256)


def test_vm_output_is_unchanged(current):
    assert current["vm"] == VM_SHA256


@pytest.mark.slow
def test_wide_baseline_and_merlin_bytes_are_unchanged():
    assert wide_digest() == WIDE_SHA256


if __name__ == "__main__":
    if "--wide" in sys.argv[1:]:
        print(json.dumps({"wide": wide_digest()}, indent=2))
    else:
        print(json.dumps(digests(), indent=2))
