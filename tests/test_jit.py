"""JIT-engine tests: regions, deoptimization, and the code-object cache.

The jit engine must be observationally *bit-identical* to the
reference interpreter — return value, fault type and message, perf
counters, memory and map effects — including when it deoptimizes
mid-program and the reference interpreter finishes the run.  Every
test here is run with ``STRICT`` compilation: a codegen bug surfaces as
a test failure instead of a silent fallback to the interpreter.
"""

import dataclasses

import pytest

import repro.vm.engine.jit as jit_mod
from repro.fuzz import LAYERS, generate
from repro.fuzz.differential import check_engines, observe_baseline
from repro.isa import BpfProgram, Instruction, MapSpec, assemble
from repro.isa import opcodes as op
from repro.vm import Machine, VmFault
from repro.vm.engine.jit import (
    _BUDGET_MSG,
    StructureError,
    check_budget_fault,
    clear_jit_cache,
    compile_jit_program,
    jit_cache_size,
    jit_cache_stats,
)
from repro.vm.interpreter import ENGINES


@pytest.fixture(autouse=True)
def strict_compile(monkeypatch):
    """Fail loudly on codegen bugs and isolate the shared code cache."""
    monkeypatch.setattr(jit_mod, "STRICT", True)
    clear_jit_cache()
    yield
    clear_jit_cache()


def observe(program, ctx=b"", packet=None, engine="reference",
            max_insns=200_000):
    machine = Machine(program, engine=engine, max_insns=max_insns)
    try:
        result = machine.run(ctx=ctx, packet=packet)
    except Exception as exc:  # VmFault, HelperError, MapError...
        outcome = ("fault", f"{type(exc).__name__}: {exc}")
    else:
        outcome = ("ok", result.return_value)
    memory = {name: bytes(region.data)
              for name, region in machine.memory.regions.items()}
    return (outcome, dataclasses.astuple(machine.counters), memory), machine


def assert_all_engines(program, ctx=b"", packet=None, max_insns=200_000):
    """Reference and jit must observe the exact same run; returns the
    observation plus the jit machine (for engine-stats asserts)."""
    baseline, _ = observe(program, ctx, packet, "reference", max_insns)
    jit_machine = None
    for engine in ENGINES:
        if engine == "reference":
            continue
        seen, machine = observe(program, ctx, packet, engine, max_insns)
        assert seen == baseline, f"{engine} diverged from reference"
        if engine == "jit":
            jit_machine = machine
    return baseline, jit_machine


def agree(asm, ctx=b"", packet=None, maps=None, ctx_size=64,
          max_insns=200_000):
    program = BpfProgram("t", assemble(asm), maps=maps or {},
                         ctx_size=ctx_size)
    return assert_all_engines(program, ctx, packet, max_insns)


LOOP = """\
r0 = 0
r1 = 20
loop:
r0 += r1
r1 -= 1
if r1 > 0 goto loop
exit"""

NESTED_LOOP = """\
r0 = 0
r6 = 5
outer:
r7 = 4
inner:
*(u64 *)(r10 - 8) = r0
r0 = *(u64 *)(r10 - 8)
r0 += r7
r7 -= 1
if r7 > 0 goto inner
r6 -= 1
if r6 > 0 goto outer
exit"""

TWO_MAPS = {
    "a": MapSpec("a", "hash", 8, 8, 16),
    "b": MapSpec("b", "hash", 8, 8, 16),
}

MAP_LOOP = """\
r0 = 0
r6 = 10
loop:
*(u64 *)(r10 - 8) = r6
*(u64 *)(r10 - 16) = r6
r1 = map_fd 1 ll
r2 = r10
r2 += -8
r3 = r10
r3 += -16
r4 = 0
call 2
*(u64 *)(r10 - 8) = r6
r1 = map_fd 1 ll
r2 = r10
r2 += -8
call 1
r6 -= 1
if r6 > 0 goto loop
exit"""


class TestJitIdentical:
    @pytest.mark.parametrize("asm", [
        LOOP,
        NESTED_LOOP,
        # stack traffic of every width, including a byte store/load
        ("r1 = 0x11223344\n*(u32 *)(r10 - 4) = r1\n"
         "r0 = *(u8 *)(r10 - 4)\nexit"),
        "*(u64 *)(r10 - 8) = 99\nr0 = *(u64 *)(r10 - 8)\nexit",
        # cache-line straddle: stack top - 4 crosses a 64-byte line
        "*(u64 *)(r10 - 4) = 99\nr0 = *(u64 *)(r10 - 4)\nexit",
        # same slot read twice, then through a moved base (dynamic site)
        ("r1 = r10\nr1 += -8\n*(u64 *)(r10 - 8) = 7\n"
         "r0 = *(u64 *)(r1 + 0)\nr2 = *(u64 *)(r10 - 8)\n"
         "r0 += r2\nexit"),
        # signed compares and 32-bit jumps in a loop
        ("r0 = 0\nr1 = -5\nloop:\nr1 += 1\nr0 += 1\n"
         "if r1 s< 0 goto loop\nexit"),
        ("r0 = 0\nw1 = 10\nloop:\nr0 += 1\nw1 -= 1\n"
         "if w1 != 0 goto loop\nexit"),
        # div/mod by zero inside a fused run
        "r0 = 10\nr1 = 0\nr0 /= r1\nr0 %= r1\nexit",
        # atomics, with and without fetch
        ("*(u64 *)(r10 - 8) = 10\nr1 = 5\n"
         "lock *(u64 *)(r10 - 8) += r1\n"
         "r1 = lock *(u64 *)(r10 - 8) += r1\n"
         "r0 = *(u64 *)(r10 - 8)\nexit"),
        # inline helpers: the clock must see batched cycles
        "call 5\nr6 = r0\ncall 5\nr0 -= r6\nexit",
        "call 7\ncall 8\ncall 14\ncall 15\ncall 6\nexit",
        # faults must land identically
        "r1 = 0x999 ll\nr0 = *(u64 *)(r1 + 0)\nexit",
        "r1 = 7\n*(u64 *)(r10 - 520) = r1\nexit",
        "call 9999\nexit",
    ])
    def test_identical(self, asm):
        agree(asm)

    def test_ctx_packet_identical(self):
        agree("r2 = *(u64 *)(r1 + 0)\nr0 = *(u8 *)(r2 + 2)\nexit",
              packet=b"\x01\x02\x03\x04")
        agree("r0 = *(u32 *)(r1 + 4)\nexit", ctx=bytes(range(16)))

    def test_map_loop_identical_and_guarded(self):
        _, machine = agree(MAP_LOOP, maps=TWO_MAPS)
        stats = machine.stats["jit"]
        assert stats["compiled"]
        assert stats["guarded_sites"] >= 2  # update + lookup sites
        assert stats["bails"]["guard"] == 0  # fd is the proven constant

    def test_map_delete_identical(self):
        asm = ("*(u64 *)(r10 - 8) = 3\nr1 = map_fd 2 ll\nr2 = r10\n"
               "r2 += -8\ncall 3\nexit")
        agree(asm, maps=TWO_MAPS)


class TestRegionFormation:
    def test_loop_becomes_structured_while(self):
        program = BpfProgram("t", assemble(LOOP))
        jp = compile_jit_program(program)
        assert jp.compiled and jp.fallback_reason == ""
        assert "while True:" in jp.source
        assert jp.n_blocks >= 2

    def test_straight_line_has_no_loop(self):
        program = BpfProgram("t", assemble("r0 = 1\nr0 += 2\nexit"))
        jp = compile_jit_program(program)
        assert jp.compiled
        assert "while True:" not in jp.source

    def test_stack_sites_share_one_memo_tuple(self):
        # NESTED_LOOP's inner block touches one stack slot twice: the
        # sites dedup to one and the run keeps a single memo entry
        program = BpfProgram("t", assemble(
            "*(u64 *)(r10 - 8) = 1\nr0 = *(u64 *)(r10 - 8)\n"
            "*(u64 *)(r10 - 8) = 2\nexit"))
        jp = compile_jit_program(program)
        assert jp.compiled
        assert jp.n_memops == 1


class TestCodeObjectCache:
    def test_content_keyed_sharing(self):
        a = BpfProgram("a", assemble(LOOP))
        b = BpfProgram("b", assemble(LOOP))  # same content, new name
        first = compile_jit_program(a)
        assert compile_jit_program(b) is first
        stats = jit_cache_stats()
        assert (stats.hits, stats.misses) == (1, 1)

    def test_map_specs_change_the_key(self):
        insns = assemble("r1 = map_fd 1 ll\nr0 = 0\nexit")
        small = BpfProgram("s", list(insns),
                           maps={"m": MapSpec("m", "hash", 8, 8, 4)})
        large = BpfProgram("l", list(insns),
                           maps={"m": MapSpec("m", "hash", 8, 16, 4)})
        assert compile_jit_program(small) is not compile_jit_program(large)

    def test_machines_share_compiled_code(self):
        program = BpfProgram("t", assemble(LOOP))
        m1 = Machine(program, engine="jit")
        m2 = Machine(program, engine="jit")
        m1.run()
        m2.run()
        assert jit_cache_stats().misses == 1
        assert jit_cache_stats().hits >= 1
        assert m1.stats["jit_cache"]["misses"] == 1

    def test_capacity_eviction(self, monkeypatch):
        monkeypatch.setattr(jit_mod, "JIT_CACHE_CAPACITY", 2)
        for value in range(4):
            compile_jit_program(
                BpfProgram("t", assemble(f"r0 = {value}\nexit")))
        assert jit_cache_size() <= 2

    def test_clear_resets(self):
        compile_jit_program(BpfProgram("t", assemble("r0 = 0\nexit")))
        clear_jit_cache()
        assert jit_cache_size() == 0
        stats = jit_cache_stats()
        assert (stats.hits, stats.misses) == (0, 0)


class TestDeopt:
    def test_budget_bail_mid_loop(self):
        # Budget 12 leaves exactly 1 instruction when the loop body's
        # 2-instruction fused run is entered: the region-entry check
        # bails (it cannot execute the whole run) and the reference
        # interpreter must carry the run to the exact exhaustion slot.
        program = BpfProgram("t", assemble(LOOP))
        (outcome, counters, _), machine = assert_all_engines(
            program, max_insns=12)
        assert outcome == ("fault", f"VmFault: {_BUDGET_MSG}")
        assert counters[0] == 12
        stats = machine.stats["jit"]
        assert stats["bails"]["budget"] >= 1
        assert stats["deopt_runs"] >= 1

    def test_memory_bail_preserves_prefix(self):
        # first store commits, second faults during phase 1: the bail
        # must leave registers/memory for the interpreter to redo the
        # prefix for real, byte-identically with the reference
        asm = ("r1 = r10\nr2 = 1\n*(u64 *)(r1 - 8) = r2\n"
               "*(u64 *)(r1 - 600) = r2\nexit")
        (outcome, _, memory), machine = agree(asm)
        assert outcome[0] == "fault"
        assert memory["stack"][-8:] == (1).to_bytes(8, "little")
        stats = machine.stats["jit"]
        assert stats["bails"]["memory"] >= 1
        assert stats["deopt_runs"] >= 1

    def test_guard_failure_mid_loop_resumes_identically(self, monkeypatch):
        # Force an optimistic-wrong specialization: the analysis claims
        # map fd 2 at sites that really hold fd 1, so the run-time guard
        # fails on every iteration and the reference interpreter must
        # finish each run bit-identically.
        original = jit_mod._Emitter._map_fd_at

        def lying(self, body):
            return {pc: (2 if fd == 1 else fd)
                    for pc, fd in original(self, body).items()}

        monkeypatch.setattr(jit_mod._Emitter, "_map_fd_at", lying)
        _, machine = agree(MAP_LOOP, maps=TWO_MAPS)
        stats = machine.stats["jit"]
        assert stats["guarded_sites"] >= 2
        assert stats["bails"]["guard"] >= 1
        assert stats["deopt_runs"] >= 1

    def test_unknown_jump_op_bails_to_reference(self):
        # 0xe0 is not a defined jump op: the jit keeps the slot on the
        # slow path and the fault message must match the reference
        insns = [Instruction(op.BPF_ALU64 | op.BPF_MOV | op.BPF_K, dst=0),
                 Instruction(op.BPF_JMP | 0xE0, off=1),
                 Instruction(op.BPF_JMP | op.BPF_EXIT)]
        program = BpfProgram("t", insns)
        (outcome, _, _), machine = assert_all_engines(program)
        assert outcome[0] == "fault"
        assert machine.stats["jit"]["bails"]["other"] >= 1
        assert machine.stats["jit"]["deopt_runs"] >= 1


class TestFallback:
    """A program the JIT does not compile runs wholly on the reference
    interpreter, counters included."""

    CASES = [
        (LOOP, None, 200_000),
        (MAP_LOOP, TWO_MAPS, 200_000),
        (LOOP, None, 30),  # budget expiry on the interpreter
        ("r1 = 7\n*(u64 *)(r10 - 520) = r1\nexit", None, 200_000),
    ]

    def check_fallback(self, asm, maps, max_insns, reason):
        _, machine = agree(asm, maps=maps, max_insns=max_insns)
        stats = machine.stats["jit"]
        assert stats["compiled"] is False
        assert stats["fallback_reason"].startswith(reason)
        assert stats["deopt_runs"] == 0

    @pytest.mark.parametrize("asm, maps, max_insns", CASES)
    def test_oversized_program(self, monkeypatch, asm, maps, max_insns):
        monkeypatch.setattr(jit_mod, "JIT_MAX_SLOTS", 2)
        self.check_fallback(asm, maps, max_insns, "program too large")

    @pytest.mark.parametrize("asm, maps, max_insns", CASES)
    def test_unstructurable_program(self, monkeypatch, asm, maps,
                                    max_insns):
        def refuse(self, entry):
            raise StructureError("refused")

        monkeypatch.setattr(jit_mod.Relooper, "emit", refuse)
        self.check_fallback(asm, maps, max_insns, "structure: refused")


class TestBudgetDrift:
    def test_every_expiry_slot_in_a_fused_run(self):
        # mid-region expiry: the batched accounting must report the
        # exact reference exhaustion slot for every possible budget
        asm = "r0 = 1\nr0 += 1\nr0 += 2\nr0 += 3\nr0 += 4\nexit"
        program = BpfProgram("t", assemble(asm))
        for budget in range(1, 6):
            (outcome, counters, _), _ = assert_all_engines(
                program, max_insns=budget)
            assert outcome[0] == "fault"
            assert counters[0] == budget

    def test_expiry_at_helper_and_atomic_segments(self):
        asm = ("call 7\n*(u64 *)(r10 - 8) = 1\nr1 = 2\n"
               "lock *(u64 *)(r10 - 8) += r1\ncall 7\nexit")
        program = BpfProgram("t", assemble(asm))
        for budget in range(1, 6):
            (outcome, counters, _), _ = assert_all_engines(
                program, max_insns=budget)
            assert outcome[0] == "fault"
            assert counters[0] == budget

    def test_mid_loop_expiry_counters_exact(self):
        program = BpfProgram("t", assemble(LOOP))
        for budget in (1, 2, 3, 7, 30, 50):
            (outcome, counters, _), _ = assert_all_engines(
                program, max_insns=budget)
            assert outcome[0] == "fault"
            assert counters[0] == budget

    def test_drift_assert_fires_on_mismatch(self):
        exhausted = VmFault(_BUDGET_MSG)
        check_budget_fault(exhausted, executed=100, max_insns=100)
        with pytest.raises(AssertionError):
            check_budget_fault(exhausted, executed=99, max_insns=100)
        # non-budget faults are not the drift check's business
        check_budget_fault(VmFault("unmapped access"), 5, 100)


class TestJitPropertySweep:
    @pytest.mark.parametrize("layer", LAYERS)
    @pytest.mark.parametrize("seed", [5, 77, 2024])
    def test_fuzz_corpus_certifies_jit(self, layer, seed):
        """Generated programs at every fuzz layer run bit-identically on
        the jit engine (STRICT: fallback would fail the test)."""
        case = generate(layer, seed)
        try:
            baseline = observe_baseline(case)
        except Exception:
            pytest.skip("generated program does not compile here")
        divergence = check_engines(case, baseline)
        assert divergence is None, divergence


class TestEngineSurface:
    def test_machine_stats_surface(self):
        machine = Machine(BpfProgram("t", assemble(LOOP)), engine="jit")
        machine.run()
        stats = machine.stats
        assert stats["engine"] == "jit"
        assert stats["jit"]["compiled"] is True
        assert "jit_cache" in stats

    def test_counters_mirror_after_deopt(self):
        machine = Machine(BpfProgram("t", assemble(LOOP)), engine="jit",
                          max_insns=13)
        with pytest.raises(VmFault):
            machine.run()
        assert (machine.counters.cache_references
                == machine.cache.stats.references)
        assert (machine.counters.branch_misses
                == machine.branch.stats.mispredictions)
