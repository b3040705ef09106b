"""Engine tests: cross-engine equality, including across fused runs.

Every non-reference engine (the whole-program jit) must be
observationally *bit-identical* to the reference interpreter: same
return value, same fault (type and message), same perf counters, same
memory/map effects.  Every test here runs all engines and compares
everything.
"""

import dataclasses

import pytest

from repro.fuzz import LAYERS, generate
from repro.fuzz.differential import check_engines, observe_baseline
from repro.isa import BpfProgram, Instruction, assemble, opcodes as op
from repro.vm import Machine, Memory, MemoryFault, VmFault
from repro.vm.interpreter import ENGINES
from repro.vm.memory import PACKET_BASE


def observe(program: BpfProgram, ctx: bytes = b"", packet=None,
            engine: str = "reference", max_insns: int = 200_000):
    """Run once and capture everything observable about the run."""
    machine = Machine(program, engine=engine, max_insns=max_insns)
    try:
        result = machine.run(ctx=ctx, packet=packet)
    except Exception as exc:  # VmFault, HelperError, MapError...
        outcome = ("fault", f"{type(exc).__name__}: {exc}")
    else:
        outcome = ("ok", result.return_value)
    memory = {name: bytes(region.data)
              for name, region in machine.memory.regions.items()}
    return outcome, dataclasses.astuple(machine.counters), memory


def assert_engines_agree(program: BpfProgram, ctx: bytes = b"", packet=None,
                         max_insns: int = 200_000):
    reference = observe(program, ctx, packet, "reference", max_insns)
    for engine in ENGINES:
        if engine == "reference":
            continue
        seen = observe(program, ctx, packet, engine, max_insns)
        assert seen == reference, f"{engine} diverged from reference"
    return reference


def agree(asm: str, ctx: bytes = b"", packet=None, maps=None,
          ctx_size: int = 64, max_insns: int = 200_000):
    program = BpfProgram("t", assemble(asm), maps=maps or {},
                         ctx_size=ctx_size)
    return assert_engines_agree(program, ctx, packet, max_insns)


class TestCrossEngineAlu:
    @pytest.mark.parametrize("asm", [
        "r0 = -1\nr0 += 2\nexit",
        "r0 = 7\nr0 *= -6\nexit",
        "r0 = -1\nr1 = 2\nr0 /= r1\nexit",
        "r0 = 10\nr1 = 0\nr0 /= r1\nexit",
        "r0 = 10\nr1 = 0\nr0 %= r1\nexit",
        "r0 = 10\nr1 = 3\nr0 %= r1\nexit",
        "r0 = 1\nr1 = 65\nr0 <<= r1\nexit",
        "r0 = -8\nr0 s>>= 1\nexit",
        "r0 = -8\nr1 = 70\nr0 s>>= r1\nexit",
        "r0 = 5\nr0 = -r0\nexit",
        "r0 = 0x1234\nr0 = be16 r0\nexit",
        "r0 = 0x11223344\nr0 = be32 r0\nexit",
        "r0 = 0x1122334455667788 ll\nr0 = be64 r0\nexit",
        "r0 = 0x1234\nr0 = le16 r0\nexit",
        "w0 = -1\nw0 += 2\nexit",
        "w0 = 1\nw1 = 33\nw0 <<= w1\nexit",
        "w0 = -8\nw0 s>>= 1\nexit",
        "r0 = 0x1fffffffff ll\nw0 = w0\nexit",
    ])
    def test_alu_identical(self, asm):
        outcome, _, _ = agree(asm)
        assert outcome[0] == "ok"


class TestCrossEngineJumps:
    @pytest.mark.parametrize("asm", [
        "r0 = 0\nr1 = 4\nif r1 > 3 goto yes\nexit\nyes:\nr0 = 1\nexit",
        "r0 = 0\nr1 = -1\nif r1 s< 0 goto neg\nexit\nneg:\nr0 = 1\nexit",
        "r0 = 0\nr1 = 2\nif r1 & 0b0010 goto yes\nexit\nyes:\nr0 = 1\nexit",
        "r0 = 0\nw1 = 1\nif w1 == 1 goto yes\nexit\nyes:\nr0 = 1\nexit",
        # loop: backward branch taken repeatedly
        ("r0 = 0\nr1 = 10\nloop:\nr0 += r1\nr1 -= 1\n"
         "if r1 > 0 goto loop\nexit"),
    ])
    def test_jumps_identical(self, asm):
        outcome, _, _ = agree(asm)
        assert outcome[0] == "ok"

    def test_oob_jump_faults_identically(self):
        outcome, _, _ = agree("r0 = 0\ngoto +5\nexit")
        assert outcome[0] == "fault"
        assert "out of program bounds" in outcome[1]

    def test_jump_into_mid_ld_imm64_faults_identically(self):
        # goto +1 from slot 0 lands on the second slot of the ld_imm64
        outcome, _, _ = agree("goto +1\nr0 = 0x11223344 ll\nexit")
        assert outcome[0] == "fault"
        assert "middle of ld_imm64" in outcome[1]

    def test_budget_fault_identical(self):
        outcome, counters, _ = agree("start:\ngoto start", max_insns=100)
        assert outcome == (
            "fault", "VmFault: instruction budget exhausted (infinite loop?)")
        assert counters[0] == 100  # instructions executed before the trip


class TestCrossEngineMemory:
    @pytest.mark.parametrize("asm", [
        "r1 = 0x11223344\n*(u32 *)(r10 - 4) = r1\nr0 = *(u32 *)(r10 - 4)\nexit",
        "*(u64 *)(r10 - 8) = 99\nr0 = *(u64 *)(r10 - 8)\nexit",
        "*(u32 *)(r10 - 4) = 0x11223344\nr0 = *(u8 *)(r10 - 4)\nexit",
        # uninitialized stack read sees the garbage fill pattern
        "r0 = *(u8 *)(r10 - 100)\nexit",
    ])
    def test_memory_identical(self, asm):
        outcome, _, _ = agree(asm)
        assert outcome[0] == "ok"

    def test_ctx_load_identical(self):
        ctx = bytes(range(16))
        agree("r0 = *(u32 *)(r1 + 4)\nexit", ctx=ctx)

    def test_packet_load_identical(self):
        agree("r2 = *(u64 *)(r1 + 0)\nr0 = *(u8 *)(r2 + 2)\nexit",
              packet=b"\x01\x02\x03\x04")

    def test_load_fault_identical(self):
        outcome, _, _ = agree("r1 = 0x999 ll\nr0 = *(u64 *)(r1 + 0)\nexit")
        assert outcome[0] == "fault"
        assert "unmapped access" in outcome[1]

    def test_store_fault_identical(self):
        outcome, _, _ = agree("r1 = 7\n*(u64 *)(r10 - 520) = r1\nexit")
        assert outcome[0] == "fault"

    def test_unsupported_ld_mode_identical(self):
        insns = [Instruction(op.BPF_LD | op.BPF_ABS | op.BPF_W, imm=0),
                 Instruction(op.BPF_JMP | op.BPF_EXIT)]
        outcome, _, _ = assert_engines_agree(BpfProgram("t", insns))
        assert outcome[0] == "fault"
        assert "unsupported LD mode" in outcome[1]


class TestCrossEngineAtomics:
    @pytest.mark.parametrize("asm", [
        ("*(u64 *)(r10 - 8) = 10\nr1 = 5\nlock *(u64 *)(r10 - 8) += r1\n"
         "r0 = *(u64 *)(r10 - 8)\nexit"),
        ("*(u64 *)(r10 - 8) = 10\nr1 = 5\n"
         "r1 = lock *(u64 *)(r10 - 8) += r1\nr0 = r1\nexit"),
        ("*(u64 *)(r10 - 8) = 12\nr1 = 10\nr2 = 1\n"
         "lock *(u64 *)(r10 - 8) &= r1\nlock *(u64 *)(r10 - 8) |= r2\n"
         "r0 = *(u64 *)(r10 - 8)\nexit"),
    ])
    def test_atomics_identical(self, asm):
        outcome, counters, _ = agree(asm)
        assert outcome[0] == "ok"
        assert counters[8] >= 1  # atomics counter

    def test_unsupported_cmpxchg_faults_identically(self):
        atomic = Instruction(op.BPF_STX | op.BPF_DW | op.BPF_ATOMIC,
                             dst=10, src=2, off=-8, imm=op.BPF_CMPXCHG)
        insns = (assemble("r1 = 10\n*(u64 *)(r10 - 8) = r1\nr2 = 5")
                 + [atomic] + assemble("r0 = 0\nexit"))
        outcome, _, _ = assert_engines_agree(BpfProgram("t", insns))
        assert outcome[0] == "fault"
        assert "unsupported atomic" in outcome[1]


class TestCrossEngineHelpers:
    def test_ktime_identical(self):
        # ktime derives from the cycle counter, so agreement here proves
        # the jit charges helper costs at the same point
        agree("call 5\nr6 = r0\ncall 5\nr0 -= r6\nexit")

    def test_prandom_identical(self):
        agree("call 7\nexit")

    def test_unknown_helper_faults_identically(self):
        outcome, _, _ = agree("call 9999\nexit")
        assert outcome[0] == "fault"


class TestFusedRuns:
    """Straight-line stretches the jit fuses into one validate-then-
    commit run: every way a run can end early must match the reference."""

    def test_straight_line_run(self):
        outcome, _, _ = agree("r0 = 1\nr0 += 2\nr0 *= 3\nr1 = r0\nexit")
        assert outcome == ("ok", 9)

    def test_load_tainted_base_splits_run(self):
        # the loaded pointer (r2) cannot be validated before the run
        # commits, so the second memop starts a run of its own
        outcome, _, _ = agree(
            "r2 = *(u64 *)(r1 + 0)\nr0 = *(u8 *)(r2 + 2)\nexit",
            packet=b"\x01\x02\x03\x04")
        assert outcome == ("ok", 3)

    def test_jump_into_middle_of_run(self):
        # slots 2..4 form a straight-line run; the goto enters at slot 3
        asm = ("r0 = 5\n"
               "goto mid\n"
               "r0 = 99\n"
               "mid:\n"
               "r0 += 1\n"
               "r0 += 2\n"
               "exit")
        outcome, _, _ = agree(asm)
        assert outcome == ("ok", 8)

    def test_fault_mid_run_identical(self):
        # the first store commits, the second faults: the jit bails with
        # nothing executed and the reference interpreter performs the
        # prefix for real, leaving the stack byte-identical
        asm = ("r1 = r10\n"
               "r2 = 1\n"
               "*(u64 *)(r1 - 8) = r2\n"
               "*(u64 *)(r1 - 600) = r2\n"
               "exit")
        outcome, _, memory = agree(asm)
        assert outcome[0] == "fault"
        assert memory["stack"][-8:] == (1).to_bytes(8, "little")

    def test_budget_exhausted_mid_run_identical(self):
        # budget expires inside a fused run: the jit bails and the
        # reference interpreter lands the fault on the exact instruction
        asm = "r0 = 1\nr0 += 1\nr0 += 2\nr0 += 3\nr0 += 4\nexit"
        program = BpfProgram("t", assemble(asm))
        for budget in range(1, 6):
            outcome, counters, _ = assert_engines_agree(
                program, max_insns=budget)
            assert outcome[0] == "fault"
            assert counters[0] == budget
            # budgets 1-4 cannot cover the 5-instruction run, so the jit
            # bails at its entry; budget 5 runs it and faults at exit
            machine = Machine(program, engine="jit", max_insns=budget)
            with pytest.raises(VmFault):
                machine.run()
            assert machine.stats["jit"]["deopt_runs"] == int(budget < 5)

    def test_store_load_aliasing_in_run(self):
        # store then load of the same address inside one fused run must
        # observe the stored value (program-order commit)
        asm = ("r1 = 0x11223344\n"
               "*(u32 *)(r10 - 4) = r1\n"
               "r0 = *(u32 *)(r10 - 4)\n"
               "exit")
        outcome, _, _ = agree(asm)
        assert outcome == ("ok", 0x11223344)


class TestMemoryIndex:
    def test_find_after_delete(self):
        memory = Memory()
        region = memory.add_region("a", 0x1000_0000, 64)
        assert memory.find(0x1000_0000, 8) is region
        del memory.regions["a"]
        with pytest.raises(MemoryFault):
            memory.find(0x1000_0000, 8)

    def test_version_bumps_on_mutation(self):
        memory = Memory()
        before = memory.version
        memory.add_region("a", 0x1000_0000, 64)
        assert memory.version > before
        before = memory.version
        del memory.regions["a"]
        assert memory.version > before

    def test_window_straddling_region(self):
        memory = Memory()
        region = memory.add_region("edge", 0x1FFF_FFF8, 16)
        assert memory.find(0x1FFF_FFF8, 8) is region
        assert memory.find(0x2000_0000, 8) is region


class TestSetPacketReuse:
    def _machine(self):
        program = BpfProgram("t", assemble("r0 = 0\nexit"),
                             prog_type=__import__(
                                 "repro.isa", fromlist=["ProgramType"]
                             ).ProgramType.XDP)
        return Machine(program)

    def test_region_object_reused_across_runs(self):
        machine = self._machine()
        machine.set_packet(b"abc")
        region = machine.memory.regions["packet"]
        machine.set_packet(b"a much longer payload")
        assert machine.memory.regions["packet"] is region
        assert len(region.data) == Machine.PACKET_HEADROOM + len(
            b"a much longer payload")
        machine.set_packet(b"x")
        assert len(region.data) == Machine.PACKET_HEADROOM + 1

    def test_headroom_rezeroed(self):
        machine = self._machine()
        machine.set_packet(b"abc")
        region = machine.memory.regions["packet"]
        region.data[0] = 0x7F  # dirty the headroom like adjust_head would
        machine.set_packet(b"abc")
        assert region.data[0] == 0

    def test_data_end_is_exact(self):
        machine = self._machine()
        addr = machine.set_packet(b"abcd")
        assert addr == PACKET_BASE + Machine.PACKET_HEADROOM
        region = machine.memory.regions["packet"]
        assert region.end == addr + 4


class TestCounterMirror:
    def test_counters_synced_after_run(self):
        program = BpfProgram("t", assemble(
            "*(u64 *)(r10 - 8) = 1\nr0 = *(u64 *)(r10 - 8)\nexit"))
        for engine in ENGINES:
            machine = Machine(program, engine=engine)
            machine.run()
            assert (machine.counters.cache_references
                    == machine.cache.stats.references)
            assert (machine.counters.cache_misses
                    == machine.cache.stats.misses)
            assert (machine.counters.branch_misses
                    == machine.branch.stats.mispredictions)


def test_engine_choice_is_reference_or_jit():
    assert ENGINES == ("reference", "jit")
    program = BpfProgram("t", assemble("r0 = 0\nexit"))
    with pytest.raises(ValueError, match="unknown engine 'fast'"):
        Machine(program, engine="fast")


@pytest.mark.parametrize("layer", LAYERS)
@pytest.mark.parametrize("seed", [11, 137, 4096])
def test_fuzz_corpus_engines_agree(layer, seed):
    """Property test: generated programs at every fuzz layer behave
    bit-identically on both engines (return value, faults, counters,
    and map/memory state via the oracle's output summaries)."""
    case = generate(layer, seed)
    try:
        baseline = observe_baseline(case)
    except Exception:
        pytest.skip("generated program does not compile on this toolchain")
    divergence = check_engines(case, baseline)
    assert divergence is None, divergence
