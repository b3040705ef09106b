"""Engine tests: whole-run observations of the reference interpreter,
the VM's only engine.

Each test runs a program and checks what the run left behind: the
outcome (return value, or fault type and message), the perf counters
and the bytes of every memory region.  The class and test names date
from when this file also checked a second engine against the
reference; they are kept so that test ids stay stable.
"""

import dataclasses
import inspect

import pytest

from repro.core.superopt import _FOLDABLE, fold_constant_pair
from repro.isa import BpfProgram, Instruction, ProgramType, assemble
from repro.isa import instruction as ins
from repro.isa import opcodes as op
from repro.tv.expr import evaluate
from repro.tv.progcheck import _condition_expr
from repro.tv.state import SymState, initial_reg, run_region
from repro.vm import Machine, Memory, MemoryFault, VmFault
from repro.vm.memory import PACKET_BASE

U64 = (1 << 64) - 1

BUDGET_FAULT = ("fault",
                "VmFault: instruction budget exhausted (infinite loop?)")

LOOP = """\
r0 = 0
r1 = 20
loop:
r0 += r1
r1 -= 1
if r1 > 0 goto loop
exit"""


def observe(program: BpfProgram, ctx: bytes = b"", packet=None,
            max_insns: int = 200_000):
    """Run once and capture everything observable about the run."""
    machine = Machine(program, max_insns=max_insns)
    try:
        result = machine.run(ctx=ctx, packet=packet)
    except Exception as exc:  # VmFault, HelperError, MapError...
        outcome = ("fault", f"{type(exc).__name__}: {exc}")
    else:
        outcome = ("ok", result.return_value)
    memory = {name: bytes(region.data)
              for name, region in machine.memory.regions.items()}
    return outcome, dataclasses.astuple(machine.counters), memory


def observe_asm(asm: str, ctx: bytes = b"", packet=None, maps=None,
                ctx_size: int = 64, max_insns: int = 200_000):
    program = BpfProgram("t", assemble(asm), maps=maps or {},
                         ctx_size=ctx_size)
    return observe(program, ctx, packet, max_insns)


#: program -> the r0 it returns
ALU_CASES = {
    "r0 = -1\nr0 += 2\nexit": 1,
    "r0 = 7\nr0 *= -6\nexit": -42 & U64,
    "r0 = -1\nr1 = 2\nr0 /= r1\nexit": U64 // 2,
    "r0 = 10\nr1 = 0\nr0 /= r1\nexit": 0,
    "r0 = 10\nr1 = 0\nr0 %= r1\nexit": 10,
    "r0 = 10\nr1 = 3\nr0 %= r1\nexit": 1,
    "r0 = 1\nr1 = 65\nr0 <<= r1\nexit": 2,
    "r0 = -8\nr0 s>>= 1\nexit": -4 & U64,
    "r0 = -8\nr1 = 70\nr0 s>>= r1\nexit": U64,
    "r0 = 5\nr0 = -r0\nexit": -5 & U64,
    "r0 = 0x1234\nr0 = be16 r0\nexit": 0x3412,
    "r0 = 0x11223344\nr0 = be32 r0\nexit": 0x44332211,
    # END swaps the low imm bits of the 64-bit register, as the
    # kernel's htobe64/htole64 do
    "r0 = 0x1122334455667788 ll\nr0 = be64 r0\nexit": 0x8877665544332211,
    "r0 = 0x1122334455667788 ll\nr0 = le64 r0\nexit": 0x1122334455667788,
    "r0 = 0x1234\nr0 = le16 r0\nexit": 0x1234,
    "w0 = -1\nw0 += 2\nexit": 1,
    "w0 = 1\nw1 = 33\nw0 <<= w1\nexit": 2,
    "w0 = -8\nw0 s>>= 1\nexit": 0xFFFFFFFC,
    "r0 = 0x1fffffffff ll\nw0 = w0\nexit": 0xFFFFFFFF,
}

#: program -> the r0 it returns
JUMP_CASES = {
    "r0 = 0\nr1 = 4\nif r1 > 3 goto yes\nexit\nyes:\nr0 = 1\nexit": 1,
    "r0 = 0\nr1 = -1\nif r1 s< 0 goto neg\nexit\nneg:\nr0 = 1\nexit": 1,
    "r0 = 0\nr1 = 2\nif r1 & 0b0010 goto yes\nexit\nyes:\nr0 = 1\nexit": 1,
    "r0 = 0\nw1 = 1\nif w1 == 1 goto yes\nexit\nyes:\nr0 = 1\nexit": 1,
    # loop: backward branch taken repeatedly
    ("r0 = 0\nr1 = 10\nloop:\nr0 += r1\nr1 -= 1\n"
     "if r1 > 0 goto loop\nexit"): 55,
}


class TestCrossEngineAlu:
    @pytest.mark.parametrize("asm", list(ALU_CASES))
    def test_alu_identical(self, asm):
        outcome, _, _ = observe_asm(asm)
        assert outcome == ("ok", ALU_CASES[asm])

    def test_unknown_alu_op_faults(self):
        # 0xe0 and 0xf0 are not defined ALU ops
        for insn, aop in (
                (Instruction(op.BPF_ALU64 | 0xE0 | op.BPF_K, dst=0, imm=1),
                 "0xe0"),
                (Instruction(op.BPF_ALU | 0xF0 | op.BPF_X, dst=0, src=1),
                 "0xf0")):
            insns = [Instruction(op.BPF_ALU64 | op.BPF_MOV | op.BPF_K, dst=0),
                     insn,
                     Instruction(op.BPF_JMP | op.BPF_EXIT)]
            outcome, _, _ = observe(BpfProgram("t", insns))
            assert outcome == ("fault", f"VmFault: unknown ALU op {aop}")


class TestCrossEngineJumps:
    @pytest.mark.parametrize("asm", list(JUMP_CASES))
    def test_jumps_identical(self, asm):
        outcome, _, _ = observe_asm(asm)
        assert outcome == ("ok", JUMP_CASES[asm])

    def test_oob_jump_faults_identically(self):
        outcome, _, _ = observe_asm("r0 = 0\ngoto +5\nexit")
        assert outcome[0] == "fault"
        assert "out of program bounds" in outcome[1]

    def test_jump_into_mid_ld_imm64_faults_identically(self):
        # goto +1 from slot 0 lands on the second slot of the ld_imm64
        outcome, _, _ = observe_asm("goto +1\nr0 = 0x11223344 ll\nexit")
        assert outcome[0] == "fault"
        assert "middle of ld_imm64" in outcome[1]

    def test_budget_fault_identical(self):
        outcome, counters, _ = observe_asm("start:\ngoto start",
                                           max_insns=100)
        assert outcome == BUDGET_FAULT
        assert counters[0] == 100  # instructions executed before the trip

    def test_unknown_jump_op_faults(self):
        # 0xe0 is not a defined jump op
        insns = [Instruction(op.BPF_ALU64 | op.BPF_MOV | op.BPF_K, dst=0),
                 Instruction(op.BPF_JMP | 0xE0, off=1),
                 Instruction(op.BPF_JMP | op.BPF_EXIT)]
        outcome, _, _ = observe(BpfProgram("t", insns))
        assert outcome == ("fault", "VmFault: unknown jump op 0xe0")


#: operands at the edges of every width, shift amount and sign
EDGE_OPERANDS = (0, 1, 31, 32, 33, 63, 64, 65, 1 << 31, (1 << 32) - 1,
                 1 << 63, U64)

#: every ALU operation but END, and every jump condition
_ALU_OPS = [name for name in op.ALU_OP_BY_NAME if name != "end"]
_CONDITIONS = [name for name in op.JMP_OP_BY_NAME
               if name not in ("ja", "call", "exit")]


def _run_on(insn: Instruction, a: int, b: int) -> int:
    """r0 after ``r0 = a; r1 = b; insn``; a jump (offset 1) leaves 1
    in r0 if taken, 0 if not."""
    body = [insn]
    if insn.is_jump:
        body = [ins.mov64_imm(2, 1), insn, ins.mov64_imm(2, 0),
                ins.mov64_reg(0, 2)]
    insns = [ins.ld_imm64(0, a), ins.ld_imm64(1, b), *body, ins.exit_()]
    outcome, _, _ = observe(BpfProgram("t", insns))
    assert outcome[0] == "ok", (insn, a, b, outcome)
    return outcome[1]


def _env(a: int, b: int) -> dict:
    """TV's environment for r0 = *a*, r1 = *b*."""
    return {initial_reg(0): a, initial_reg(1): b}


def _imm_operand(value: int, bits: int):
    """The s32 immediate that reads as *value* at *bits* width, if any."""
    imm = value & ((1 << bits) - 1)
    imm = imm - (1 << bits) if imm >> (bits - 1) else imm
    return imm if -(1 << 31) <= imm < (1 << 31) else None


@pytest.mark.tv
def test_vm_tv_and_superopt_agree_on_every_operation():
    """Every ALU operation and jump condition at both widths, and every
    byte swap, run as one instruction over edge operands: the VM's r0
    equals TV's evaluation of the instruction's term, and for a 64-bit
    operation with two s32 constants, what ``fold_constant_pair``
    folds.  This covers the glue each caller keeps around the shared
    arithmetic: operand masking, immediate sign extension and the maps
    from operation names to codes."""
    assert len(_ALU_OPS) == 13 and len(_CONDITIONS) == 11
    checked = 0
    for bits, make_alu, make_jump in ((64, ins.alu64, ins.jump),
                                      (32, ins.alu32, ins.jump32)):
        for a in EDGE_OPERANDS:
            for b in EDGE_OPERANDS:
                imm = _imm_operand(b, bits)
                forms = [{"src": 1}] + ([{"imm": imm}] if imm is not None
                                        else [])
                for form in forms:
                    for name in _ALU_OPS:
                        insn = make_alu(name, 0, **form)
                        got = _run_on(insn, a, b)
                        term = run_region([insn]).regs[0]
                        assert evaluate(term, _env(a, b)) == got, \
                            (insn, a, b)
                        checked += 1
                    for name in _CONDITIONS:
                        insn = make_jump(name, 0, off=1, **form)
                        got = _run_on(insn, a, b)
                        term = _condition_expr(SymState(), insn)
                        assert evaluate(term, _env(a, b)) == got, \
                            (insn, a, b)
                        checked += 1
    for value in EDGE_OPERANDS + (0x1122334455667788,):
        for width in (16, 32, 64):
            for opcode in (op.BPF_ALU | op.BPF_END | op.BPF_K,
                           op.BPF_ALU | op.BPF_END | op.BPF_X,
                           op.BPF_ALU64 | op.BPF_END | op.BPF_K):
                insn = Instruction(opcode, dst=0, imm=width)
                got = _run_on(insn, value, 0)
                term = run_region([insn]).regs[0]
                assert evaluate(term, _env(value, 0)) == got, (insn, value)
                checked += 1
    for a in EDGE_OPERANDS:
        first = _imm_operand(a, 64)
        for b in EDGE_OPERANDS:
            second = _imm_operand(b, 64)
            if first is None or second is None:
                continue
            for aop in _FOLDABLE:
                insn = ins.alu64(op.ALU_OP_NAMES[aop], 0, imm=second)
                got = _run_on(insn, a, b)
                folded = fold_constant_pair(ins.mov64_imm(0, first), insn)
                want = _imm_operand(got, 64)
                assert folded == (None if want is None
                                  else ins.mov64_imm(0, want)), (insn, a)
                checked += 1
    assert checked > 10_000


class TestCrossEngineMemory:
    @pytest.mark.parametrize("asm", [
        "r1 = 0x11223344\n*(u32 *)(r10 - 4) = r1\nr0 = *(u32 *)(r10 - 4)\nexit",
        "*(u64 *)(r10 - 8) = 99\nr0 = *(u64 *)(r10 - 8)\nexit",
        "*(u32 *)(r10 - 4) = 0x11223344\nr0 = *(u8 *)(r10 - 4)\nexit",
        # uninitialized stack read sees the garbage fill pattern
        "r0 = *(u8 *)(r10 - 100)\nexit",
    ])
    def test_memory_identical(self, asm):
        outcome, _, _ = observe_asm(asm)
        assert outcome[0] == "ok"

    def test_ctx_load_identical(self):
        outcome, _, _ = observe_asm("r0 = *(u32 *)(r1 + 4)\nexit",
                                    ctx=bytes(range(16)))
        assert outcome == ("ok", 0x07060504)

    def test_packet_load_identical(self):
        outcome, _, _ = observe_asm(
            "r2 = *(u64 *)(r1 + 0)\nr0 = *(u8 *)(r2 + 2)\nexit",
            packet=b"\x01\x02\x03\x04")
        assert outcome == ("ok", 3)

    def test_load_fault_identical(self):
        outcome, _, _ = observe_asm(
            "r1 = 0x999 ll\nr0 = *(u64 *)(r1 + 0)\nexit")
        assert outcome[0] == "fault"
        assert "unmapped access" in outcome[1]

    def test_store_fault_identical(self):
        outcome, _, _ = observe_asm("r1 = 7\n*(u64 *)(r10 - 520) = r1\nexit")
        assert outcome[0] == "fault"

    def test_unsupported_ld_mode_identical(self):
        insns = [Instruction(op.BPF_LD | op.BPF_ABS | op.BPF_W, imm=0),
                 Instruction(op.BPF_JMP | op.BPF_EXIT)]
        outcome, _, _ = observe(BpfProgram("t", insns))
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
        outcome, counters, _ = observe_asm(asm)
        assert outcome[0] == "ok"
        assert counters[8] >= 1  # atomics counter

    def test_unsupported_cmpxchg_faults_identically(self):
        atomic = Instruction(op.BPF_STX | op.BPF_DW | op.BPF_ATOMIC,
                             dst=10, src=2, off=-8, imm=op.BPF_CMPXCHG)
        insns = (assemble("r1 = 10\n*(u64 *)(r10 - 8) = r1\nr2 = 5")
                 + [atomic] + assemble("r0 = 0\nexit"))
        outcome, _, _ = observe(BpfProgram("t", insns))
        assert outcome[0] == "fault"
        assert "unsupported atomic" in outcome[1]


class TestCrossEngineHelpers:
    def test_ktime_identical(self):
        # ktime derives from the cycle counter, so the second read is
        # later than the first
        outcome, _, _ = observe_asm("call 5\nr6 = r0\ncall 5\nr0 -= r6\nexit")
        assert outcome[0] == "ok"
        assert 0 < outcome[1] < 1 << 63

    def test_prandom_identical(self):
        outcome, _, _ = observe_asm("call 7\nexit")
        assert outcome[0] == "ok"

    def test_unknown_helper_faults_identically(self):
        outcome, _, _ = observe_asm("call 9999\nexit")
        assert outcome[0] == "fault"


class TestFusedRuns:
    """Straight-line stretches: every way one can end early."""

    def test_straight_line_run(self):
        outcome, _, _ = observe_asm("r0 = 1\nr0 += 2\nr0 *= 3\nr1 = r0\nexit")
        assert outcome == ("ok", 9)

    def test_load_tainted_base_splits_run(self):
        # the second load's base pointer (r2) comes from the first load
        outcome, _, _ = observe_asm(
            "r2 = *(u64 *)(r1 + 0)\nr0 = *(u8 *)(r2 + 2)\nexit",
            packet=b"\x01\x02\x03\x04")
        assert outcome == ("ok", 3)

    def test_jump_into_middle_of_run(self):
        # slots 2..4 form a straight line; the goto enters at slot 3
        asm = ("r0 = 5\n"
               "goto mid\n"
               "r0 = 99\n"
               "mid:\n"
               "r0 += 1\n"
               "r0 += 2\n"
               "exit")
        outcome, _, _ = observe_asm(asm)
        assert outcome == ("ok", 8)

    def test_fault_mid_run_identical(self):
        # the first store lands, the second faults: the stack keeps the
        # bytes of the first
        asm = ("r1 = r10\n"
               "r2 = 1\n"
               "*(u64 *)(r1 - 8) = r2\n"
               "*(u64 *)(r1 - 600) = r2\n"
               "exit")
        outcome, _, memory = observe_asm(asm)
        assert outcome[0] == "fault"
        assert memory["stack"][-8:] == (1).to_bytes(8, "little")

    def test_budget_exhausted_mid_run_identical(self):
        # the budget fault lands on the exact instruction
        program = BpfProgram(
            "t", assemble("r0 = 1\nr0 += 1\nr0 += 2\nr0 += 3\nr0 += 4\nexit"))
        for budget in range(1, 6):
            outcome, counters, _ = observe(program, max_insns=budget)
            assert outcome == BUDGET_FAULT
            assert counters[0] == budget

    def test_store_load_aliasing_in_run(self):
        # a load after a store to the same address sees the stored value
        asm = ("r1 = 0x11223344\n"
               "*(u32 *)(r10 - 4) = r1\n"
               "r0 = *(u32 *)(r10 - 4)\n"
               "exit")
        outcome, _, _ = observe_asm(asm)
        assert outcome == ("ok", 0x11223344)


class TestBudgetExpiry:
    def test_expiry_at_helper_and_atomic(self):
        program = BpfProgram("t", assemble(
            "call 7\n*(u64 *)(r10 - 8) = 1\nr1 = 2\n"
            "lock *(u64 *)(r10 - 8) += r1\ncall 7\nexit"))
        for budget in range(1, 6):
            outcome, counters, _ = observe(program, max_insns=budget)
            assert outcome == BUDGET_FAULT
            assert counters[0] == budget

    def test_mid_loop_expiry_counters_exact(self):
        program = BpfProgram("t", assemble(LOOP))
        for budget in (1, 2, 3, 7, 12, 30, 50):
            outcome, counters, _ = observe(program, max_insns=budget)
            assert outcome == BUDGET_FAULT
            assert counters[0] == budget


class TestMemoryIndex:
    def test_find_after_delete(self):
        memory = Memory()
        region = memory.add_region("a", 0x1000_0000, 64)
        assert memory.find(0x1000_0000, 8) is region
        memory.remove_region("a")
        with pytest.raises(MemoryFault):
            memory.find(0x1000_0000, 8)

    def test_window_straddling_region(self):
        memory = Memory()
        region = memory.add_region("edge", 0x1FFF_FFF8, 16)
        assert memory.find(0x1FFF_FFF8, 8) is region
        assert memory.find(0x2000_0000, 8) is region


class TestSetPacketReuse:
    def _machine(self):
        program = BpfProgram("t", assemble("r0 = 0\nexit"),
                             prog_type=ProgramType.XDP)
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
    def _assert_synced(self, machine):
        assert (machine.counters.cache_references
                == machine.cache.stats.references)
        assert machine.counters.cache_misses == machine.cache.stats.misses
        assert (machine.counters.branch_misses
                == machine.branch.stats.mispredictions)

    def test_counters_synced_after_run(self):
        program = BpfProgram("t", assemble(
            "*(u64 *)(r10 - 8) = 1\nr0 = *(u64 *)(r10 - 8)\nexit"))
        machine = Machine(program)
        machine.run()
        self._assert_synced(machine)

    def test_counters_synced_after_fault(self):
        machine = Machine(BpfProgram("t", assemble(LOOP)), max_insns=13)
        with pytest.raises(VmFault):
            machine.run()
        self._assert_synced(machine)


def test_reference_is_the_only_engine():
    program = BpfProgram("t", assemble("r0 = 0\nexit"))
    with pytest.raises(ValueError, match="unknown engine 'jit'"):
        Machine(program, engine="jit")
    # the names the repository benchmark still reads
    engine = inspect.signature(Machine.__init__).parameters["engine"]
    assert engine.default == "reference"
    from repro.vm.engine import decode_cache_stats
    from repro.vm.engine.jit import jit_cache_stats

    for stats in (decode_cache_stats(), jit_cache_stats()):
        assert vars(stats) == {"hits": 0, "misses": 0}
