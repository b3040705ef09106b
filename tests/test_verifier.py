"""Verifier tests: safety rules, NPI accounting, kernel configs."""

import pytest

from repro.isa import BpfProgram, MapSpec, assemble
from repro.verifier import DEFAULT_KERNEL, KERNELS, verify


def check(asm: str, maps=None, ctx_size: int = 24, prog_type="xdp",
          kernel=DEFAULT_KERNEL, mcpu="v2"):
    from repro.isa import ProgramType

    program = BpfProgram(
        "t", assemble(asm), prog_type=ProgramType(prog_type),
        maps=maps or {}, ctx_size=ctx_size, mcpu=mcpu,
    )
    return verify(program, kernel)


GOOD_PACKET_READ = """
    r2 = *(u64 *)(r1 + 0)
    r3 = *(u64 *)(r1 + 8)
    r4 = r2
    r4 += 14
    if r4 > r3 goto out
    r0 = *(u8 *)(r2 + 13)
    exit
out:
    r0 = 0
    exit
"""


class TestAccepts:
    def test_trivial(self):
        assert check("r0 = 0\nexit").ok

    def test_packet_access_after_bounds_check(self):
        assert check(GOOD_PACKET_READ).ok

    def test_stack_roundtrip(self):
        assert check("""
            r1 = 7
            *(u64 *)(r10 - 8) = r1
            r0 = *(u64 *)(r10 - 8)
            exit
        """).ok

    def test_map_lookup_with_null_check(self):
        maps = {"m": MapSpec("m", "array", 4, 8, 4)}
        assert check("""
            *(u32 *)(r10 - 4) = 0
            r2 = r10
            r2 += -4
            r1 = 1 ll
            call 1
            if r0 == 0 goto out
            r1 = *(u64 *)(r0 + 0)
        out:
            r0 = 0
            exit
        """, maps=maps).ok

    def test_spilled_pointer_restored(self):
        assert check("""
            r2 = *(u64 *)(r1 + 0)
            r3 = *(u64 *)(r1 + 8)
            *(u64 *)(r10 - 8) = r2
            r4 = r2
            r4 += 10
            if r4 > r3 goto out
            r5 = *(u64 *)(r10 - 8)
            r0 = *(u8 *)(r5 + 9)
            exit
        out:
            r0 = 0
            exit
        """).ok

    def test_bounded_loop(self):
        result = check("""
            r1 = 0
            r0 = 0
        loop:
            r0 += r1
            r1 += 1
            if r1 < 16 goto loop
            exit
        """)
        assert result.ok
        assert result.npi > 16  # loop body walked per iteration

    def test_variable_packet_offset_with_bounds(self):
        assert check("""
            r2 = *(u64 *)(r1 + 0)
            r3 = *(u64 *)(r1 + 8)
            r4 = r2
            r4 += 64
            if r4 > r3 goto out
            r5 = *(u8 *)(r2 + 0)
            r5 &= 0x1f
            r2 += r5
            r0 = *(u8 *)(r2 + 0)
            exit
        out:
            r0 = 0
            exit
        """).ok


class TestRejects:
    def test_uninitialized_register(self):
        result = check("r0 = r5\nexit")
        assert not result.ok
        assert "read_ok" in result.reason

    def test_uninitialized_stack_read(self):
        result = check("r0 = *(u64 *)(r10 - 16)\nexit")
        assert not result.ok
        assert "uninitialized" in result.reason

    def test_packet_access_without_check(self):
        result = check("""
            r2 = *(u64 *)(r1 + 0)
            r0 = *(u8 *)(r2 + 0)
            exit
        """)
        assert not result.ok
        assert "packet" in result.reason

    def test_packet_access_beyond_checked_range(self):
        result = check("""
            r2 = *(u64 *)(r1 + 0)
            r3 = *(u64 *)(r1 + 8)
            r4 = r2
            r4 += 14
            if r4 > r3 goto out
            r0 = *(u8 *)(r2 + 14)
            exit
        out:
            r0 = 0
            exit
        """)
        assert not result.ok

    def test_map_value_without_null_check(self):
        maps = {"m": MapSpec("m", "array", 4, 8, 4)}
        result = check("""
            *(u32 *)(r10 - 4) = 0
            r2 = r10
            r2 += -4
            r1 = 1 ll
            call 1
            r1 = *(u64 *)(r0 + 0)
            r0 = 0
            exit
        """, maps=maps)
        assert not result.ok
        assert "NULL" in result.reason

    def test_map_value_out_of_bounds(self):
        maps = {"m": MapSpec("m", "array", 4, 8, 4)}
        result = check("""
            *(u32 *)(r10 - 4) = 0
            r2 = r10
            r2 += -4
            r1 = 1 ll
            call 1
            if r0 == 0 goto out
            r1 = *(u64 *)(r0 + 8)
        out:
            r0 = 0
            exit
        """, maps=maps)
        assert not result.ok

    def test_write_to_ctx(self):
        result = check("*(u32 *)(r1 + 0) = 1\nr0 = 0\nexit")
        assert not result.ok

    def test_frame_pointer_write(self):
        result = check("r10 = 5\nr0 = 0\nexit")
        assert not result.ok

    def test_stack_out_of_bounds(self):
        result = check("r1 = 0\n*(u64 *)(r10 - 520) = r1\nr0 = 0\nexit")
        assert not result.ok

    def test_misaligned_stack_access(self):
        result = check("r1 = 0\n*(u32 *)(r10 - 6) = r1\nr0 = 0\nexit")
        assert not result.ok
        assert "misaligned" in result.reason

    def test_stack_write_past_fp(self):
        result = check("r1 = 0\n*(u64 *)(r10 - 4) = r1\nr0 = 0\nexit")
        assert not result.ok
        assert "invalid stack access" in result.reason

    def test_jump_out_of_bounds(self):
        result = check("r0 = 0\ngoto +10\nexit")
        assert not result.ok

    def test_uninitialized_r0_at_exit(self):
        result = check("r1 = 0\nexit")
        assert not result.ok

    def test_returning_pointer(self):
        result = check("r0 = r10\nexit")
        assert not result.ok
        assert "pointer" in result.reason

    def test_leaking_pointer_to_packet(self):
        result = check("""
            r2 = *(u64 *)(r1 + 0)
            r3 = *(u64 *)(r1 + 8)
            r4 = r2
            r4 += 14
            if r4 > r3 goto out
            *(u64 *)(r2 + 0) = r10
        out:
            r0 = 0
            exit
        """)
        assert not result.ok

    def test_infinite_loop_hits_complexity_limit(self):
        result = check("""
            r0 = 0
        loop:
            r0 += 1
            goto loop
        """, kernel=KERNELS["4.15"])
        assert not result.ok

    def test_pointer_multiplication(self):
        result = check("r1 *= 2\nr0 = 0\nexit")
        assert not result.ok

    def test_unbounded_variable_packet_offset(self):
        result = check("""
            r2 = *(u64 *)(r1 + 0)
            r3 = *(u64 *)(r1 + 8)
            r4 = r2
            r4 += 14
            if r4 > r3 goto out
            r5 = *(u64 *)(r10 - 8)
        out:
            r0 = 0
            exit
        """)
        assert not result.ok  # r10-8 uninitialized (distinct failure)

    def test_helper_bad_map_arg(self):
        result = check("""
            r1 = 5
            *(u32 *)(r10 - 4) = 0
            r2 = r10
            r2 += -4
            call 1
            r0 = 0
            exit
        """)
        assert not result.ok


class TestKernelConfigs:
    def test_old_kernel_rejects_alu32(self):
        result = check("w0 = 0\nexit", kernel=KERNELS["4.15"])
        assert not result.ok
        assert "ALU32" in result.reason

    def test_new_kernel_accepts_alu32(self):
        assert check("w0 = 0\nexit", kernel=KERNELS["6.5"]).ok

    def test_size_limit_415(self):
        big = "\n".join(["r0 = 0"] * 5000) + "\nexit"
        result = check(big, kernel=KERNELS["4.15"])
        assert not result.ok
        assert "too large" in result.reason

    def test_size_limit_ok_on_52(self):
        big = "\n".join(["r0 = 0"] * 5000) + "\nexit"
        assert check(big, kernel=KERNELS["5.2"]).ok

    def test_alu32_imprecise_on_old_kernels(self):
        # pre-5.13 kernels lose bounds through ALU32: a packet offset
        # computed with w-registers cannot prove safety
        asm = """
            r2 = *(u64 *)(r1 + 0)
            r3 = *(u64 *)(r1 + 8)
            r4 = r2
            r4 += 64
            if r4 > r3 goto out
            r5 = *(u8 *)(r2 + 0)
            w5 &= 0x1f
            r2 += r5
            r0 = *(u8 *)(r2 + 0)
            exit
        out:
            r0 = 0
            exit
        """
        assert not check(asm, kernel=KERNELS["5.2"]).ok
        assert check(asm, kernel=KERNELS["6.5"]).ok


class TestMetrics:
    def test_npi_exceeds_ni_with_branches(self):
        result = check(GOOD_PACKET_READ)
        program_ni = len(assemble(GOOD_PACKET_READ))
        assert result.npi >= program_ni

    def test_verification_time_model_positive(self):
        result = check(GOOD_PACKET_READ)
        assert result.verification_time_ns > 0

    def test_pruning_counts(self):
        # diamond CFG: the join point gets a stored state and prunes
        asm = """
            r2 = *(u32 *)(r1 + 16)
            r0 = 0
            if r2 == 1 goto a
            r0 = 1
        a:
            r0 += 1
            r0 = 0
            exit
        """
        result = check(asm)
        assert result.ok
        assert result.total_states >= 2

    def test_states_tracked(self):
        result = check(GOOD_PACKET_READ)
        assert result.peak_states >= 1
        assert result.total_states >= 1


class TestEndReservedFields:
    """Kernels 4.15-6.5 reject an END with a source register, an offset,
    a width other than 16, 32 or 64, or the 64-bit class."""

    @staticmethod
    def _verdict(opcode: int, imm: int, src: int = 0, off: int = 0):
        from repro.isa import Instruction

        insns = assemble("r0 = 0x1234") + [
            Instruction(opcode, dst=0, src=src, off=off, imm=imm)
        ] + assemble("exit")
        return verify(BpfProgram("t", insns))

    @pytest.mark.parametrize("opcode", [0xd4, 0xdc])
    @pytest.mark.parametrize("imm", [16, 32, 64])
    def test_32_bit_class_swaps_verify(self, opcode, imm):
        assert self._verdict(opcode, imm).ok

    @pytest.mark.parametrize("fields", [
        {"opcode": 0xdc, "imm": 12}, {"opcode": 0xdc, "imm": 24},
        {"opcode": 0xd4, "imm": 0}, {"opcode": 0xd4, "imm": 16, "src": 1},
        {"opcode": 0xdc, "imm": 32, "off": 2}, {"opcode": 0xd7, "imm": 16},
        {"opcode": 0xdf, "imm": 64},
    ])
    def test_reserved_fields_rejected(self, fields):
        result = self._verdict(**fields)
        assert not result.ok
        assert result.reason == "at insn 1: BPF_END uses reserved fields"
