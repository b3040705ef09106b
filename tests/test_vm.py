"""VM tests: ALU semantics, memory, maps, helpers, cost accounting."""

import struct

import pytest
from hypothesis import given, strategies as st

from repro.isa import BpfProgram, Instruction, MapSpec, assemble
from repro.vm import cost
from repro.vm import (
    ArrayMap,
    BPF_EXIST,
    BPF_NOEXIST,
    HashMap,
    LruHashMap,
    Machine,
    MapError,
    Memory,
    MemoryFault,
    VmFault,
    create_map,
)

U64 = (1 << 64) - 1


def run(asm: str, ctx: bytes = b"", packet=None, maps=None,
        ctx_size: int = 64) -> int:
    program = BpfProgram("t", assemble(asm), maps=maps or {},
                         ctx_size=ctx_size)
    return Machine(program).run(ctx=ctx, packet=packet).return_value


class TestAlu64:
    def test_add_wraps(self):
        assert run("r0 = -1\nr0 += 2\nexit") == 1

    def test_sub_underflow_wraps(self):
        assert run("r0 = 0\nr0 -= 1\nexit") == U64

    def test_mul(self):
        assert run("r0 = 7\nr0 *= 6\nexit") == 42

    def test_div_unsigned(self):
        assert run("r0 = -1\nr1 = 2\nr0 /= r1\nexit") == U64 // 2

    def test_div_by_zero_yields_zero(self):
        assert run("r0 = 10\nr1 = 0\nr0 /= r1\nexit") == 0

    def test_mod_by_zero_keeps_dst(self):
        assert run("r0 = 10\nr1 = 0\nr0 %= r1\nexit") == 10

    def test_shifts(self):
        assert run("r0 = 1\nr0 <<= 40\nexit") == 1 << 40
        assert run("r0 = 1\nr0 <<= 40\nr0 >>= 8\nexit") == 1 << 32

    def test_shift_modulo_width(self):
        assert run("r0 = 1\nr1 = 65\nr0 <<= r1\nexit") == 2

    def test_arsh_sign_extends(self):
        assert run("r0 = -8\nr0 s>>= 1\nexit") == (-4) & U64

    def test_neg(self):
        assert run("r0 = 5\nr0 = -r0\nexit") == (-5) & U64

    def test_imm_sign_extension(self):
        # mov64 imm is sign-extended to 64 bits
        assert run("r0 = -1\nexit") == U64


class TestAlu32:
    def test_mov32_zero_extends(self):
        assert run("r0 = -1\nw0 = w0\nexit") == 0xFFFFFFFF

    def test_add32_wraps_and_zero_extends(self):
        assert run("r0 = 0xffffffff ll\nw0 += 1\nexit") == 0

    def test_alu32_imm_masked(self):
        assert run("w0 = -1\nexit") == 0xFFFFFFFF

    def test_rsh32_operates_on_low_half(self):
        assert run("r0 = 0xdeadbeefcafebabe ll\nw0 >>= 16\nexit") == 0xCAFE

    def test_bswap16(self):
        assert run("r0 = 0x1234\nr0 = be16 r0\nexit") == 0x3412

    def test_bswap64_keeps_the_high_half(self):
        # END sits in the 32-bit class but swaps the low imm bits of the
        # 64-bit register, as the kernel's htobe64/htole64 do
        value = "r0 = 0x1122334455667788 ll\n"
        assert run(value + "r0 = be64 r0\nexit") == 0x8877665544332211
        assert run(value + "r0 = le64 r0\nexit") == 0x1122334455667788


def _run_end(opcode: int, imm: int, src: int = 0) -> int:
    """r0 after ``r0 = 0x1234`` and one END instruction."""
    insns = assemble("r0 = 0x1234") + [
        Instruction(opcode, dst=0, src=src, imm=imm)] + assemble("exit")
    return Machine(BpfProgram("t", insns)).run().return_value


class TestEndEncodings:
    """END is 0xd4 (to LE) and 0xdc (to BE) in the 32-bit class and
    0xd7 (swap) in the 64-bit class, with imm 16, 32 or 64; 0xdf and
    every other width are reserved."""

    @pytest.mark.parametrize("opcode", [0xd4, 0xdc, 0xd7])
    @pytest.mark.parametrize("imm", [0, 8, 12, 24, 48, 128])
    def test_reserved_width_faults(self, opcode, imm):
        with pytest.raises(VmFault, match="reserved END"):
            _run_end(opcode, imm)

    @pytest.mark.parametrize("imm", [16, 32, 64])
    def test_64_bit_to_be_is_reserved(self, imm):
        with pytest.raises(VmFault, match="reserved END"):
            _run_end(0xdf, imm)

    def test_64_bit_class_swaps_unconditionally(self):
        assert _run_end(0xd7, 16) == 0x3412
        assert _run_end(0xd7, 32) == 0x34120000
        assert _run_end(0xd7, 64) == 0x3412 << 48
        assert _run_end(0xd4, 16) == 0x1234
        assert _run_end(0xdc, 16) == 0x3412


class TestJumps:
    def test_taken_and_not_taken(self):
        asm = """
            r1 = 5
            if r1 > 3 goto yes
            r0 = 0
            exit
        yes:
            r0 = 1
            exit
        """
        assert run(asm) == 1

    def test_signed_compare(self):
        asm = """
            r1 = -5
            if r1 s< 0 goto neg
            r0 = 0
            exit
        neg:
            r0 = 1
            exit
        """
        assert run(asm) == 1

    def test_unsigned_compare_of_negative(self):
        asm = """
            r1 = -5
            if r1 < 0 goto small
            r0 = 1
            exit
        small:
            r0 = 0
            exit
        """
        assert run(asm) == 1  # -5 as unsigned is huge

    def test_jset(self):
        asm = """
            r1 = 0b1010
            if r1 & 0b0010 goto yes
            r0 = 0
            exit
        yes:
            r0 = 1
            exit
        """
        assert run(asm.replace("0b1010", "10").replace("0b0010", "2")) == 1

    def test_jump32_compares_low_half(self):
        asm = """
            r1 = 0xffffffff00000001 ll
            if w1 == 1 goto yes
            r0 = 0
            exit
        yes:
            r0 = 1
            exit
        """
        assert run(asm) == 1

    def test_infinite_loop_trapped(self):
        program = BpfProgram("loop", assemble("start:\ngoto start"))
        with pytest.raises(VmFault, match="budget"):
            Machine(program, max_insns=1000).run()

    def test_out_of_bounds_pc_trapped(self):
        program = BpfProgram("bad", assemble("r0 = 0\ngoto +5\nexit"))
        with pytest.raises(VmFault):
            Machine(program).run()


class TestMemoryAccess:
    def test_stack_store_load(self):
        asm = """
            r1 = 0x11223344
            *(u32 *)(r10 - 4) = r1
            r0 = *(u32 *)(r10 - 4)
            exit
        """
        assert run(asm) == 0x11223344

    def test_little_endian_byte_order(self):
        asm = """
            *(u32 *)(r10 - 4) = 0x11223344
            r0 = *(u8 *)(r10 - 4)
            exit
        """
        assert run(asm) == 0x44

    def test_store_imm(self):
        assert run("*(u64 *)(r10 - 8) = 99\nr0 = *(u64 *)(r10 - 8)\nexit") == 99

    def test_ctx_read(self):
        ctx = struct.pack("<I", 0xABCD1234) + bytes(60)
        assert run("r0 = *(u32 *)(r1 + 0)\nexit", ctx=ctx) == 0xABCD1234

    def test_packet_pointers_in_ctx(self):
        asm = """
            r2 = *(u64 *)(r1 + 0)
            r0 = *(u8 *)(r2 + 2)
            exit
        """
        assert run(asm, packet=b"\x01\x02\x03\x04", ctx_size=24) == 3

    def test_unmapped_access_faults(self):
        with pytest.raises(VmFault):
            run("r1 = 0x999 ll\nr0 = *(u64 *)(r1 + 0)\nexit")

    def test_stack_overflow_faults(self):
        with pytest.raises(VmFault):
            run("r0 = *(u64 *)(r10 - 520)\nexit")

    def test_stack_garbage_not_zero(self):
        # uninitialized stack reads see the poison pattern, not zero
        assert run("r0 = *(u8 *)(r10 - 100)\nexit") == 0xA5


class TestAtomics:
    def test_xadd(self):
        asm = """
            *(u64 *)(r10 - 8) = 10
            r1 = 5
            lock *(u64 *)(r10 - 8) += r1
            r0 = *(u64 *)(r10 - 8)
            exit
        """
        assert run(asm) == 15

    def test_fetch_add_returns_old(self):
        asm = """
            *(u64 *)(r10 - 8) = 10
            r1 = 5
            r1 = lock *(u64 *)(r10 - 8) += r1
            r0 = r1
            exit
        """
        assert run(asm) == 10

    def test_atomic_and_or_xor(self):
        asm = """
            *(u64 *)(r10 - 8) = 12
            r1 = 10
            lock *(u64 *)(r10 - 8) &= r1
            r2 = 1
            lock *(u64 *)(r10 - 8) |= r2
            r0 = *(u64 *)(r10 - 8)
            exit
        """
        assert run(asm) == (12 & 10) | 1


class TestMaps:
    def _memory(self):
        return Memory()

    def test_array_lookup_hit_and_miss(self):
        m = create_map(MapSpec("a", "array", 4, 8, 4), self._memory())
        assert m.lookup(struct.pack("<I", 0)) != 0
        assert m.lookup(struct.pack("<I", 9)) == 0

    def test_array_update_and_read(self):
        mem = self._memory()
        m = create_map(MapSpec("a", "array", 4, 8, 4), mem)
        key = struct.pack("<I", 2)
        assert m.update(key, struct.pack("<Q", 777)) == 0
        addr = m.lookup(key)
        assert mem.load(addr, 8) == 777

    def test_array_noexist_rejected(self):
        m = create_map(MapSpec("a", "array", 4, 8, 4), self._memory())
        rc = m.update(struct.pack("<I", 0), struct.pack("<Q", 1), BPF_NOEXIST)
        assert rc == -17

    def test_array_delete_rejected(self):
        m = create_map(MapSpec("a", "array", 4, 8, 4), self._memory())
        assert m.delete(struct.pack("<I", 0)) == -22

    def test_array_key_size_enforced(self):
        with pytest.raises(MapError):
            create_map(MapSpec("a", "array", 8, 8, 4), self._memory())

    def test_hash_insert_lookup_delete(self):
        mem = self._memory()
        m = create_map(MapSpec("h", "hash", 8, 8, 4), mem)
        key = struct.pack("<Q", 42)
        assert m.lookup(key) == 0
        assert m.update(key, struct.pack("<Q", 1)) == 0
        assert m.lookup(key) != 0
        assert m.delete(key) == 0
        assert m.lookup(key) == 0

    def test_hash_full_rejects(self):
        m = create_map(MapSpec("h", "hash", 8, 8, 2), self._memory())
        for i in range(2):
            assert m.update(struct.pack("<Q", i), struct.pack("<Q", i)) == 0
        assert m.update(struct.pack("<Q", 99), struct.pack("<Q", 0)) == -7

    def test_hash_exist_flag(self):
        m = create_map(MapSpec("h", "hash", 8, 8, 4), self._memory())
        assert m.update(struct.pack("<Q", 1), struct.pack("<Q", 1),
                        BPF_EXIST) == -2

    def test_lru_evicts_oldest(self):
        m = create_map(MapSpec("l", "lru_hash", 8, 8, 2), self._memory())
        k = lambda i: struct.pack("<Q", i)
        m.update(k(1), struct.pack("<Q", 1))
        m.update(k(2), struct.pack("<Q", 2))
        m.lookup(k(1))  # touch 1 so 2 becomes LRU
        assert m.update(k(3), struct.pack("<Q", 3)) == 0
        assert m.lookup(k(2)) == 0  # evicted
        assert m.lookup(k(1)) != 0

    def test_value_size_enforced(self):
        m = create_map(MapSpec("h", "hash", 8, 8, 4), self._memory())
        with pytest.raises(MapError):
            m.update(struct.pack("<Q", 1), b"xx")

    def test_unknown_map_type(self):
        with pytest.raises(MapError):
            create_map(MapSpec("x", "treemap", 4, 4, 4), self._memory())


class TestCostAccounting:
    def test_instructions_counted(self):
        program = BpfProgram("t", assemble("r0 = 0\nr0 += 1\nexit"))
        machine = Machine(program)
        result = machine.run()
        assert result.counters.instructions == 3

    def test_ld_imm64_counts_once_executed(self):
        program = BpfProgram("t", assemble("r0 = 0x1 ll\nexit"))
        assert Machine(program).run().counters.instructions == 2

    def test_memory_access_hits_cache(self):
        asm = "*(u64 *)(r10 - 8) = 1\nr0 = *(u64 *)(r10 - 8)\nexit"
        program = BpfProgram("t", assemble(asm))
        machine = Machine(program)
        result = machine.run()
        assert result.counters.cache_references >= 2

    def test_repeated_runs_warm_cache(self):
        asm = "r0 = *(u64 *)(r10 - 8)\n" * 1 + "*(u64 *)(r10 - 8) = 1\nr0 = *(u64 *)(r10 - 8)\nexit"
        program = BpfProgram("t", assemble("*(u64 *)(r10 - 8) = 1\nr0 = *(u64 *)(r10 - 8)\nexit"))
        machine = Machine(program)
        first = machine.run().counters
        second = machine.run().counters
        assert second.cycles <= first.cycles  # warm cache is never slower

    def test_div_costs_more_than_add(self):
        add = Machine(BpfProgram("a", assemble("r0 = 1\nr0 += 1\nexit"))).run()
        div = Machine(BpfProgram("d", assemble("r0 = 1\nr1 = 1\nr0 /= r1\nexit"))).run()
        assert div.counters.cycles > add.counters.cycles

    def test_branches_counted(self):
        asm = """
            r0 = 0
            if r0 == 0 goto skip
            r0 = 1
        skip:
            exit
        """
        result = Machine(BpfProgram("b", assemble(asm))).run()
        assert result.counters.branches == 1


def _property_chain_cost(insn: Instruction) -> int:
    """``base_cost`` as it was before the cost table: a chain of
    ``Instruction`` properties, which raises ``KeyError`` for an ALU
    operation with no ``ALU_COST`` entry."""
    if insn.is_ld_imm64:
        return cost.LD_IMM64_COST
    if insn.is_alu:
        return cost.ALU_COST[insn.alu_op]
    if insn.is_atomic:
        return cost.ATOMIC_BASE_COST
    if insn.is_load:
        return 0
    if insn.is_store:
        return cost.STORE_BASE_COST
    if insn.is_exit:
        return cost.EXIT_COST
    if insn.is_jump:
        return cost.JUMP_COST
    return 1


class TestCostTable:
    def test_table_matches_the_property_chain_rule(self):
        raised = set()
        for opcode in range(256):
            insn = Instruction(opcode)
            try:
                expected = _property_chain_cost(insn)
            except KeyError:
                raised.add(opcode)
                expected = 1  # the rule's fallback
            assert cost.BASE_COST[opcode] == expected, hex(opcode)
            assert cost.base_cost(insn) == expected, hex(opcode)
        # ALU32 and ALU64, immediate and register forms, operations 0xe0
        # and 0xf0
        assert raised == {cls | code | src
                          for cls in (0x04, 0x07) for code in (0xE0, 0xF0)
                          for src in (0x00, 0x08)}


class TestHelpers:
    def test_ktime_monotonic(self):
        asm = "call 5\nr6 = r0\ncall 5\nr0 -= r6\nexit"
        program = BpfProgram("t", assemble(asm))
        assert Machine(program).run().return_value >= 0

    def test_prandom_deterministic_per_seed(self):
        asm = "call 7\nexit"
        program = BpfProgram("t", assemble(asm))
        a = Machine(program, seed=1).run().return_value
        b = Machine(program, seed=1).run().return_value
        c = Machine(program, seed=2).run().return_value
        assert a == b
        assert a != c  # overwhelmingly likely

    def test_pid_tgid_packing(self):
        from repro.vm import TaskContext

        asm = "call 14\nexit"
        program = BpfProgram("t", assemble(asm))
        machine = Machine(program, task=TaskContext(pid=7, tgid=9))
        assert machine.run().return_value == (9 << 32) | 7

    def test_unknown_helper_faults(self):
        from repro.vm import HelperError

        program = BpfProgram("t", assemble("call 9999\nexit"))
        with pytest.raises(HelperError):
            Machine(program).run()


@given(st.integers(0, U64), st.integers(0, U64))
def test_alu_add_matches_python(a, b):
    asm = f"r0 = 0x{a:x} ll\nr1 = 0x{b:x} ll\nr0 += r1\nexit"
    assert run(asm) == (a + b) & U64


@given(st.integers(0, U64), st.integers(0, 63))
def test_alu_shift_matches_python(a, s):
    asm = f"r0 = 0x{a:x} ll\nr0 >>= {s}\nexit"
    assert run(asm) == a >> s
