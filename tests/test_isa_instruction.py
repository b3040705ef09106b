"""Unit tests for eBPF instruction encode/decode and classification."""

import dataclasses

import pytest
from hypothesis import given, strategies as st

from repro.isa import (
    EncodingError,
    Instruction,
    alu32,
    alu64,
    atomic,
    call,
    encoded_length,
    exit_,
    jump,
    jump32,
    ld_imm64,
    load,
    mov32_imm,
    mov64_imm,
    mov64_reg,
    ni,
    store_imm,
    store_reg,
)
from repro.isa import opcodes as op


class TestEncoding:
    def test_simple_mov_is_8_bytes(self):
        assert len(mov64_imm(1, 5).encode()) == 8

    def test_ld_imm64_is_16_bytes(self):
        assert len(ld_imm64(1, 0xDEADBEEFCAFEBABE).encode()) == 16

    def test_roundtrip_mov(self):
        insn = mov64_imm(3, -42)
        assert Instruction.decode_stream(insn.encode()) == [insn]

    def test_roundtrip_ld_imm64_large(self):
        insn = ld_imm64(2, 0xFFFF_FFFF_F000_0000)
        assert Instruction.decode_stream(insn.encode()) == [insn]

    def test_roundtrip_negative_offset_store(self):
        insn = store_reg(4, op.R10, -4, op.R1)
        assert Instruction.decode_stream(insn.encode()) == [insn]

    def test_decode_rejects_partial_instruction(self):
        with pytest.raises(EncodingError):
            Instruction.decode_stream(b"\x07\x01\x00")

    def test_decode_rejects_truncated_ld_imm64(self):
        data = ld_imm64(1, 1).encode()[:8]
        with pytest.raises(EncodingError):
            Instruction.decode_stream(data)

    def test_encode_rejects_bad_register(self):
        with pytest.raises(EncodingError):
            Instruction(op.BPF_ALU64 | op.BPF_MOV | op.BPF_K, dst=12).encode()

    def test_opcode_layout_matches_kernel(self):
        # mov r1, 1 encodes to b7 01 00 00 01 00 00 00 (paper Fig. 4)
        assert mov64_imm(1, 1).encode() == bytes(
            [0xB7, 0x01, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00]
        )

    def test_store_imm_u64_encoding(self):
        # movq $1, -0x40(r10): 7a 0a c0 ff 01 00 00 00 (paper Fig. 4)
        assert store_imm(8, op.R10, -0x40, 1).encode() == bytes(
            [0x7A, 0x0A, 0xC0, 0xFF, 0x01, 0x00, 0x00, 0x00]
        )

    def test_mov32_reg_encoding(self):
        # movl r0, r0: bc 00 (paper Fig. 8)
        insn = Instruction(op.BPF_ALU | op.BPF_MOV | op.BPF_X, dst=0, src=0)
        assert insn.encode()[0] == 0xBC

    @given(
        st.sampled_from(["add", "sub", "mul", "div", "or", "and", "lsh",
                         "rsh", "mod", "xor", "mov", "arsh"]),
        st.integers(0, 10),
        st.integers(-(2 ** 31), 2 ** 31 - 1),
    )
    def test_alu64_imm_roundtrip(self, name, dst, imm):
        insn = alu64(name, dst, imm=imm)
        assert Instruction.decode_stream(insn.encode()) == [insn]

    @given(st.integers(0, 2 ** 64 - 1), st.integers(0, 9))
    def test_ld_imm64_roundtrip(self, value, reg):
        insn = ld_imm64(reg, value)
        decoded = Instruction.decode_stream(insn.encode())
        assert decoded == [insn]
        assert decoded[0].imm == value

    @given(st.integers(-(2 ** 15), 2 ** 15 - 1))
    def test_jump_offset_roundtrip(self, off):
        insn = jump("jeq", 1, imm=0, off=off)
        assert Instruction.decode_stream(insn.encode())[0].off == off


class TestClassification:
    def test_alu64_vs_alu32(self):
        assert alu64("add", 1, imm=1).is_alu64
        assert alu32("add", 1, imm=1).is_alu32
        assert not alu32("add", 1, imm=1).is_alu64

    def test_memory_predicates(self):
        ld = load(4, 1, 2, 0)
        st_ = store_reg(4, 1, 0, 2)
        assert ld.is_load and not ld.is_store
        assert st_.is_store and not st_.is_load
        assert ld.is_memory and st_.is_memory

    def test_ld_imm64_is_not_a_memory_load(self):
        assert not ld_imm64(1, 5).is_load

    def test_atomic_classification(self):
        insn = atomic(8, op.BPF_ATOMIC_ADD, 1, 0, 2)
        assert insn.is_atomic and insn.is_store

    def test_store_imm_classification(self):
        assert store_imm(4, op.R10, -4, 7).is_store_imm

    def test_call_exit(self):
        assert call(1).is_call
        assert exit_().is_exit
        assert not call(1).is_exit

    def test_atomic_requires_word_size(self):
        with pytest.raises(EncodingError):
            atomic(2, op.BPF_ATOMIC_ADD, 1, 0, 2)

    def test_size_bytes(self):
        assert load(1, 0, 1).size_bytes == 1
        assert load(2, 0, 1).size_bytes == 2
        assert load(4, 0, 1).size_bytes == 4
        assert load(8, 0, 1).size_bytes == 8

    def test_size_bytes_on_alu_raises(self):
        with pytest.raises(EncodingError):
            _ = mov64_imm(0, 1).size_bytes


class TestUseDef:
    def test_mov_imm_defines_dst_uses_nothing(self):
        insn = mov64_imm(3, 7)
        assert insn.defs() == (3,)
        assert insn.uses() == ()

    def test_mov_reg_uses_src(self):
        insn = mov64_reg(3, 5)
        assert insn.defs() == (3,)
        assert insn.uses() == (5,)

    def test_add_reg_uses_both(self):
        insn = alu64("add", 2, src=4)
        assert set(insn.uses()) == {2, 4}
        assert insn.defs() == (2,)

    def test_add_imm_uses_dst_only(self):
        insn = alu64("add", 2, imm=1)
        assert insn.uses() == (2,)

    def test_neg_uses_dst(self):
        assert alu64("neg", 2).uses() == (2,)

    def test_load_uses_base_defines_dst(self):
        insn = load(4, 1, 7, 12)
        assert insn.uses() == (7,)
        assert insn.defs() == (1,)

    def test_store_reg_uses_both_defines_none(self):
        insn = store_reg(4, 7, 0, 1)
        assert set(insn.uses()) == {7, 1}
        assert insn.defs() == ()

    def test_store_imm_uses_base_only(self):
        assert store_imm(4, 7, 0, 1).uses() == (7,)

    def test_atomic_fetch_defines_src(self):
        insn = atomic(8, op.BPF_ATOMIC_ADD | op.BPF_FETCH, 1, 0, 2)
        assert insn.defs() == (2,)

    def test_atomic_nonfetch_defines_nothing(self):
        insn = atomic(8, op.BPF_ATOMIC_ADD, 1, 0, 2)
        assert insn.defs() == ()

    def test_call_defines_r0(self):
        assert call(1).defs() == (op.R0,)

    def test_exit_uses_r0(self):
        assert exit_().uses() == (op.R0,)

    def test_cond_jump_uses(self):
        assert jump("jeq", 1, src=2).uses() == (1, 2)
        assert jump("jeq", 1, imm=0).uses() == (1,)
        assert jump("ja").uses() == ()


class TestCounting:
    def test_ni_counts_ld_imm64_twice(self):
        insns = [mov64_imm(0, 0), ld_imm64(1, 2 ** 40), exit_()]
        assert ni(insns) == 4
        assert encoded_length(insns) == 32

    def test_jump32(self):
        insn = jump32("jlt", 1, imm=5, off=3)
        assert insn.insn_class == op.BPF_JMP32
        assert Instruction.decode_stream(insn.encode()) == [insn]


class TestWith:
    """``with_`` builds the copy with the constructor; it must answer
    what ``dataclasses.replace`` answers."""

    FIELDS = ("opcode", "dst", "src", "off", "imm")

    @given(st.sampled_from([mov64_reg(1, 2), ld_imm64(3, 2 ** 40, src=1),
                            jump("jeq", 1, imm=7, off=-4), call(6),
                            store_imm(4, op.R10, -8, 9)]),
           st.sampled_from(FIELDS), st.integers(-(2 ** 40), 2 ** 40))
    def test_each_field_matches_replace(self, insn, name, value):
        assert insn.with_(**{name: value}) == \
            dataclasses.replace(insn, **{name: value})

    def test_several_fields_and_none(self):
        insn = alu64("add", 1, src=2)
        assert insn.with_(dst=3, src=4, off=5) == \
            dataclasses.replace(insn, dst=3, src=4, off=5)
        assert insn.with_() == insn and insn.with_() is not insn

    def test_unknown_field_raises_type_error(self):
        with pytest.raises(TypeError):
            mov64_imm(1, 2).with_(reg=3)
        with pytest.raises(TypeError):
            mov64_imm(1, 2).with_(4)

    def test_result_stays_frozen(self):
        copy = mov64_imm(1, 2).with_(imm=3)
        with pytest.raises(dataclasses.FrozenInstanceError):
            copy.imm = 4
        assert type(copy) is Instruction


# --- per-opcode tables against a direct bit-field decode -------------------
# The oracle below decodes the fields of the instruction-set
# specification straight from the opcode byte, independently of the
# tables in ``repro.isa.opcodes``.

def _field_decode(insn):
    """Every classification the tables answer, from the raw fields."""
    opcode = insn.opcode
    cls = opcode & 0x07
    code = opcode & 0xF0
    ld_imm64 = opcode == 0x18
    alu = cls in (0x04, 0x07)
    jmp = cls in (0x05, 0x06)
    call_ = cls == 0x05 and code == 0x80
    exit__ = cls == 0x05 and code == 0x90
    load_ = cls in (0x00, 0x01) and not ld_imm64
    store = cls in (0x02, 0x03)
    atomic_ = cls == 0x03 and (opcode & 0xE0) == 0xC0
    uses_imm = not (opcode & 0x08) if alu or jmp else True
    width = {0x00: 4, 0x08: 2, 0x10: 1, 0x18: 8}[opcode & 0x18]
    fetch = atomic_ and bool(insn.imm & 0x01)

    if ld_imm64:
        uses = ()
    elif alu:
        if code in (0x80, 0xD0):  # neg, end
            uses = (insn.dst,)
        elif code == 0xB0:  # mov
            uses = () if uses_imm else (insn.src,)
        else:
            uses = (insn.dst,) if uses_imm else (insn.dst, insn.src)
    elif load_:
        uses = (insn.src,)
    elif atomic_:
        uses = (insn.dst, insn.src) + ((0,) if insn.imm == 0xF1 else ())
    elif store:
        uses = (insn.dst,) if cls == 0x02 else (insn.dst, insn.src)
    elif call_:
        uses = (1, 2, 3, 4, 5)
    elif exit__:
        uses = (0,)
    elif jmp and code != 0x00:
        uses = (insn.dst,) if uses_imm else (insn.dst, insn.src)
    else:
        uses = ()

    if alu or ld_imm64 or load_:
        defs = (insn.dst,)
    elif call_:
        defs = (0,)
    elif fetch:
        defs = (0,) if insn.imm == 0xF1 else (insn.src,)
    else:
        defs = ()
    clobbers = (0, 1, 2, 3, 4, 5) if call_ else ()

    return {
        "insn_class": cls, "alu_op": code, "jmp_op": code,
        "is_alu": alu, "is_alu64": cls == 0x07, "is_alu32": cls == 0x04,
        "is_jump": jmp, "is_call": call_, "is_exit": exit__,
        "is_load": load_, "is_store": store, "is_memory": load_ or store,
        "is_atomic": atomic_, "is_store_imm": cls == 0x02,
        "is_ld_imm64": ld_imm64, "uses_imm": uses_imm,
        "slots": 2 if ld_imm64 else 1,
        "size_bytes": width if load_ or store or ld_imm64 else None,
        "uses": uses, "defs": defs,
        "use_mask": sum({1 << r for r in uses}),
        "def_mask": sum({1 << r for r in defs + clobbers}),
    }


_SAMPLED_IMMS = (0, 1, 32, -1, op.BPF_ATOMIC_ADD | op.BPF_FETCH,
                 op.BPF_ATOMIC_XOR, op.BPF_XCHG, op.BPF_CMPXCHG)
_SAMPLED_REGS = ((0, 0), (1, 2), (5, 0), (10, 9), (3, 3))


def test_fits_imm32_is_the_s32_range():
    from repro.isa.semantics import fits_imm32

    assert fits_imm32(-(1 << 31)) and fits_imm32((1 << 31) - 1)
    assert not fits_imm32(1 << 31)
    assert not fits_imm32(-(1 << 31) - 1)


class TestOpcodeTables:
    def test_every_opcode_matches_the_field_decode(self):
        checked = 0
        for opcode in range(256):
            for dst, src in _SAMPLED_REGS:
                for imm in _SAMPLED_IMMS:
                    insn = Instruction(opcode, dst=dst, src=src, imm=imm)
                    expected = _field_decode(insn)
                    size = expected.pop("size_bytes")
                    got = {name: getattr(insn, name) for name in expected
                           if name not in ("uses", "defs")}
                    got["uses"] = insn.uses()
                    got["defs"] = insn.defs()
                    assert got == expected, (hex(opcode), dst, src, imm)
                    if size is None:
                        with pytest.raises(EncodingError):
                            _ = insn.size_bytes
                    else:
                        assert insn.size_bytes == size
                    checked += 1
        assert checked == 256 * len(_SAMPLED_REGS) * len(_SAMPLED_IMMS)

    def test_classifications_are_bools(self):
        for opcode in range(256):
            insn = Instruction(opcode)
            for name in ("is_alu", "is_jump", "is_call", "is_exit",
                         "is_load", "is_store", "is_memory", "is_atomic",
                         "is_ld_imm64", "uses_imm"):
                assert type(getattr(insn, name)) is bool

    def test_atomic_fetch_variants(self):
        xchg = atomic(8, op.BPF_XCHG, 1, 0, 2)
        assert xchg.defs() == (2,) and xchg.def_mask == 1 << 2
        cmpxchg = atomic(8, op.BPF_CMPXCHG, 1, 0, 2)
        assert cmpxchg.uses() == (1, 2, op.R0)
        assert cmpxchg.defs() == (op.R0,) and cmpxchg.def_mask == 1

    def test_call_def_mask_folds_clobbers(self):
        assert call(1).defs() == (op.R0,)
        assert call(1).def_mask == 0b111111
        assert call(1).use_mask == 0b111110
