"""Tnum tests, including hypothesis soundness properties.

The key property of every tnum operation: if x is in A and y is in B,
then op(x, y) must be contained in A.op(B).
"""

import pytest
from hypothesis import given, strategies as st

from repro.verifier import Tnum

U64 = (1 << 64) - 1


def tnums():
    """Strategy: arbitrary tnums (value/mask non-overlapping)."""
    return st.builds(
        lambda v, m: Tnum(v & ~m & U64, m & U64),
        st.integers(0, U64),
        st.integers(0, U64),
    )


def member_of(tnum):
    """Strategy: one concrete member of *tnum*."""
    return st.integers(0, U64).map(
        lambda r: (tnum.value | (r & tnum.mask)) & U64
    )


class TestBasics:
    def test_const(self):
        t = Tnum.const(42)
        assert t.is_const and t.value == 42
        assert t.contains(42) and not t.contains(43)

    def test_unknown_contains_everything(self):
        t = Tnum.unknown()
        assert t.contains(0) and t.contains(U64)

    def test_overlap_rejected(self):
        with pytest.raises(ValueError):
            Tnum(1, 1)

    def test_range(self):
        t = Tnum.range(4, 7)
        for x in (4, 5, 6, 7):
            assert t.contains(x)
        assert t.umin <= 4 and t.umax >= 7

    def test_umin_umax(self):
        t = Tnum(0b1000, 0b0011)
        assert t.umin == 8
        assert t.umax == 11

    def test_cast_truncates(self):
        t = Tnum.const(0x1FF).cast(1)
        assert t.value == 0xFF

    def test_subset(self):
        small = Tnum.const(5)
        big = Tnum(4, 1)  # {4, 5}
        assert small.is_subset_of(big)
        assert not big.is_subset_of(small)


class TestArithmetic:
    def test_const_add(self):
        assert Tnum.const(3).add(Tnum.const(4)) == Tnum.const(7)

    def test_const_sub(self):
        assert Tnum.const(10).sub(Tnum.const(4)) == Tnum.const(6)

    def test_const_mul(self):
        assert Tnum.const(6).mul(Tnum.const(7)) == Tnum.const(42)

    def test_shift_consts(self):
        assert Tnum.const(1).lshift(4) == Tnum.const(16)
        assert Tnum.const(16).rshift(4) == Tnum.const(1)

    def test_and_known_zeros(self):
        t = Tnum.unknown().and_(Tnum.const(0xFF))
        assert t.umax <= 0xFF

    def test_or_known_ones(self):
        t = Tnum.unknown().or_(Tnum.const(0x80))
        assert t.umin >= 0  # sound but weak; known bit must be set
        assert t.value & 0x80 or t.mask & 0x80 == 0

    def test_intersect_of_const_and_unknown(self):
        t = Tnum.unknown().intersect(Tnum.const(9))
        assert t == Tnum.const(9)

    def test_union_covers_both(self):
        t = Tnum.const(4).union(Tnum.const(6))
        assert t.contains(4) and t.contains(6)


# --- soundness properties ----------------------------------------------------

@given(st.data(), tnums(), tnums())
def test_add_sound(data, a, b):
    x = data.draw(member_of(a))
    y = data.draw(member_of(b))
    assert a.add(b).contains((x + y) & U64)


@given(st.data(), tnums(), tnums())
def test_sub_sound(data, a, b):
    x = data.draw(member_of(a))
    y = data.draw(member_of(b))
    assert a.sub(b).contains((x - y) & U64)


@given(st.data(), tnums(), tnums())
def test_and_sound(data, a, b):
    x = data.draw(member_of(a))
    y = data.draw(member_of(b))
    assert a.and_(b).contains(x & y)


@given(st.data(), tnums(), tnums())
def test_or_sound(data, a, b):
    x = data.draw(member_of(a))
    y = data.draw(member_of(b))
    assert a.or_(b).contains(x | y)


@given(st.data(), tnums(), tnums())
def test_xor_sound(data, a, b):
    x = data.draw(member_of(a))
    y = data.draw(member_of(b))
    assert a.xor(b).contains(x ^ y)


@given(st.data(), tnums(), st.integers(0, 63))
def test_shifts_sound(data, a, shift):
    x = data.draw(member_of(a))
    assert a.lshift(shift).contains((x << shift) & U64)
    assert a.rshift(shift).contains(x >> shift)


@given(st.data(), tnums(), tnums())
def test_mul_sound(data, a, b):
    x = data.draw(member_of(a))
    y = data.draw(member_of(b))
    assert a.mul(b).contains((x * y) & U64)


def reference_mul(a, b):
    """The kernel's shift-and-add multiply, step by step on Tnums."""
    if a.is_const and b.is_const:
        return Tnum.const(a.value * b.value)
    acc_v = (a.value * b.value) & U64
    acc_m = Tnum(0, 0)
    while a.value or a.mask:
        if a.value & 1:
            acc_m = acc_m.add(Tnum(0, b.mask))
        elif a.mask & 1:
            acc_m = acc_m.add(Tnum(0, (b.value | b.mask) & U64))
        a = a.rshift(1)
        b = b.lshift(1)
    return Tnum.const(acc_v).add(acc_m)


def narrow_tnums():
    """Strategy: tnums with few unknown bits, as the verifier meets them."""
    return st.builds(
        lambda v, m, bits: Tnum(v & ~m & ((1 << bits) - 1), m & ((1 << bits) - 1)),
        st.integers(0, U64), st.integers(0, U64),
        st.sampled_from([1, 8, 16, 32, 64]),
    )


@given(st.one_of(tnums(), narrow_tnums()), st.one_of(tnums(), narrow_tnums()))
def test_mul_matches_the_tnum_loop(a, b):
    assert a.mul(b) == reference_mul(a, b)


@given(st.data(), tnums())
def test_cast_sound(data, a):
    x = data.draw(member_of(a))
    assert a.cast(4).contains(x & 0xFFFFFFFF)


@given(st.data(), tnums(), tnums())
def test_union_sound(data, a, b):
    x = data.draw(member_of(a))
    assert a.union(b).contains(x)


@given(st.integers(0, U64), st.integers(0, U64))
def test_range_contains_endpoints(lo, hi):
    lo, hi = min(lo, hi), max(lo, hi)
    t = Tnum.range(lo, hi)
    assert t.contains(lo) and t.contains(hi)


@given(st.data(), tnums())
def test_umin_umax_bound_members(data, a):
    x = data.draw(member_of(a))
    assert a.umin <= x <= a.umax


# --- edge cases, cross-checked against concrete enumeration ------------------

def members(t):
    """Every concrete value of *t* (mask popcount must be small)."""
    bits = [1 << i for i in range(64) if t.mask >> i & 1]
    values = [t.value]
    for bit in bits:
        values += [v | bit for v in values]
    return values


def small_tnums(width=3):
    """All tnums confined to the low *width* bits."""
    out = []
    for mask in range(1 << width):
        for value in range(1 << width):
            if value & mask == 0:
                out.append(Tnum(value, mask))
    return out


_BINOPS = [
    ("add", lambda x, y: (x + y) & U64),
    ("sub", lambda x, y: (x - y) & U64),
    ("mul", lambda x, y: (x * y) & U64),
    ("and_", lambda x, y: x & y),
    ("or_", lambda x, y: x | y),
    ("xor", lambda x, y: x ^ y),
]


@pytest.mark.parametrize("name,concrete", _BINOPS, ids=[n for n, _ in _BINOPS])
def test_binop_sound_exhaustive_small(name, concrete):
    """Soundness by *complete* enumeration on 3-bit tnums: hypothesis
    samples members, this leaves nothing to sampling luck."""
    universe = small_tnums(3)
    for a in universe:
        for b in universe:
            result = getattr(a, name)(b)
            for x in members(a):
                for y in members(b):
                    assert result.contains(concrete(x, y)), (a, b, x, y)


class TestShiftEdges:
    def test_shift_by_64_is_identity(self):
        # the kernel reduces shift amounts mod 64 (BPF semantics);
        # shifting by 64 must not silently become "result is 0"
        t = Tnum(0b1000, 0b0011)
        assert t.lshift(64) == t
        assert t.rshift(64) == t

    def test_shift_past_64_wraps(self):
        assert Tnum.const(5).lshift(65) == Tnum.const(10)
        assert Tnum.const(4).rshift(66) == Tnum.const(1)

    def test_lshift_63_overflow_drops_high_bits(self):
        assert Tnum.const(3).lshift(63) == Tnum.const(1 << 63)

    @given(st.data(), tnums(), st.integers(0, 200))
    def test_any_shift_amount_sound(self, data, a, shift):
        x = data.draw(member_of(a))
        assert a.lshift(shift).contains((x << (shift % 64)) & U64)
        assert a.rshift(shift).contains(x >> (shift % 64))


class TestFullUnknown:
    def test_unknown_absorbs_arithmetic(self):
        u = Tnum.unknown()
        for op in ("add", "sub", "xor", "or_"):
            assert getattr(u, op)(u) == u

    def test_unknown_and_const_zero(self):
        assert Tnum.unknown().and_(Tnum.const(0)) == Tnum.const(0)

    def test_unknown_and_keeps_known_zeros(self):
        t = Tnum.unknown().and_(Tnum.const(0xF0))
        for x in range(256):
            assert t.contains(x & 0xF0)

    def test_unknown_mul_sound_on_samples(self):
        u = Tnum.unknown()
        product = u.mul(u)
        for x, y in [(0, 0), (1, U64), (U64, U64), (1 << 63, 2)]:
            assert product.contains((x * y) & U64)


class TestMulOverflow:
    def test_mul_wraps_at_64_bits(self):
        assert Tnum.const(1 << 63).mul(Tnum.const(2)) == Tnum.const(0)

    def test_mul_minus_one_squared(self):
        assert Tnum.const(U64).mul(Tnum.const(U64)) == Tnum.const(1)

    def test_mul_high_uncertain_bit_overflow(self):
        # {0, 2^63} * 2: both members wrap to 0
        a = Tnum(0, 1 << 63)
        assert a.mul(Tnum.const(2)).contains(0)

    @given(st.data(), tnums(), tnums())
    def test_mul_sound_near_overflow(self, data, a, b):
        # bias members toward the top of the range by setting high bits
        x = data.draw(member_of(a)) | (1 << 63)
        y = data.draw(member_of(b)) | (1 << 62)
        shifted_a = a.or_(Tnum.const(1 << 63))
        shifted_b = b.or_(Tnum.const(1 << 62))
        assert shifted_a.mul(shifted_b).contains((x * y) & U64)
