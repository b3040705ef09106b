"""Tristate numbers (tnums) — the kernel verifier's bit-level abstraction.

A tnum ``(value, mask)`` represents the set of u64 numbers that agree
with ``value`` on every bit where ``mask`` is 0; bits set in ``mask``
are unknown.  Ported from the kernel's ``kernel/bpf/tnum.c``.
"""

from __future__ import annotations

from functools import partial
from typing import NamedTuple

_U64 = (1 << 64) - 1


class _Fields(NamedTuple):
    value: int
    mask: int


class Tnum(_Fields):
    """An immutable (value, mask) pair.  A tuple, because the verifier
    builds several per step; ``Tnum(value, mask)`` checks that the two
    do not overlap, and the operations here, whose results never
    overlap, build theirs without the check."""

    __slots__ = ()

    def __new__(cls, value: int, mask: int) -> "Tnum":
        if value & mask:
            raise ValueError("tnum value and mask must not overlap")
        return tuple.__new__(cls, (value, mask))

    # --- constructors ------------------------------------------------------
    @staticmethod
    def const(value: int) -> "Tnum":
        return _tnum((value & _U64, 0))

    @staticmethod
    def unknown() -> "Tnum":
        return _tnum((0, _U64))

    @staticmethod
    def range(lo: int, hi: int) -> "Tnum":
        """Smallest tnum containing [lo, hi] (kernel's tnum_range)."""
        chi = (lo ^ hi) & _U64
        bits = chi.bit_length()
        if bits > 63:
            return Tnum.unknown()
        delta = (1 << bits) - 1
        return _tnum((lo & ~delta & _U64, delta))

    # --- queries -------------------------------------------------------------
    @property
    def is_const(self) -> bool:
        return self.mask == 0

    @property
    def umin(self) -> int:
        return self.value

    @property
    def umax(self) -> int:
        return (self.value | self.mask) & _U64

    def contains(self, x: int) -> bool:
        return (x & ~self.mask & _U64) == self.value

    def is_subset_of(self, other: "Tnum") -> bool:
        """Every concrete value of self is representable in other."""
        if self.mask & ~other.mask & _U64:
            return False
        return (self.value & ~other.mask & _U64) == other.value

    # --- arithmetic ------------------------------------------------------------
    def add(self, other: "Tnum") -> "Tnum":
        sm = (self.mask + other.mask) & _U64
        sv = (self.value + other.value) & _U64
        sigma = (sm + sv) & _U64
        chi = sigma ^ sv
        mu = (chi | self.mask | other.mask) & _U64
        return _tnum((sv & ~mu & _U64, mu))

    def sub(self, other: "Tnum") -> "Tnum":
        dv = (self.value - other.value) & _U64
        alpha = (dv + self.mask) & _U64
        beta = (dv - other.mask) & _U64
        chi = alpha ^ beta
        mu = (chi | self.mask | other.mask) & _U64
        return _tnum((dv & ~mu & _U64, mu))

    def and_(self, other: "Tnum") -> "Tnum":
        alpha = self.value | self.mask
        beta = other.value | other.mask
        v = self.value & other.value
        return _tnum((v, (alpha & beta & ~v) & _U64))

    def or_(self, other: "Tnum") -> "Tnum":
        v = self.value | other.value
        mu = self.mask | other.mask
        return _tnum((v & _U64, (mu & ~v) & _U64))

    def xor(self, other: "Tnum") -> "Tnum":
        v = self.value ^ other.value
        mu = self.mask | other.mask
        return _tnum(((v & ~mu) & _U64, mu & _U64))

    def lshift(self, shift: int) -> "Tnum":
        shift %= 64
        return _tnum(((self.value << shift) & _U64,
                      (self.mask << shift) & _U64))

    def rshift(self, shift: int) -> "Tnum":
        shift %= 64
        return _tnum((self.value >> shift, self.mask >> shift))

    def arshift(self, shift: int, insn_bits: int = 64) -> "Tnum":
        shift %= insn_bits

        def sar(x: int) -> int:
            signed = x - (1 << insn_bits) if x >> (insn_bits - 1) else x
            return (signed >> shift) & ((1 << insn_bits) - 1)

        # conservatively: if the sign bit is unknown, the result's high
        # bits are unknown
        sign_unknown = bool(self.mask >> (insn_bits - 1) & 1)
        value = sar(self.value & ((1 << insn_bits) - 1))
        mask = sar(self.mask & ((1 << insn_bits) - 1))
        if sign_unknown:
            high = ((1 << insn_bits) - 1) ^ ((1 << max(insn_bits - shift, 0)) - 1)
            mask |= high
            value &= ~mask & _U64
        return _tnum((value & ~mask & _U64, mask & _U64))

    def mul(self, other: "Tnum") -> "Tnum":
        """Kernel-style conservative multiply."""
        if self.is_const and other.is_const:
            return Tnum.const(self.value * other.value)
        acc_v = (self.value * other.value) & _U64
        # the kernel's shift-and-add loop, on plain ints
        acc_value = acc_mask = 0
        a_value, a_mask = self.value, self.mask
        b_value, b_mask = other.value, other.mask
        while a_value or a_mask:
            if (a_value | a_mask) & 1:
                # acc += the tnum (0, x), as add() computes it
                x = b_mask if a_value & 1 else (b_value | b_mask) & _U64
                sigma = (((acc_mask + x) & _U64) + acc_value) & _U64
                mu = ((sigma ^ acc_value) | acc_mask | x) & _U64
                acc_value, acc_mask = acc_value & ~mu & _U64, mu
            a_value, a_mask = a_value >> 1, a_mask >> 1
            b_value, b_mask = (b_value << 1) & _U64, (b_mask << 1) & _U64
        return Tnum.const(acc_v).add(_tnum((acc_value, acc_mask)))

    def intersect(self, other: "Tnum") -> "Tnum":
        v = self.value | other.value
        mu = self.mask & other.mask
        return _tnum((v & ~mu & _U64, mu))

    def union(self, other: "Tnum") -> "Tnum":
        """Smallest tnum containing both (kernel's tnum_union/hma join)."""
        mu = (self.mask | other.mask | (self.value ^ other.value)) & _U64
        return _tnum((self.value & ~mu & _U64, mu))

    def cast(self, size_bytes: int) -> "Tnum":
        """Truncate to *size_bytes* (zero upper bits)."""
        if size_bytes >= 8:
            return self
        keep = (1 << (size_bytes * 8)) - 1
        return _tnum((self.value & keep, self.mask & keep))

    def __repr__(self) -> str:
        if self.is_const:
            return f"Tnum({self.value:#x})"
        return f"Tnum(value={self.value:#x}, mask={self.mask:#x})"


#: ``Tnum`` from a (value, mask) pair known not to overlap
_tnum = partial(tuple.__new__, Tnum)
