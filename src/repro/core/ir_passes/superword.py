"""IR-tier superword level merging (Opt 2, SLM).

Merges pairs of adjacent narrow constant stores into one store of twice
the width when the merged access is provably aligned.  Works on
constant-offset addresses (stack slots, context scratch), the dominant
case in real programs; it runs after DAO so ``align`` attributes are
already maximal.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ... import ir
from ...ir import instructions as iri
from ..pass_manager import IRPass


def _resolve(ptr: ir.Value) -> Optional[Tuple[ir.Value, int]]:
    """(base value, const byte offset), or None if dynamic."""
    base, offset = ir.fold_address(ptr)
    return None if isinstance(base, iri.Gep) else (base, offset)


class SuperwordMergeIRPass(IRPass):
    name = "slm-ir"

    def run(self, func: ir.Function, module: Optional[ir.Module] = None) -> int:
        rewrites = 0
        for block in func.blocks:
            changed = True
            while changed:
                changed = False
                if self._merge_in_block(func, block):
                    rewrites += 1
                    changed = True
        return rewrites

    def _merge_in_block(self, func: ir.Function, block: ir.BasicBlock) -> bool:
        insns = block.instructions
        for i, first in enumerate(insns):
            if not self._is_const_store(first):
                continue
            second_index = self._find_partner(insns, i)
            if second_index is None:
                continue
            if self._merge(func, block, i, second_index):
                return True
        return False

    @staticmethod
    def _is_const_store(insn) -> bool:
        return (
            isinstance(insn, iri.Store)
            and isinstance(insn.value, ir.Constant)
            and isinstance(insn.value.type, ir.IntType)
            and insn.value.type.size_bytes < 8
            and _resolve(insn.ptr) is not None
        )

    def _find_partner(self, insns: List, i: int) -> Optional[int]:
        first = insns[i]
        size = first.value.type.size_bytes
        base, off = _resolve(first.ptr)
        for j in range(i + 1, len(insns)):
            insn = insns[j]
            if isinstance(insn, (iri.AtomicRMW, iri.Call)):
                return None
            if isinstance(insn, iri.Load):
                resolved = _resolve(insn.ptr)
                if resolved is None or resolved[0] is base:
                    return None
                continue
            if not isinstance(insn, iri.Store):
                if insn.is_terminator:
                    return None
                continue
            if not self._is_const_store(insn):
                # an unknown store could alias: stop the search
                resolved = _resolve(insn.ptr)
                if resolved is None or resolved[0] is base:
                    return None
                continue
            other_base, other_off = _resolve(insn.ptr)
            if other_base is not base:
                continue
            if insn.value.type.size_bytes != size:
                return None
            if other_off in (off - size, off + size):
                return j
            if abs(other_off - off) < size:
                return None  # overlapping store
        return None

    def _merge(self, func: ir.Function, block: ir.BasicBlock, i: int,
               j: int) -> bool:
        first, second = block.instructions[i], block.instructions[j]
        size = first.value.type.size_bytes
        base_value, first_off = _resolve(first.ptr)
        _, second_off = _resolve(second.ptr)
        lo, lo_off = (first, first_off) if first_off < second_off else (
            second, second_off)
        hi = second if lo is first else first

        merged_size = size * 2
        if lo_off % merged_size:
            return False
        # alignment of the merged access must be provable
        if max(first.align, second.align) < size:
            return False
        lo_base_align = self._base_align(base_value)
        if min(lo_base_align, _pow2(lo_off)) < merged_size:
            return False

        bits = size * 8
        combined = (lo.value.value & ((1 << bits) - 1)) | (
            (hi.value.value & ((1 << bits) - 1)) << bits
        )
        wide = ir.int_type(bits * 2)
        offset_const = ir.Constant(ir.I64, lo_off)
        gep = iri.Gep(base_value, offset_const, ir.pointer(wide),
                      name=func.next_name())
        store = iri.Store(ir.Constant(wide, combined), gep, align=merged_size)

        index = block.instructions.index(lo)
        block.insert(index, gep)
        block.insert(index + 1, store)
        first.erase()
        second.erase()
        return True

    @staticmethod
    def _base_align(value: ir.Value) -> int:
        if isinstance(value, iri.Alloca):
            return value.align
        if isinstance(value, ir.Argument):
            return 8
        if isinstance(value, iri.Call) and value.callee == "map_lookup_elem":
            return 8
        return 1


def _pow2(offset: int) -> int:
    if offset == 0:
        return 16
    offset = abs(offset)
    align = 1
    while offset % (align * 2) == 0 and align < 16:
        align *= 2
    return align
