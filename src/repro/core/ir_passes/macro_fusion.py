"""Macro-op fusion (Opt 4, MoF): RMW consolidation into ``atomicrmw``.

Paper Fig. 7: a load / modify / store triple on one address::

    %131 = load i64, ptr %128, align 8
    %132 = add i64 %131, %130
    store i64 %132, ptr %128, align 8

becomes a single instruction the backend lowers to eBPF ``xadd``::

    %132 = atomicrmw add ptr %128, i64 %130 monotonic, align 8

Fusion requires: the load feeds only the modify, the modify feeds only
the store, both access the same address, the width is 32/64-bit and
naturally aligned (eBPF atomics demand it), and nothing between the
load and the store can write memory.
"""

from __future__ import annotations

from typing import Optional, Tuple

from ... import ir
from ...ir import instructions as iri
from ..pass_manager import IRPass

FUSIBLE_OPS = {"add", "and", "or", "xor"}


def _same_address(a: ir.Value, b: ir.Value) -> bool:
    if a is b:
        return True
    base, offset = ir.fold_address(a)
    other, other_offset = ir.fold_address(b)
    return base is other and offset == other_offset


class MacroOpFusionPass(IRPass):
    name = "macro-fusion"

    def run(self, func: ir.Function, module: Optional[ir.Module] = None) -> int:
        rewrites = 0
        for block in func.blocks:
            changed = True
            while changed:
                changed = False
                for store in list(block.instructions):
                    if not isinstance(store, iri.Store):
                        continue
                    triple = self._match(block, store)
                    if triple is None:
                        continue
                    load, modify = triple
                    self._fuse(block, load, modify, store)
                    rewrites += 1
                    changed = True
                    break
        return rewrites

    # ------------------------------------------------------------------
    def _match(
        self, block: ir.BasicBlock, store: iri.Store
    ) -> Optional[Tuple[iri.Load, iri.BinaryOp]]:
        modify = store.value
        if not isinstance(modify, iri.BinaryOp) or modify.opcode not in FUSIBLE_OPS:
            return None
        if len(modify.uses) != 1 or modify.parent is not block:
            return None
        load = modify.lhs if isinstance(modify.lhs, iri.Load) else modify.rhs
        if not isinstance(load, iri.Load) or load.parent is not block:
            return None
        if len(load.uses) != 1:
            return None
        # for non-commutative shapes the load must be the lhs
        if load is modify.rhs and modify.opcode not in ("add", "and", "or", "xor"):
            return None
        if not _same_address(load.ptr, store.ptr):
            return None
        size = load.type.size_bytes
        if size not in (4, 8):
            return None  # eBPF atomics are 32/64-bit only
        from .alignment import infer_pointer_alignment

        align = max(load.align, store.align,
                    infer_pointer_alignment(store.ptr))
        if align < size:
            return None  # atomics require natural alignment
        if not self._no_clobbers_between(block, load, store):
            return None
        return load, modify

    @staticmethod
    def _no_clobbers_between(block: ir.BasicBlock, load: iri.Load,
                             store: iri.Store) -> bool:
        insns = block.instructions
        try:
            start = insns.index(load)
            end = insns.index(store)
        except ValueError:
            return False
        if end <= start:
            return False
        for insn in insns[start + 1 : end]:
            if isinstance(insn, (iri.Store, iri.AtomicRMW, iri.Call)):
                return False
        return True

    @staticmethod
    def _fuse(block: ir.BasicBlock, load: iri.Load, modify: iri.BinaryOp,
              store: iri.Store) -> None:
        from .alignment import infer_pointer_alignment

        other = modify.rhs if modify.lhs is load else modify.lhs
        rmw = iri.AtomicRMW(
            modify.opcode,
            store.ptr,
            other,
            align=max(load.align, store.align,
                      infer_pointer_alignment(store.ptr)),
            name=modify.name or "rmw",
        )
        index = block.instructions.index(store)
        store.erase()
        block.insert(index, rmw)
        modify.erase()
        load.erase()
