"""IR constant propagation (half of Opt 1).

Folds constant expressions, algebraic identities, constant selects and
constant conditional branches.  Works hand in hand with
:class:`~repro.core.ir_passes.dce.DeadCodeEliminationPass`, which sweeps
the defs this pass makes unused.
"""

from __future__ import annotations

from typing import Optional

from ... import ir
from ...codegen.isel import ALU_NAME_BY_BINOP, JUMP_NAME_BY_PREDICATE
from ...ir import instructions as iri
from ...isa import opcodes as op
from ...isa.semantics import alu, condition
from ..pass_manager import IRPass


def _fold_binop(opcode: str, lhs: ir.Constant, rhs: ir.Constant) -> Optional[int]:
    """``lhs <opcode> rhs`` as the eBPF operation isel selects for
    *opcode* computes it.  None for sdiv and srem, which isel does not
    select, and for a udiv or urem by zero, which stays unfolded."""
    name = ALU_NAME_BY_BINOP.get(opcode)
    if name is None or (name in ("div", "mod") and not rhs.value):
        return None
    return alu(op.ALU_OP_BY_NAME[name], lhs.value, rhs.value, lhs.type.bits)


class ConstantPropagationPass(IRPass):
    """SSA constant folding and branch simplification."""

    name = "constprop"

    def run(self, func: ir.Function, module: Optional[ir.Module] = None) -> int:
        rewrites = 0
        changed = True
        while changed:
            changed = False
            for block in list(func.blocks):
                for insn in list(block.instructions):
                    replacement = self._simplify(insn)
                    if replacement is not None:
                        insn.replace_all_uses_with(replacement)
                        insn.erase()
                        rewrites += 1
                        changed = True
            rewrites += self._fold_branches(func)
        return rewrites

    # ------------------------------------------------------------------
    def _simplify(self, insn: iri.IRInstruction) -> Optional[ir.Value]:
        if isinstance(insn, iri.BinaryOp):
            return self._simplify_binop(insn)
        if isinstance(insn, iri.ICmp):
            if isinstance(insn.lhs, ir.Constant) and isinstance(insn.rhs, ir.Constant):
                jop = op.JMP_OP_BY_NAME[JUMP_NAME_BY_PREDICATE[insn.predicate]]
                result = condition(jop, insn.lhs.value, insn.rhs.value,
                                   insn.lhs.type.bits)
                return ir.Constant(ir.I1, int(result))
            return None
        if isinstance(insn, iri.Cast):
            return self._simplify_cast(insn)
        if isinstance(insn, iri.Select):
            cond = insn.cond
            if isinstance(cond, ir.Constant):
                return insn.operands[1] if cond.value else insn.operands[2]
            if insn.operands[1] is insn.operands[2]:
                return insn.operands[1]
            return None
        if isinstance(insn, iri.Phi):
            distinct = {id(v) for v in insn.operands}
            if len(distinct) == 1 and insn.operands:
                return insn.operands[0]
            return None
        if isinstance(insn, iri.Gep):
            offset = insn.offset
            if isinstance(offset, ir.Constant) and offset.value == 0 and \
                    insn.ptr.type == insn.type:
                return insn.ptr
            return None
        return None

    def _simplify_binop(self, insn: iri.BinaryOp) -> Optional[ir.Value]:
        lhs, rhs = insn.lhs, insn.rhs
        if isinstance(lhs, ir.Constant) and isinstance(rhs, ir.Constant):
            folded = _fold_binop(insn.opcode, lhs, rhs)
            if folded is not None:
                return ir.Constant(insn.type, folded)
            return None
        # canonical identities
        if isinstance(rhs, ir.Constant):
            v = rhs.value
            if v == 0 and insn.opcode in ("add", "sub", "or", "xor", "shl",
                                          "lshr", "ashr"):
                return lhs
            if v == 1 and insn.opcode in ("mul", "udiv"):
                return lhs
            if v == 0 and insn.opcode in ("mul", "and"):
                return ir.Constant(insn.type, 0)
            if insn.opcode == "and" and v == insn.type.mask:
                return lhs
        if isinstance(lhs, ir.Constant):
            v = lhs.value
            if v == 0 and insn.opcode in ("add", "or", "xor"):
                return rhs
            if v == 0 and insn.opcode in ("mul", "and", "udiv", "urem",
                                          "shl", "lshr", "ashr"):
                return ir.Constant(insn.type, 0)
            if v == 1 and insn.opcode == "mul":
                return rhs
        if lhs is rhs:
            if insn.opcode in ("sub", "xor"):
                return ir.Constant(insn.type, 0)
            if insn.opcode in ("and", "or"):
                return lhs
        return None

    @staticmethod
    def _simplify_cast(insn: iri.Cast) -> Optional[ir.Value]:
        value = insn.value
        if insn.type == value.type and insn.opcode in ("zext", "sext", "trunc",
                                                       "bitcast"):
            return value
        if not isinstance(value, ir.Constant):
            return None
        if not isinstance(insn.type, ir.IntType):
            return None
        if insn.opcode in ("zext", "trunc", "bitcast"):
            return ir.Constant(insn.type, value.value)
        if insn.opcode == "sext":
            return ir.Constant(insn.type, value.signed)
        return None

    # ------------------------------------------------------------------
    def _fold_branches(self, func: ir.Function) -> int:
        rewrites = 0
        for block in list(func.blocks):
            term = block.terminator
            if not isinstance(term, iri.CondBr):
                continue
            if not isinstance(term.cond, ir.Constant):
                continue
            taken = term.if_true if term.cond.value else term.if_false
            dead = term.if_false if term.cond.value else term.if_true
            term.erase()
            block.append(iri.Br(taken))
            if dead is not taken:
                for phi in dead.phis():
                    phi.remove_incoming(block)
            rewrites += 1
        return rewrites
