"""Convenience builder for constructing IR, mirroring llvmlite's IRBuilder."""

from __future__ import annotations

from typing import Optional, Sequence

from . import instructions as insn
from .basicblock import BasicBlock, Function
from .types import I32, I64, IntType, PointerType, Type, pointer
from .values import Constant, Value


class IRBuilder:
    """Appends instructions to a block and hands back their SSA values."""

    def __init__(self, block: Optional[BasicBlock] = None):
        self.block = block

    def position_at_end(self, block: BasicBlock) -> None:
        self.block = block

    @property
    def function(self) -> Function:
        if self.block is None or self.block.parent is None:
            raise ValueError("builder is not positioned inside a function")
        return self.block.parent

    def _emit(self, instruction: insn.IRInstruction) -> insn.IRInstruction:
        if self.block is None:
            raise ValueError("builder has no insertion block")
        if not instruction.name and not instruction.type.is_void:
            instruction.name = self.function.next_name()
        return self.block.append(instruction)

    # --- constants --------------------------------------------------------
    @staticmethod
    def const(ty: IntType, value: int) -> Constant:
        return Constant(ty, value)

    def i64(self, value: int) -> Constant:
        return Constant(I64, value)

    def i32(self, value: int) -> Constant:
        return Constant(I32, value)

    # --- arithmetic ---------------------------------------------------------
    def binop(self, op: str, lhs: Value, rhs: Value, name: str = "") -> Value:
        return self._emit(insn.BinaryOp(op, lhs, rhs, name))

    def add(self, lhs: Value, rhs: Value, name: str = "") -> Value:
        return self.binop("add", lhs, rhs, name)

    def sub(self, lhs: Value, rhs: Value, name: str = "") -> Value:
        return self.binop("sub", lhs, rhs, name)

    def mul(self, lhs: Value, rhs: Value, name: str = "") -> Value:
        return self.binop("mul", lhs, rhs, name)

    def udiv(self, lhs: Value, rhs: Value, name: str = "") -> Value:
        return self.binop("udiv", lhs, rhs, name)

    def urem(self, lhs: Value, rhs: Value, name: str = "") -> Value:
        return self.binop("urem", lhs, rhs, name)

    def and_(self, lhs: Value, rhs: Value, name: str = "") -> Value:
        return self.binop("and", lhs, rhs, name)

    def or_(self, lhs: Value, rhs: Value, name: str = "") -> Value:
        return self.binop("or", lhs, rhs, name)

    def xor(self, lhs: Value, rhs: Value, name: str = "") -> Value:
        return self.binop("xor", lhs, rhs, name)

    def shl(self, lhs: Value, rhs: Value, name: str = "") -> Value:
        return self.binop("shl", lhs, rhs, name)

    def lshr(self, lhs: Value, rhs: Value, name: str = "") -> Value:
        return self.binop("lshr", lhs, rhs, name)

    def ashr(self, lhs: Value, rhs: Value, name: str = "") -> Value:
        return self.binop("ashr", lhs, rhs, name)

    def icmp(self, pred: str, lhs: Value, rhs: Value, name: str = "") -> Value:
        return self._emit(insn.ICmp(pred, lhs, rhs, name))

    def select(self, cond: Value, if_true: Value, if_false: Value,
               name: str = "") -> Value:
        return self._emit(insn.Select(cond, if_true, if_false, name))

    # --- memory ---------------------------------------------------------------
    def alloca(self, ty: Type, align: Optional[int] = None, name: str = "") -> Value:
        return self._emit(insn.Alloca(ty, align, name))

    def load(self, ptr: Value, align: int = 1, name: str = "") -> Value:
        return self._emit(insn.Load(ptr, align, name))

    def store(self, value: Value, ptr: Value, align: int = 1) -> Value:
        return self._emit(insn.Store(value, ptr, align))

    def atomic_rmw(self, op: str, ptr: Value, value: Value, align: int = 8,
                   name: str = "") -> Value:
        return self._emit(insn.AtomicRMW(op, ptr, value, align, name))

    def gep(self, ptr: Value, offset: Value, result_pointee: Type,
            name: str = "") -> Value:
        return self._emit(insn.Gep(ptr, offset, pointer(result_pointee), name))

    def gep_const(self, ptr: Value, offset: int, result_pointee: Type,
                  name: str = "") -> Value:
        return self.gep(ptr, self.i64(offset), result_pointee, name)

    # --- casts ------------------------------------------------------------------
    def cast(self, op: str, value: Value, to: Type, name: str = "") -> Value:
        return self._emit(insn.Cast(op, value, to, name))

    def zext(self, value: Value, to: Type, name: str = "") -> Value:
        return self.cast("zext", value, to, name)

    def sext(self, value: Value, to: Type, name: str = "") -> Value:
        return self.cast("sext", value, to, name)

    def trunc(self, value: Value, to: Type, name: str = "") -> Value:
        return self.cast("trunc", value, to, name)

    def inttoptr(self, value: Value, to: PointerType, name: str = "") -> Value:
        return self.cast("inttoptr", value, to, name)

    def ptrtoint(self, value: Value, to: IntType = I64, name: str = "") -> Value:
        return self.cast("ptrtoint", value, to, name)

    def bitcast(self, value: Value, to: Type, name: str = "") -> Value:
        return self.cast("bitcast", value, to, name)

    # --- control flow --------------------------------------------------------------
    def call(self, callee: str, args: Sequence[Value], return_type: Type,
             name: str = "") -> Value:
        return self._emit(insn.Call(callee, args, return_type, name))

    def phi(self, ty: Type, name: str = "") -> insn.Phi:
        node = insn.Phi(ty, name)
        if self.block is None:
            raise ValueError("builder has no insertion block")
        if not node.name:
            node.name = self.function.next_name()
        # phis go before non-phi instructions
        index = len(self.block.phis())
        self.block.insert(index, node)
        return node

    def br(self, target: BasicBlock) -> Value:
        return self._emit(insn.Br(target))

    def cbr(self, cond: Value, if_true: BasicBlock, if_false: BasicBlock) -> Value:
        return self._emit(insn.CondBr(cond, if_true, if_false))

    def ret(self, value: Optional[Value] = None) -> Value:
        return self._emit(insn.Ret(value))

    def unreachable(self) -> Value:
        return self._emit(insn.Unreachable())
