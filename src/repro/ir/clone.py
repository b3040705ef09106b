"""Copying a function by walking it, without going through its text.

``clone_function(func)`` returns what ``parse_function(print_function(
func))`` returns, object for object, for every function whose text
parses.  The printer and parser stay the IR's text form (cache keys,
translation validation, tests and the fuzzer use them); the pipeline
copies its input through this walk instead, because rendering and
parsing every line cost more than the IR passes the copy feeds.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from . import instructions as iri
from .basicblock import BasicBlock, Function
from .types import I8, pointer
from .values import Constant, GlobalSymbol, UndefValue, Value

#: the type the parser gives every ``@name`` operand
_SYMBOL_TYPE = pointer(I8)


def _fresh(insn: iri.IRInstruction, ops: List[Value],
           blocks: Dict[BasicBlock, BasicBlock]) -> iri.IRInstruction:
    """A new instruction of *insn*'s class and fields over the operands
    *ops* and the blocks *blocks* maps *insn*'s to (not a phi)."""
    kind = type(insn)
    if kind is iri.BinaryOp:
        return iri.BinaryOp(insn.opcode, ops[0], ops[1])
    if kind is iri.Load:
        return iri.Load(ops[0], align=insn.align)
    if kind is iri.Store:
        return iri.Store(ops[0], ops[1], align=insn.align)
    if kind is iri.Gep:
        return iri.Gep(ops[0], ops[1], insn.type)
    if kind is iri.Cast:
        return iri.Cast(insn.opcode, ops[0], insn.type)
    if kind is iri.ICmp:
        return iri.ICmp(insn.predicate, ops[0], ops[1])
    if kind is iri.Br:
        return iri.Br(blocks[insn.target])
    if kind is iri.CondBr:
        return iri.CondBr(ops[0], blocks[insn.if_true], blocks[insn.if_false])
    if kind is iri.Call:
        return iri.Call(insn.callee, ops, insn.type)
    if kind is iri.Select:
        return iri.Select(ops[0], ops[1], ops[2])
    if kind is iri.Alloca:
        return iri.Alloca(insn.allocated, insn.align)
    if kind is iri.AtomicRMW:
        return iri.AtomicRMW(insn.rmw_op, ops[0], ops[1], align=insn.align,
                             ordering=insn.ordering)
    if kind is iri.Ret:
        return iri.Ret(*ops)
    if kind is iri.Unreachable:
        return iri.Unreachable()
    raise TypeError(f"cannot clone {kind.__name__}")


def clone_function(func: Function) -> Function:
    """A copy of *func* that shares no value, instruction or block with
    it: exactly what the text round trip through ``print_function`` and
    ``parse_function`` gives.

    - The same argument, block and value names, blocks in the same
      order; the name counter starts at zero and the taken names are
      counted again.  An instruction without a value (a store, a
      branch, a void call) has no name, since the text has none.
    - A fresh ``Constant`` or ``UndefValue`` per operand, and a fresh
      ``GlobalSymbol`` typed ``i8*`` per ``@name`` operand.
    - The parser's use-list order: a value's users that come after it
      in text order, one entry per operand; then those before it (a
      forward reference, which the parser resolves at the end through
      a placeholder: one entry per user); then the phis' incoming
      values, which the parser adds last, in text order.

    One walk over the blocks builds every instruction with its class's
    constructor, so nothing recurses, however long a use-def chain is.
    """
    clone = Function(func.name, func.return_type,
                     [arg.type for arg in func.args],
                     [arg.name for arg in func.args])
    copies: Dict[Value, Value] = dict(zip(func.args, clone.args))
    blocks: Dict[BasicBlock, BasicBlock] = {
        block: clone.append_block(BasicBlock(block.name, clone))
        for block in func.blocks}
    #: placeholders for values used before their definition
    forward: Dict[Value, Value] = {}
    phis: List[Tuple[iri.Phi, iri.Phi]] = []

    def operand(value: Value) -> Value:
        kind = type(value)
        if kind is Constant:
            return Constant(value.type, value.value)
        if kind is UndefValue:
            return UndefValue(value.type)
        if kind is GlobalSymbol:
            return GlobalSymbol(_SYMBOL_TYPE, value.name)
        copy = copies.get(value)
        if copy is None:
            copy = forward.get(value)
            if copy is None:
                copy = forward[value] = Value(value.type, value.name)
        return copy

    for block in func.blocks:
        target = blocks[block]
        for insn in block.instructions:
            if type(insn) is iri.Phi:
                # its incoming edges come last, as in the parser
                copy = iri.Phi(insn.type)
                phis.append((insn, copy))
            else:
                copy = _fresh(insn, [operand(v) for v in insn.operands],
                              blocks)
            if not insn.type.is_void:
                copy.name = insn.name
            target.insert(len(target.instructions), copy)
            copies[insn] = copy
    for value, placeholder in forward.items():
        if value not in copies:
            raise ValueError(
                f"@{func.name} uses %{value.name} but does not define it")
        placeholder.replace_all_uses_with(copies[value])
    for phi, copy in phis:
        for value, block in zip(phi.operands, phi.incoming_blocks):
            copy.add_incoming(operand(value), blocks[block])
    return clone
