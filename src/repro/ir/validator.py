"""Structural validation of IR functions.

Checks the invariants every pass must preserve: blocks terminated,
operand def-before-use along some path, phi edges matching predecessors,
type coherence for terminators, and use-list integrity.  Run in tests
after every transformation.
"""

from __future__ import annotations

from typing import List, Set

from .basicblock import BasicBlock, Function
from .instructions import IRInstruction, Phi, Ret
from .values import Argument, Constant, GlobalSymbol, UndefValue, Value


class IRValidationError(Exception):
    """Raised when an IR function violates a structural invariant."""


def validate_function(func: Function) -> None:
    """Raise :class:`IRValidationError` on the first violated invariant."""
    if not func.blocks:
        raise IRValidationError(f"{func.name}: function has no blocks")

    block_set = set(func.blocks)
    defined: Set[Value] = set(func.args)
    position: dict = {}
    for block in func.blocks:
        for index, instruction in enumerate(block.instructions):
            if not instruction.type.is_void:
                if instruction in defined:
                    raise IRValidationError(
                        f"{func.name}: value %{instruction.name} defined twice"
                    )
                defined.add(instruction)
            position[id(instruction)] = (block, index)

    preds = func.predecessors()

    for block in func.blocks:
        if block.terminator is None:
            raise IRValidationError(f"{func.name}/{block.name}: no terminator")
        for i, instruction in enumerate(block.instructions):
            if instruction.is_terminator and i != len(block.instructions) - 1:
                raise IRValidationError(
                    f"{func.name}/{block.name}: terminator not last"
                )
            if isinstance(instruction, Phi) and block.non_phis()[:1] and \
                    block.instructions.index(block.non_phis()[0]) < i:
                raise IRValidationError(
                    f"{func.name}/{block.name}: phi after non-phi instruction"
                )
            if instruction.parent is not block:
                raise IRValidationError(
                    f"{func.name}/{block.name}: instruction parent link broken"
                )
            for operand in instruction.operands:
                _check_operand(func, block, instruction, operand, defined)
                # same-block def must precede the use (phis aggregate
                # values from predecessors and are exempt)
                if not isinstance(instruction, Phi):
                    op_pos = position.get(id(operand))
                    if op_pos is not None and op_pos[0] is block and \
                            op_pos[1] >= i:
                        raise IRValidationError(
                            f"{func.name}/{block.name}: %{operand.name} "
                            f"used before its definition"
                        )
            if isinstance(instruction, Phi):
                _check_phi(func, block, instruction, preds[block], block_set)
        for succ in block.successors():
            if succ not in block_set:
                raise IRValidationError(
                    f"{func.name}/{block.name}: branch to foreign block "
                    f"{succ.name}"
                )

    _check_returns(func)
    _check_use_lists(func)


def _check_operand(func: Function, block: BasicBlock, user: IRInstruction,
                   operand: Value, defined: Set[Value]) -> None:
    if isinstance(operand, (Constant, UndefValue, GlobalSymbol, Argument)):
        if isinstance(operand, Argument) and operand not in defined:
            raise IRValidationError(
                f"{func.name}/{block.name}: foreign argument %{operand.name}"
            )
        return
    if operand not in defined:
        raise IRValidationError(
            f"{func.name}/{block.name}: use of undefined value "
            f"%{operand.name} in '{user.render()}'"
        )


def _check_phi(func: Function, block: BasicBlock, phi: Phi,
               preds: List[BasicBlock], block_set: Set[BasicBlock]) -> None:
    incoming_blocks = list(phi.incoming_blocks)
    if set(incoming_blocks) != set(preds):
        raise IRValidationError(
            f"{func.name}/{block.name}: phi %{phi.name} incoming blocks "
            f"{sorted(b.name for b in incoming_blocks)} != predecessors "
            f"{sorted(b.name for b in preds)}"
        )
    for pred in incoming_blocks:
        if pred not in block_set:
            raise IRValidationError(
                f"{func.name}/{block.name}: phi references foreign block"
            )


def _check_returns(func: Function) -> None:
    for block in func.blocks:
        term = block.terminator
        if isinstance(term, Ret):
            if func.return_type.is_void and term.value is not None:
                raise IRValidationError(
                    f"{func.name}: ret with value in void function"
                )
            if not func.return_type.is_void:
                if term.value is None:
                    raise IRValidationError(f"{func.name}: ret void, expected value")
                if term.value.type != func.return_type:
                    raise IRValidationError(
                        f"{func.name}: ret type {term.value.type} != "
                        f"{func.return_type}"
                    )


def _check_use_lists(func: Function) -> None:
    for block in func.blocks:
        for instruction in block.instructions:
            for operand in instruction.operands:
                if instruction not in operand.uses:
                    raise IRValidationError(
                        f"{func.name}: use-list missing user for "
                        f"%{getattr(operand, 'name', '?')}"
                    )


def validate_module(module) -> None:
    for func in module:
        validate_function(func)
