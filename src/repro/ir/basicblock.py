"""Basic blocks and functions of the SSA IR."""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence, Set

from .instructions import IRInstruction, Phi, successors
from .types import Type, VOID
from .values import Argument


class BasicBlock:
    """A straight-line sequence of instructions ending in a terminator."""

    def __init__(self, name: str, parent: Optional["Function"] = None):
        self.name = name
        self.parent = parent
        self.instructions: List[IRInstruction] = []

    def append(self, insn: IRInstruction) -> IRInstruction:
        if self.instructions and self.instructions[-1].is_terminator:
            raise ValueError(f"block {self.name} already has a terminator")
        insn.parent = self
        self.instructions.append(insn)
        if insn.name and self.parent is not None:
            self.parent.take_name(insn.name)
        return insn

    def insert(self, index: int, insn: IRInstruction) -> IRInstruction:
        insn.parent = self
        self.instructions.insert(index, insn)
        if insn.name and self.parent is not None:
            self.parent.take_name(insn.name)
        return insn

    @property
    def terminator(self) -> Optional[IRInstruction]:
        if self.instructions and self.instructions[-1].is_terminator:
            return self.instructions[-1]
        return None

    def successors(self) -> List["BasicBlock"]:
        term = self.terminator
        return successors(term) if term is not None else []

    def phis(self) -> List[Phi]:
        return [i for i in self.instructions if isinstance(i, Phi)]

    def non_phis(self) -> List[IRInstruction]:
        return [i for i in self.instructions if not isinstance(i, Phi)]

    def __iter__(self) -> Iterator[IRInstruction]:
        return iter(self.instructions)

    def __repr__(self) -> str:
        return f"<BasicBlock {self.name} ({len(self.instructions)} insns)>"


class Function:
    """A function: arguments, blocks, a return type, and a name scope."""

    def __init__(self, name: str, return_type: Type = VOID,
                 arg_types: Sequence[Type] = (), arg_names: Sequence[str] = ()):
        self.name = name
        self.return_type = return_type
        self.args: List[Argument] = [
            Argument(ty, arg_names[i] if i < len(arg_names) else f"arg{i}", i)
            for i, ty in enumerate(arg_types)
        ]
        self.blocks: List[BasicBlock] = []
        #: the names of the blocks in ``blocks``, kept by
        #: :meth:`append_block` and :meth:`remove_block`
        self._block_names: Set[str] = set()
        #: per base name given to :meth:`add_block`, a suffix below
        #: which every ``base<n>`` (n >= 1) names a block; forgotten by
        #: :meth:`remove_block`
        self._next_suffix: Dict[str, int] = {}
        self._name_counter = 0
        #: how many of this function's values hold each name: the
        #: arguments plus the instructions in ``blocks``.  Kept where a
        #: named instruction enters or leaves a block (``BasicBlock.append``
        #: and ``insert``, ``IRInstruction.erase``, ``remove_block``) and
        #: recounted by ``renumber``, so :meth:`next_name` never rescans
        #: the function.
        self._taken: Dict[str, int] = {}
        self._count_names()

    @property
    def entry(self) -> BasicBlock:
        if not self.blocks:
            raise ValueError(f"function {self.name} has no blocks")
        return self.blocks[0]

    def add_block(self, name: str = "") -> BasicBlock:
        """Append a new block called *name*, or, when a block already
        is, the first of ``name1``, ``name2``, ... that none is."""
        name = name or self.next_name("bb")
        existing = self._block_names
        if name in existing:
            base = name
            counter = self._next_suffix.get(base, 1)
            while f"{base}{counter}" in existing:
                counter += 1
            self._next_suffix[base] = counter + 1
            name = f"{base}{counter}"
        return self.append_block(BasicBlock(name, self))

    def append_block(self, block: BasicBlock) -> BasicBlock:
        """Put *block*, named like no block of this function, last."""
        self.blocks.append(block)
        self._block_names.add(block.name)
        return block

    def has_block(self, name: str) -> bool:
        """Whether a block of this function is called *name*."""
        return name in self._block_names

    def next_name(self, prefix: str = "") -> str:
        # skip names already taken: a parsed function starts its counter
        # at zero, but its instructions keep their printed names, and a
        # collision silently merges two SSA values on the next textual
        # round trip.  A name frees up again when its last holder is
        # erased, even one above the counter.
        taken = self._taken
        while True:
            self._name_counter += 1
            name = f"{prefix}{self._name_counter}"
            if name not in taken:
                return name

    def take_name(self, name: str) -> None:
        """Record that one more value of this function is called *name*."""
        self._taken[name] = self._taken.get(name, 0) + 1

    def release_name(self, name: str) -> None:
        """Record that a value called *name* left this function."""
        count = self._taken[name] - 1
        if count:
            self._taken[name] = count
        else:
            del self._taken[name]

    def _count_names(self) -> None:
        self._taken = {}
        for value in [*self.args, *self.instructions()]:
            if value.name:
                self.take_name(value.name)

    def predecessors(self) -> Dict[BasicBlock, List[BasicBlock]]:
        """Map each block to the blocks that branch to it."""
        preds: Dict[BasicBlock, List[BasicBlock]] = {b: [] for b in self.blocks}
        for block in self.blocks:
            for succ in block.successors():
                preds[succ].append(block)
        return preds

    def instructions(self) -> Iterator[IRInstruction]:
        for block in self.blocks:
            yield from block.instructions

    def remove_block(self, block: BasicBlock) -> None:
        """Remove *block*, detaching its instructions and phi edges."""
        for other in self.blocks:
            for phi in other.phis():
                phi.remove_incoming(block)
        for insn in list(block.instructions):
            insn.drop_operands()
            insn.parent = None
            if insn.name:
                self.release_name(insn.name)
        block.instructions.clear()
        self.blocks.remove(block)
        self._block_names.discard(block.name)
        self._next_suffix.clear()

    def renumber(self) -> None:
        """Give every unnamed value a fresh sequential name (printing aid)."""
        counter = 0
        for block in self.blocks:
            for insn in block.instructions:
                if not insn.type.is_void:
                    counter += 1
                    insn.name = str(counter)
        self._count_names()

    def __repr__(self) -> str:
        return f"<Function {self.name} ({len(self.blocks)} blocks)>"


class Module:
    """A compilation unit: functions plus map declarations."""

    def __init__(self, name: str = "module"):
        self.name = name
        self.functions: Dict[str, Function] = {}
        self.maps: Dict[str, "object"] = {}  # name -> isa.MapSpec

    def add_function(self, func: Function) -> Function:
        if func.name in self.functions:
            raise ValueError(f"duplicate function {func.name!r}")
        self.functions[func.name] = func
        return func

    def get(self, name: str) -> Function:
        return self.functions[name]

    def __iter__(self) -> Iterator[Function]:
        return iter(self.functions.values())
