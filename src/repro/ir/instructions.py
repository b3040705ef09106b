"""IR instruction classes (the subset of LLVM Merlin's passes need)."""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple, TYPE_CHECKING

from .types import I1, IntType, PointerType, Type, VOID
from .values import Constant, Value

if TYPE_CHECKING:  # pragma: no cover
    from .basicblock import BasicBlock

BINARY_OPS = (
    "add",
    "sub",
    "mul",
    "udiv",
    "sdiv",
    "urem",
    "srem",
    "and",
    "or",
    "xor",
    "shl",
    "lshr",
    "ashr",
)

ICMP_PREDICATES = (
    "eq",
    "ne",
    "ugt",
    "uge",
    "ult",
    "ule",
    "sgt",
    "sge",
    "slt",
    "sle",
)

ATOMIC_RMW_OPS = ("add", "sub", "and", "or", "xor", "xchg")

CAST_OPS = ("zext", "sext", "trunc", "ptrtoint", "inttoptr", "bitcast")


class IRInstruction(Value):
    """Base class: an SSA value with operands, owned by a basic block."""

    opcode: str = "?"

    #: whether this instruction ends a block; set by the terminators
    is_terminator = False

    def __init__(self, ty: Type, operands: Sequence[Value], name: str = ""):
        super().__init__(ty, name)
        self.operands: List[Value] = list(operands)
        self.parent: Optional["BasicBlock"] = None
        for operand in self.operands:
            operand.uses.append(self)

    def _add_operand(self, operand: Value) -> None:
        self.operands.append(operand)
        operand.uses.append(self)

    def replace_operand(self, old: Value, new: Value) -> None:
        """Swap every occurrence of *old* in the operand list for *new*."""
        changed = False
        for i, operand in enumerate(self.operands):
            if operand is old:
                self.operands[i] = new
                changed = True
        if changed:
            while self in old.uses:
                old.uses.remove(self)
            new.uses.append(self)

    def drop_operands(self) -> None:
        """Detach from all operands' use lists (before deletion)."""
        for operand in self.operands:
            while self in operand.uses:
                operand.uses.remove(self)
        self.operands.clear()

    def erase(self) -> None:
        """Remove this instruction from its block and the use graph."""
        self.drop_operands()
        if self.parent is not None:
            self.parent.instructions.remove(self)
            if self.name and self.parent.parent is not None:
                self.parent.parent.release_name(self.name)
            self.parent = None

    def has_side_effects(self) -> bool:
        return isinstance(self, (Store, AtomicRMW, Call, Br, CondBr, Ret, Unreachable))

    def render(self) -> str:
        raise NotImplementedError


class BinaryOp(IRInstruction):
    """``%x = <op> <ty> %a, %b``."""

    def __init__(self, op: str, lhs: Value, rhs: Value, name: str = ""):
        if op not in BINARY_OPS:
            raise ValueError(f"unknown binary op {op!r}")
        if lhs.type != rhs.type:
            raise TypeError(f"operand type mismatch: {lhs.type} vs {rhs.type}")
        super().__init__(lhs.type, [lhs, rhs], name)
        self.opcode = op

    @property
    def lhs(self) -> Value:
        return self.operands[0]

    @property
    def rhs(self) -> Value:
        return self.operands[1]

    def render(self) -> str:
        lhs, rhs = self.operands
        return f"{self.ref} = {self.opcode} {self.type} {lhs.ref}, {rhs.ref}"


class ICmp(IRInstruction):
    """``%x = icmp <pred> <ty> %a, %b`` producing an i1."""

    opcode = "icmp"

    def __init__(self, predicate: str, lhs: Value, rhs: Value, name: str = ""):
        if predicate not in ICMP_PREDICATES:
            raise ValueError(f"unknown icmp predicate {predicate!r}")
        if lhs.type != rhs.type:
            raise TypeError("icmp operand types must match")
        super().__init__(I1, [lhs, rhs], name)
        self.predicate = predicate

    @property
    def lhs(self) -> Value:
        return self.operands[0]

    @property
    def rhs(self) -> Value:
        return self.operands[1]

    def render(self) -> str:
        lhs, rhs = self.operands
        return (
            f"{self.ref} = icmp {self.predicate} {lhs.type} "
            f"{lhs.ref}, {rhs.ref}"
        )


class Load(IRInstruction):
    """``%x = load <ty>, <ty>* %p, align N``.

    ``align`` is the *asserted* alignment; the backend must decompose an
    access whose alignment is below the access width (exactly what
    LLVM's eBPF backend does and what Merlin's DAO pass fixes).
    """

    opcode = "load"

    def __init__(self, ptr: Value, align: int = 1, name: str = ""):
        if not isinstance(ptr.type, PointerType):
            raise TypeError("load needs a pointer operand")
        super().__init__(ptr.type.pointee, [ptr], name)
        self.align = align

    @property
    def ptr(self) -> Value:
        return self.operands[0]

    def render(self) -> str:
        ptr = self.operands[0]
        return (
            f"{self.ref} = load {self.type}, {ptr.type} "
            f"{ptr.ref}, align {self.align}"
        )


class Store(IRInstruction):
    """``store <ty> %v, <ty>* %p, align N``."""

    opcode = "store"

    def __init__(self, value: Value, ptr: Value, align: int = 1):
        if not isinstance(ptr.type, PointerType):
            raise TypeError("store needs a pointer operand")
        if ptr.type.pointee != value.type:
            raise TypeError(
                f"store type mismatch: {value.type} into {ptr.type}"
            )
        super().__init__(VOID, [value, ptr])
        self.align = align

    @property
    def value(self) -> Value:
        return self.operands[0]

    @property
    def ptr(self) -> Value:
        return self.operands[1]

    def render(self) -> str:
        value, ptr = self.operands
        return (
            f"store {value.type} {value.ref}, {ptr.type} "
            f"{ptr.ref}, align {self.align}"
        )


class AtomicRMW(IRInstruction):
    """``%old = atomicrmw <op> ptr %p, <ty> %v monotonic, align N``."""

    opcode = "atomicrmw"

    def __init__(self, op: str, ptr: Value, value: Value, align: int = 8,
                 name: str = "", ordering: str = "monotonic"):
        if op not in ATOMIC_RMW_OPS:
            raise ValueError(f"unknown atomicrmw op {op!r}")
        if not isinstance(ptr.type, PointerType):
            raise TypeError("atomicrmw needs a pointer operand")
        if ptr.type.pointee != value.type:
            raise TypeError("atomicrmw value/pointee type mismatch")
        super().__init__(value.type, [ptr, value], name)
        self.rmw_op = op
        self.align = align
        self.ordering = ordering

    @property
    def ptr(self) -> Value:
        return self.operands[0]

    @property
    def value(self) -> Value:
        return self.operands[1]

    def render(self) -> str:
        return (
            f"{self.ref} = atomicrmw {self.rmw_op} ptr {self.ptr.ref}, "
            f"{self.value.type} {self.value.ref} {self.ordering}, "
            f"align {self.align}"
        )


class Alloca(IRInstruction):
    """Stack slot: ``%x = alloca <ty>, align N``."""

    opcode = "alloca"

    def __init__(self, allocated: Type, align: Optional[int] = None, name: str = ""):
        from .types import natural_alignment, pointer

        super().__init__(pointer(allocated), [], name)
        self.allocated = allocated
        self.align = align if align is not None else natural_alignment(allocated)

    def render(self) -> str:
        return f"{self.ref} = alloca {self.allocated}, align {self.align}"


class Gep(IRInstruction):
    """Byte-granular pointer arithmetic.

    ``%p2 = gep <result-pointee>* %p, %offset`` computes ``%p + offset``
    (offset in bytes) and retypes the result.  The frontend folds index
    scaling and struct-field offsets into *offset*, so backend and
    passes only ever see byte offsets — a deliberate simplification of
    LLVM's getelementptr that keeps the alignment-inference pass exact.
    """

    opcode = "gep"

    def __init__(self, ptr: Value, offset: Value, result_type: PointerType,
                 name: str = ""):
        if not isinstance(ptr.type, PointerType):
            raise TypeError("gep needs a pointer operand")
        if not isinstance(offset.type, IntType):
            raise TypeError("gep offset must be an integer")
        super().__init__(result_type, [ptr, offset], name)

    @property
    def ptr(self) -> Value:
        return self.operands[0]

    @property
    def offset(self) -> Value:
        return self.operands[1]

    def render(self) -> str:
        ptr, offset = self.operands
        return (
            f"{self.ref} = gep {self.type} {ptr.ref}, "
            f"{offset.type} {offset.ref}"
        )


class Cast(IRInstruction):
    """zext / sext / trunc / ptrtoint / inttoptr / bitcast."""

    def __init__(self, op: str, value: Value, to: Type, name: str = ""):
        if op not in CAST_OPS:
            raise ValueError(f"unknown cast {op!r}")
        super().__init__(to, [value], name)
        self.opcode = op

    @property
    def value(self) -> Value:
        return self.operands[0]

    def render(self) -> str:
        value = self.operands[0]
        return (
            f"{self.ref} = {self.opcode} {value.type} "
            f"{value.ref} to {self.type}"
        )


class Select(IRInstruction):
    """``%x = select i1 %c, <ty> %a, <ty> %b``."""

    opcode = "select"

    def __init__(self, cond: Value, if_true: Value, if_false: Value, name: str = ""):
        if if_true.type != if_false.type:
            raise TypeError("select arm types must match")
        super().__init__(if_true.type, [cond, if_true, if_false], name)

    @property
    def cond(self) -> Value:
        return self.operands[0]

    def render(self) -> str:
        t, f = self.operands[1], self.operands[2]
        return (
            f"{self.ref} = select i1 {self.cond.ref}, {t.type} {t.ref}, "
            f"{f.type} {f.ref}"
        )


class Call(IRInstruction):
    """Call an eBPF helper (by name) or a local function."""

    opcode = "call"

    def __init__(self, callee: str, args: Sequence[Value], return_type: Type,
                 name: str = ""):
        super().__init__(return_type, list(args), name)
        self.callee = callee

    def render(self) -> str:
        args = ", ".join(f"{a.type} {a.ref}" for a in self.operands)
        prefix = "" if self.type.is_void else f"{self.ref} = "
        return f"{prefix}call {self.type} @{self.callee}({args})"


class Phi(IRInstruction):
    """SSA phi node; incoming values paired with predecessor blocks."""

    opcode = "phi"

    def __init__(self, ty: Type, name: str = ""):
        super().__init__(ty, [], name)
        self.incoming_blocks: List["BasicBlock"] = []

    def add_incoming(self, value: Value, block: "BasicBlock") -> None:
        if value.type != self.type:
            raise TypeError("phi incoming type mismatch")
        self._add_operand(value)
        self.incoming_blocks.append(block)

    def incoming(self) -> List[Tuple[Value, "BasicBlock"]]:
        return list(zip(self.operands, self.incoming_blocks))

    def incoming_for(self, block: "BasicBlock") -> Value:
        for value, pred in self.incoming():
            if pred is block:
                return value
        raise KeyError(f"phi has no incoming edge from {block.name}")

    def remove_incoming(self, block: "BasicBlock") -> None:
        for i, pred in enumerate(self.incoming_blocks):
            if pred is block:
                operand = self.operands.pop(i)
                self.incoming_blocks.pop(i)
                while self in operand.uses and self.operands.count(operand) == 0:
                    operand.uses.remove(self)
                return

    def render(self) -> str:
        pairs = ", ".join(
            f"[ {v.ref}, %{b.name} ]"
            for v, b in zip(self.operands, self.incoming_blocks)
        )
        return f"{self.ref} = phi {self.type} {pairs}"


class Br(IRInstruction):
    """Unconditional branch."""

    opcode = "br"
    is_terminator = True

    def __init__(self, target: "BasicBlock"):
        super().__init__(VOID, [])
        self.target = target

    def render(self) -> str:
        return f"br label %{self.target.name}"


class CondBr(IRInstruction):
    """Conditional branch on an i1."""

    opcode = "condbr"
    is_terminator = True

    def __init__(self, cond: Value, if_true: "BasicBlock", if_false: "BasicBlock"):
        super().__init__(VOID, [cond])
        self.if_true = if_true
        self.if_false = if_false

    @property
    def cond(self) -> Value:
        return self.operands[0]

    def render(self) -> str:
        return (
            f"br i1 {self.operands[0].ref}, label %{self.if_true.name}, "
            f"label %{self.if_false.name}"
        )


class Ret(IRInstruction):
    """Return, optionally with a value."""

    opcode = "ret"
    is_terminator = True

    def __init__(self, value: Optional[Value] = None):
        super().__init__(VOID, [] if value is None else [value])

    @property
    def value(self) -> Optional[Value]:
        return self.operands[0] if self.operands else None

    def render(self) -> str:
        if self.value is None:
            return "ret void"
        return f"ret {self.value.type} {self.value.ref}"


class Unreachable(IRInstruction):
    opcode = "unreachable"
    is_terminator = True

    def __init__(self) -> None:
        super().__init__(VOID, [])

    def render(self) -> str:
        return "unreachable"


def successors(terminator: IRInstruction) -> List["BasicBlock"]:
    """CFG successors encoded by a terminator instruction."""
    if isinstance(terminator, Br):
        return [terminator.target]
    if isinstance(terminator, CondBr):
        return [terminator.if_true, terminator.if_false]
    return []


def fold_address(ptr: Value) -> Tuple[Value, int]:
    """``(base, byte offset)`` of the pointer *ptr*: its chain of
    constant-offset ``gep``s and ``bitcast``s folded, up to the first
    value that is neither (a ``gep`` by a variable offset is a base)."""
    offset = 0
    while True:
        if isinstance(ptr, Gep) and isinstance(ptr.offset, Constant):
            offset += ptr.offset.signed
            ptr = ptr.ptr
        elif isinstance(ptr, Cast) and ptr.opcode == "bitcast":
            ptr = ptr.value
        else:
            return ptr, offset
