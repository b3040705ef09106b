"""AST node definitions for the mini-C eBPF language."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Set


@dataclass
class Node:
    line: int = 0


# --- types (syntactic) ----------------------------------------------------
@dataclass
class TypeName(Node):
    base: str = "u64"  # u8/u16/u32/u64/void
    pointer_depth: int = 0

    def __str__(self) -> str:
        return self.base + "*" * self.pointer_depth


# --- expressions -------------------------------------------------------------
@dataclass
class Number(Node):
    value: int = 0


@dataclass
class Name(Node):
    ident: str = ""


@dataclass
class Unary(Node):
    op: str = ""  # "-", "!", "~", "*" (deref), "&" (address-of)
    operand: "Expr" = None


@dataclass
class Binary(Node):
    op: str = ""
    lhs: "Expr" = None
    rhs: "Expr" = None


@dataclass
class Assign(Node):
    op: str = "="  # "=", "+=", ...
    target: "Expr" = None  # Name, Unary("*"), Index, Member
    value: "Expr" = None


@dataclass
class Call(Node):
    callee: str = ""
    args: List["Expr"] = field(default_factory=list)


@dataclass
class Cast(Node):
    type: TypeName = None
    value: "Expr" = None


@dataclass
class Index(Node):
    base: "Expr" = None
    index: "Expr" = None


@dataclass
class Member(Node):
    base: "Expr" = None
    name: str = ""
    arrow: bool = True


@dataclass
class Conditional(Node):
    cond: "Expr" = None
    if_true: "Expr" = None
    if_false: "Expr" = None


Expr = object  # union of the expression classes above


# --- statements -------------------------------------------------------------
@dataclass
class VarDecl(Node):
    type: TypeName = None
    name: str = ""
    init: Optional[Expr] = None
    array_size: Optional[int] = None


@dataclass
class ExprStmt(Node):
    expr: Expr = None


@dataclass
class If(Node):
    cond: Expr = None
    then: "Stmt" = None
    otherwise: Optional["Stmt"] = None


@dataclass
class While(Node):
    cond: Expr = None
    body: "Stmt" = None


@dataclass
class For(Node):
    init: Optional["Stmt"] = None
    cond: Optional[Expr] = None
    step: Optional["Stmt"] = None
    body: "Stmt" = None


@dataclass
class Return(Node):
    value: Optional[Expr] = None


@dataclass
class Break(Node):
    pass


@dataclass
class Continue(Node):
    pass


@dataclass
class Block(Node):
    statements: List["Stmt"] = field(default_factory=list)


Stmt = object


# --- top level -----------------------------------------------------------------
@dataclass
class Param(Node):
    type: TypeName = None
    name: str = ""


@dataclass
class FuncDef(Node):
    return_type: TypeName = None
    name: str = ""
    params: List[Param] = field(default_factory=list)
    body: Block = None
    #: every ``name`` the body takes the address of (``&name``); the
    #: parser records them, so lowering never walks the tree for them
    address_taken: Set[str] = field(default_factory=set)


@dataclass
class MapDecl(Node):
    kind: str = "array"  # array/hash/percpu_array/lru_hash
    name: str = ""
    key_type: TypeName = None
    value_type: TypeName = None
    max_entries: int = 1


@dataclass
class ConstDecl(Node):
    name: str = ""
    value: int = 0


@dataclass
class Program(Node):
    maps: List[MapDecl] = field(default_factory=list)
    consts: List[ConstDecl] = field(default_factory=list)
    functions: List[FuncDef] = field(default_factory=list)
