"""Parser for the textual IR syntax emitted by :mod:`repro.ir.printer`.

Round-trips ``print_function`` output, which makes pass tests writable
as before/after IR snippets::

    func = parse_function('''
    define i64 @f(i8* %ctx) {
    entry:
      %1 = gep i16* %ctx, i64 36
      %2 = load i16, i16* %1, align 1
      %3 = zext i16 %2 to i64
      ret i64 %3
    }
    ''')
"""

from __future__ import annotations

import re
from typing import Dict, List, Optional, Set, Tuple

from . import instructions as iri
from .basicblock import BasicBlock, Function
from .types import ArrayType, IntType, PointerType, Type, VOID, int_type, pointer
from .values import Constant, GlobalSymbol, Value


class IRParseError(SyntaxError):
    def __init__(self, line_no: int, line: str, message: str):
        super().__init__(f"line {line_no}: {message}: {line.strip()!r}")


_TYPE_RE = re.compile(r"^(void|i1|i8|i16|i32|i64)(\**)$")
_ARRAY_RE = re.compile(r"^\[(\d+)\s*x\s*(.+)\](\**)$")
_DEFINE_RE = re.compile(
    r"^define\s+(\S+)\s+@([\w.$-]+)\s*\(([^)]*)\)\s*\{$"
)
_LABEL_RE = re.compile(r"^([\w.$-]+):$")
_ASSIGN_RE = re.compile(r"^%([\w.$-]+)\s*=\s*(.*)$")
_CALL_RE = re.compile(r"^(\S+)\s+@([\w.$-]+)\((.*)\)$")
_INCOMING_RE = re.compile(r"\[\s*([^,\]]+)\s*,\s*%([\w.$-]+)\s*\]")
_CONDBR_RE = re.compile(
    r"^i1\s+(\S+),\s*label\s+%([\w.$-]+),\s*label\s+%([\w.$-]+)$")
_BR_RE = re.compile(r"^label\s+%([\w.$-]+)$")
_ALIGN_RE = re.compile(r"^align\s+(\d+)$")


def parse_type(text: str) -> Type:
    array = _ARRAY_RE.match(text.strip())
    if array:
        count, element, stars = array.groups()
        ty: Type = ArrayType(parse_type(element), int(count))
        for _ in stars:
            ty = pointer(ty)
        return ty
    match = _TYPE_RE.match(text.strip())
    if not match:
        raise ValueError(f"unknown type {text!r}")
    base, stars = match.groups()
    if base == "void":
        if stars:
            raise ValueError("pointer to void is not supported")
        return VOID
    ty: Type = int_type(int(base[1:]))
    for _ in stars:
        ty = pointer(ty)
    return ty


class _FunctionParser:
    def __init__(self) -> None:
        self.func: Optional[Function] = None
        self.values: Dict[str, Value] = {}
        self.blocks: Dict[str, BasicBlock] = {}
        self.pending: List[Tuple] = []  # fixups for forward block refs
        #: typed placeholders for values used before their textual
        #: definition — legal SSA whenever the defining block dominates
        #: the use even though it *prints* later (branch folding leaves
        #: blocks in layout order); resolved in _fixup_forwards
        self.forward: Dict[str, Tuple[Value, int, str]] = {}
        #: forward references first made as a gep's base, whose type the
        #: text does not give: any pointer definition resolves them
        self.any_pointer: Set[str] = set()
        self.current: Optional[BasicBlock] = None
        #: type text -> parsed type: a function spells few distinct
        #: types, many times over
        self.types: Dict[str, Type] = {}

    # ------------------------------------------------------------- values
    def _type(self, text: str) -> Type:
        ty = self.types.get(text)
        if ty is None:
            ty = self.types[text] = parse_type(text)
        return ty

    def _value(self, ty: Type, token: str, line_no: int, line: str) -> Value:
        token = token.strip()
        if token.startswith("%"):
            name = token[1:]
            if name not in self.values:
                if name not in self.forward:
                    self.forward[name] = (Value(ty, name), line_no, line)
                return self.forward[name][0]
            return self.values[name]
        if token.startswith("@"):
            return GlobalSymbol(pointer(int_type(8)), token[1:])
        if token == "undef":
            from .values import UndefValue

            return UndefValue(ty)
        if isinstance(ty, IntType):
            try:
                return Constant(ty, int(token, 0))
            except ValueError:
                pass
        raise IRParseError(line_no, line, f"cannot parse operand {token!r}")

    def _block(self, name: str) -> BasicBlock:
        if name not in self.blocks:
            block = BasicBlock(name, self.func)
            self.blocks[name] = block
        return self.blocks[name]

    def _define(self, insn: iri.IRInstruction, name: str) -> None:
        insn.name = name
        self.values[name] = insn
        self._append(insn)

    def _append(self, insn: iri.IRInstruction) -> None:
        assert self.current is not None
        # ``insert`` records the name; unlike ``append`` it takes what
        # follows a terminator, as the text has it
        self.current.insert(len(self.current.instructions), insn)

    # -------------------------------------------------------------- parse
    def parse(self, text: str) -> Function:
        lines = text.splitlines()
        for line_no, raw in enumerate(lines, start=1):
            line = raw.split(";")[0].strip()
            if not line:
                continue
            if line == "}":
                break
            if self.func is None:
                self._parse_define(line_no, line)
                continue
            label = _LABEL_RE.match(line)
            if label:
                block = self._block(label.group(1))
                if not self.func.has_block(block.name):
                    self.func.append_block(block)
                self.current = block
                continue
            if self.current is None:
                raise IRParseError(line_no, line, "instruction outside block")
            self._parse_instruction(line_no, line)
        if self.func is None:
            raise SyntaxError("no 'define' found")
        self._fixup_forwards()
        self._fixup_phis()
        return self.func

    def _parse_define(self, line_no: int, line: str) -> None:
        match = _DEFINE_RE.match(line)
        if not match:
            raise IRParseError(line_no, line, "expected 'define'")
        ret_text, name, params = match.groups()
        arg_types: List[Type] = []
        arg_names: List[str] = []
        if params.strip():
            for param in params.split(","):
                ty_text, _, pname = param.strip().rpartition(" ")
                arg_types.append(self._type(ty_text))
                arg_names.append(pname.lstrip("%"))
        self.func = Function(name, self._type(ret_text), arg_types, arg_names)
        for arg in self.func.args:
            self.values[arg.name] = arg

    # ------------------------------------------------------- instructions
    def _parse_instruction(self, line_no: int, line: str) -> None:
        assign = _ASSIGN_RE.match(line)
        name = None
        body = line
        if assign:
            name, body = assign.groups()
        insn = self._build(line_no, line, body.strip())
        if name is not None:
            self._define(insn, name)
        else:
            self._append(insn)

    def _build(self, line_no: int, line: str, body: str) -> iri.IRInstruction:
        head = body.split(None, 1)[0]
        rest = body[len(head):].strip()

        if head in iri.BINARY_OPS:
            ty, lhs, rhs = self._ty_two_operands(line_no, line, rest)
            return iri.BinaryOp(head, lhs, rhs)
        if head == "icmp":
            pred, remainder = rest.split(None, 1)
            ty, lhs, rhs = self._ty_two_operands(line_no, line, remainder)
            return iri.ICmp(pred, lhs, rhs)
        if head == "load":
            # load i16, i16* %p, align N
            parts = [p.strip() for p in rest.split(",")]
            ptr_ty_text, ptr_tok = parts[1].rsplit(None, 1)
            ptr = self._value(self._type(ptr_ty_text), ptr_tok, line_no, line)
            align = self._align(parts, default=1)
            return iri.Load(ptr, align=align)
        if head == "store":
            parts = [p.strip() for p in rest.split(",")]
            val_ty_text, val_tok = parts[0].rsplit(None, 1)
            val_ty = self._type(val_ty_text)
            value = self._value(val_ty, val_tok, line_no, line)
            ptr_ty_text, ptr_tok = parts[1].rsplit(None, 1)
            ptr = self._value(self._type(ptr_ty_text), ptr_tok, line_no, line)
            return iri.Store(value, ptr, align=self._align(parts, default=1))
        if head == "atomicrmw":
            # atomicrmw add ptr %p, i64 %v monotonic, align 8
            op_name, remainder = rest.split(None, 1)
            parts = [p.strip() for p in remainder.split(",")]
            ptr_tok = parts[0].split()[-1]
            val_text = parts[1].split()
            val_ty = self._type(val_text[0])
            value = self._value(val_ty, val_text[1], line_no, line)
            ordering = val_text[2] if len(val_text) > 2 else "monotonic"
            ptr = self._value(pointer(val_ty), ptr_tok, line_no, line)
            if not isinstance(ptr.type, PointerType) or \
                    ptr.type.pointee != val_ty:
                # 'ptr' syntax is untyped: trust the value type
                pass
            return iri.AtomicRMW(op_name, ptr, value,
                                 align=self._align(parts, default=8),
                                 ordering=ordering)
        if head == "alloca":
            parts = [p.strip() for p in rest.split(",")]
            allocated = self._type(parts[0])
            return iri.Alloca(allocated, self._align(parts, default=None))
        if head == "gep":
            # gep i16* %p, i64 36
            parts = [p.strip() for p in rest.split(",")]
            res_ty_text, ptr_tok = parts[0].rsplit(None, 1)
            result_type = self._type(res_ty_text)
            off_ty_text, off_tok = parts[1].rsplit(None, 1)
            offset = self._value(self._type(off_ty_text), off_tok, line_no,
                                 line)
            if not isinstance(result_type, PointerType):
                raise IRParseError(line_no, line, "gep result must be pointer")
            base = self._pointer_operand(ptr_tok, result_type, line_no, line)
            return iri.Gep(base, offset, result_type)
        if head in iri.CAST_OPS:
            # zext i16 %2 to i64
            source_text, _, to_text = rest.rpartition(" to ")
            ty_text, tok = source_text.rsplit(None, 1)
            value = self._value(self._type(ty_text), tok, line_no, line)
            return iri.Cast(head, value, self._type(to_text))
        if head == "select":
            parts = [p.strip() for p in rest.split(",")]
            cond = self._value(int_type(1), parts[0].split()[-1], line_no,
                               line)
            t_ty_text, t_tok = parts[1].rsplit(None, 1)
            t_val = self._value(self._type(t_ty_text), t_tok, line_no, line)
            f_ty_text, f_tok = parts[2].rsplit(None, 1)
            f_val = self._value(self._type(f_ty_text), f_tok, line_no, line)
            return iri.Select(cond, t_val, f_val)
        if head == "call":
            # call i64 @name(i64 %a, ...)
            match = _CALL_RE.match(rest)
            if not match:
                raise IRParseError(line_no, line, "malformed call")
            ret_ty = self._type(match.group(1))
            args = []
            if match.group(3).strip():
                for arg in match.group(3).split(","):
                    ty_text, tok = arg.strip().rsplit(None, 1)
                    args.append(self._value(self._type(ty_text), tok,
                                            line_no, line))
            return iri.Call(match.group(2), args, ret_ty)
        if head == "phi":
            # phi i64 [ %a, %bb1 ], [ 0, %bb2 ] — incoming values may be
            # defined later (loop back-edges), so resolution is deferred
            ty_text, remainder = rest.split(None, 1)
            ty = self._type(ty_text)
            phi = iri.Phi(ty)
            pairs = _INCOMING_RE.findall(remainder)
            self.pending.append((phi, ty, pairs, line_no, line))
            return phi
        if head == "br":
            cond_match = _CONDBR_RE.match(rest)
            if cond_match:
                cond = self._value(int_type(1), cond_match.group(1), line_no,
                                   line)
                return iri.CondBr(cond, self._block(cond_match.group(2)),
                                  self._block(cond_match.group(3)))
            plain = _BR_RE.match(rest)
            if plain:
                return iri.Br(self._block(plain.group(1)))
            raise IRParseError(line_no, line, "malformed br")
        if head == "ret":
            if rest == "void":
                return iri.Ret()
            ty_text, tok = rest.rsplit(None, 1)
            return iri.Ret(self._value(self._type(ty_text), tok, line_no,
                                       line))
        if head == "unreachable":
            return iri.Unreachable()
        raise IRParseError(line_no, line, f"unknown instruction {head!r}")

    # ------------------------------------------------------------ helpers
    def _pointer_operand(self, token: str, ty: PointerType, line_no: int,
                         line: str) -> Value:
        """A gep's base.  Used before its definition, it is a placeholder
        of type *ty* (the gep's own) that any pointer resolves."""
        token = token.strip()
        if token.startswith("%"):
            name = token[1:]
            if name in self.values:
                return self.values[name]
            if name not in self.forward:
                self.any_pointer.add(name)
            return self._value(ty, token, line_no, line)
        raise IRParseError(line_no, line, f"unknown pointer {token!r}")

    def _ty_two_operands(self, line_no: int, line: str, rest: str):
        # "<ty> a, b"
        ty_text, remainder = rest.split(None, 1)
        ty = self._type(ty_text)
        lhs_tok, _, rhs_tok = remainder.partition(",")
        lhs = self._value(ty, lhs_tok, line_no, line)
        rhs = self._value(ty, rhs_tok, line_no, line)
        return ty, lhs, rhs

    @staticmethod
    def _align(parts: List[str], default):
        for part in parts:
            match = _ALIGN_RE.match(part.strip())
            if match:
                return int(match.group(1))
        return default

    def _fixup_forwards(self) -> None:
        for name, (placeholder, line_no, line) in self.forward.items():
            defined = self.values.get(name)
            if defined is None:
                raise IRParseError(line_no, line,
                                   f"use of undefined value %{name}")
            if name in self.any_pointer:
                if not isinstance(defined.type, PointerType):
                    raise IRParseError(
                        line_no, line,
                        f"%{name} used as a pointer but defined as "
                        f"{defined.type}")
            elif defined.type != placeholder.type:
                raise IRParseError(
                    line_no, line,
                    f"%{name} used as {placeholder.type} but defined as "
                    f"{defined.type}")
            placeholder.replace_all_uses_with(defined)

    def _fixup_phis(self) -> None:
        assert self.func is not None
        for phi, ty, pairs, line_no, line in self.pending:
            for value_tok, block_name in pairs:
                value = self._value(ty, value_tok, line_no, line)
                phi.add_incoming(value, self._block(block_name))
        # ensure every referenced block ended up in the function
        for name in self.blocks:
            if not self.func.has_block(name):
                raise SyntaxError(f"branch to undefined block {name!r}")


def parse_function(text: str) -> Function:
    """Parse one ``define ... { ... }`` into a Function."""
    return _FunctionParser().parse(text)
