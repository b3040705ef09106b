"""AST -> SSA IR generation (the reproduction's ``clang -O2``).

Scalar locals are promoted straight to SSA with on-the-fly phi
construction (Braun et al., CC'13), so the baseline IR is comparable to
what clang -O2 emits rather than a naive alloca-per-variable lowering.
Only address-taken locals and arrays get stack slots.

Alignment model: dereferences through *cast-derived* pointers (packet
parsing ``*(u32*)(data + off)``, tracepoint context offsets) and through
pointer-typed variables are emitted ``align 1``, matching what clang
emits for packed kernel structs and integer-cast pointers — this is
exactly the slack Merlin's DAO pass recovers.  Dereferences of ``&local``
use the slot's natural alignment.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from .. import ir
from ..ir import instructions as iri
from ..isa import MapSpec
from . import ast_nodes as ast
from .parser import parse

_INT_TYPES = {"u8": ir.I8, "u16": ir.I16, "u32": ir.I32, "u64": ir.I64}

#: builtin struct: our xdp_md layout (u64 data/data_end + two u32s)
XDP_FIELDS = {
    "data": (0, ir.I64, 8),
    "data_end": (8, ir.I64, 8),
    "ingress_ifindex": (16, ir.I32, 4),
    "rx_queue_index": (20, ir.I32, 4),
}

#: builtin helper calls: name -> (helper_name, return_type or "map_value")
BUILTINS = {
    "map_lookup": ("map_lookup_elem", "map_value"),
    "map_update": ("map_update_elem", ir.I64),
    "map_delete": ("map_delete_elem", ir.I64),
    "probe_read": ("probe_read", ir.I64),
    "probe_read_str": ("probe_read_str", ir.I64),
    "ktime_get_ns": ("ktime_get_ns", ir.I64),
    "ktime_get_boot_ns": ("ktime_get_boot_ns", ir.I64),
    "get_prandom_u32": ("get_prandom_u32", ir.I32),
    "get_smp_processor_id": ("get_smp_processor_id", ir.I32),
    "get_current_pid_tgid": ("get_current_pid_tgid", ir.I64),
    "get_current_uid_gid": ("get_current_uid_gid", ir.I64),
    "get_current_comm": ("get_current_comm", ir.I64),
    "trace_printk": ("trace_printk", ir.I64),
    "perf_event_output": ("perf_event_output", ir.I64),
    "ringbuf_output": ("ringbuf_output", ir.I64),
    "csum_diff": ("csum_diff", ir.I64),
    "xdp_adjust_head": ("xdp_adjust_head", ir.I64),
    "redirect": ("redirect", ir.I64),
    "redirect_map": ("redirect_map", ir.I64),
    "fib_lookup": ("fib_lookup", ir.I64),
}

#: XDP action constants available to every program
ACTION_CONSTS = {
    "XDP_ABORTED": 0,
    "XDP_DROP": 1,
    "XDP_PASS": 2,
    "XDP_TX": 3,
    "XDP_REDIRECT": 4,
    "BPF_ANY": 0,
    "BPF_NOEXIST": 1,
    "BPF_EXIST": 2,
}


#: mini-C comparison and arithmetic operators -> IR predicate and op
#: (``x op= y`` is ``x = x op y``)
_COMPARISONS = {"==": "eq", "!=": "ne", "<": "ult", ">": "ugt",
                "<=": "ule", ">=": "uge"}
_ARITHMETIC = {"+": "add", "-": "sub", "*": "mul", "/": "udiv",
               "%": "urem", "&": "and", "|": "or", "^": "xor",
               "<<": "shl", ">>": "lshr"}


class CompileError(Exception):
    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


def _lower_type(tname: ast.TypeName) -> ir.Type:
    if tname.base == "void" and tname.pointer_depth == 0:
        return ir.VOID
    base: ir.Type = _INT_TYPES.get(tname.base, ir.I8)
    if tname.base == "void":
        base = ir.I8
    for _ in range(tname.pointer_depth):
        base = ir.pointer(base)
    return base


class _Merge:
    """A sealed block with several predecessors whose value of one
    variable a read is still resolving.

    Braun's construction places a phi here at once and erases it when
    its operands turn out all the same.  The read instead takes the
    phi's name when Braun's would (so every later name is unchanged),
    collects the operands first and builds the phi only when they
    differ, or as soon as a loop leads back here before they are all
    known.  Each operand's ``mark`` is the length of its use list when
    Braun's phi would have joined it, so a phi built later still sits in
    every use list where Braun's did.
    """

    __slots__ = ("block", "name", "preds", "chain", "values", "marks", "phi")

    def __init__(self, block: ir.BasicBlock, name: str,
                 preds: List[ir.BasicBlock], chain: List[ir.BasicBlock]):
        self.block = block
        self.name = name
        self.preds = preds
        #: single-predecessor blocks the walk passed to get here: they
        #: take the merge's value once it is known
        self.chain = chain
        self.values: List[ir.Value] = []
        self.marks: List[int] = []
        self.phi: Optional[iri.Phi] = None

    def add(self, value: ir.Value) -> Optional[ir.BasicBlock]:
        """The value of the next predecessor; returns the predecessor
        after it, or None once every one is known."""
        phi = self.phi
        if phi is None:
            values = self.values
            values.append(value)
            self.marks.append(len(value.uses))
            resolved = len(values)
        else:
            phi.add_incoming(value, self.preds[len(phi.operands)])
            resolved = len(phi.operands)
        preds = self.preds
        return preds[resolved] if resolved < len(preds) else None

    def build_phi(self, ty: ir.Type) -> iri.Phi:
        """Put the phi where Braun's construction placed it, with the
        operands collected so far."""
        phi = iri.Phi(ty, self.name)
        block = self.block
        block.insert(len(block.phis()), phi)
        inserted: Dict[int, int] = {}
        for value, mark, pred in zip(self.values, self.marks, self.preds):
            if value.type != ty:
                raise TypeError("phi incoming type mismatch")
            earlier = inserted.get(id(value), 0)
            value.uses.insert(mark + earlier, phi)
            inserted[id(value)] = earlier + 1
            phi.operands.append(value)
            phi.incoming_blocks.append(pred)
        self.phi = phi
        return phi


class _SSA:
    """Braun-style on-the-fly SSA construction for scalar variables.

    A read at a sealed block with several predecessors resolves them
    before it builds a phi there (:class:`_Merge`), so a merge whose
    predecessors all give one value gets no phi at all.  Names, phi
    order and use lists come out as Braun's place-then-erase gives them.
    Reads and trivial-phi removal keep explicit stacks: a chain of
    thousands of ``if``s is far past Python's recursion limit.
    """

    def __init__(self, func: ir.Function):
        self.func = func
        self.defs: Dict[Tuple[str, ir.BasicBlock], ir.Value] = {}
        self.types: Dict[str, ir.Type] = {}
        self.sealed: Set[ir.BasicBlock] = set()
        self.incomplete: Dict[ir.BasicBlock, Dict[str, iri.Phi]] = {}
        self.preds: Dict[ir.BasicBlock, List[ir.BasicBlock]] = {}
        #: every (var, block) a phi was written to, so removing a trivial
        #: phi retargets its defs without scanning all of ``defs``; an
        #: entry may be stale (overwritten since), which ``defs`` tells
        self.phi_sites: Dict[iri.Phi, List[Tuple[str, ir.BasicBlock]]] = {}
        #: blocks the reads have visited, each read's own block included
        self.steps = 0

    def add_edge(self, pred: ir.BasicBlock, succ: ir.BasicBlock) -> None:
        self.preds.setdefault(succ, []).append(pred)

    def write(self, var: str, block: ir.BasicBlock, value: ir.Value) -> None:
        key = (var, block)
        self.defs[key] = value
        if isinstance(value, iri.Phi):
            self.phi_sites.setdefault(value, []).append(key)

    def _write_all(self, var: str, blocks: List[ir.BasicBlock],
                   value: ir.Value) -> None:
        """:meth:`write` *value* to *var* in each of *blocks*."""
        defs = self.defs
        for block in blocks:
            defs[(var, block)] = value
        if isinstance(value, iri.Phi):
            self.phi_sites.setdefault(value, []).extend(
                (var, block) for block in blocks)

    def read(self, var: str, block: ir.BasicBlock, line: int) -> ir.Value:
        """Braun-style variable read, with the merges it meets resolved
        depth first on an explicit stack."""
        defs = self.defs
        value = defs.get((var, block))
        if value is not None:
            self.steps += 1
            return value
        ty = self.types.get(var)
        if ty is None:
            raise CompileError(line, f"use of undeclared variable {var!r}")
        sealed = self.sealed
        preds_of = self.preds
        merges: List[_Merge] = []
        chain: List[ir.BasicBlock] = []
        current = block
        steps = 0
        while True:
            # walk up to the value at the end of ``current``
            while True:
                steps += 1
                value = defs.get((var, current))
                if value is not None:
                    if value.__class__ is _Merge:
                        # a loop led back to a merge still resolving:
                        # its phi is needed as a placeholder now
                        merge = value
                        value = merge.build_phi(ty)
                        self.write(var, merge.block, value)
                    break
                if current not in sealed:
                    value = self._place_phi(current, ty)
                    self.incomplete.setdefault(current, {})[var] = value
                    self.write(var, current, value)
                    break
                preds = preds_of.get(current, ())
                if len(preds) == 1:
                    chain.append(current)
                    current = preds[0]
                    continue
                if not preds:
                    raise CompileError(
                        line, f"variable {var!r} may be used uninitialized"
                    )
                merge = _Merge(current, self.func.next_name(), preds, chain)
                defs[(var, current)] = merge
                merges.append(merge)
                chain = []
                current = preds[0]
            if chain:
                self._write_all(var, chain, value)
            # hand the value to the innermost merge; finish every merge
            # whose predecessors are all resolved
            while merges:
                merge = merges[-1]
                current = merge.add(value)
                if current is not None:
                    chain = []
                    break
                merges.pop()
                value = self._finish(var, merge, ty)
                if merge.chain:
                    self._write_all(var, merge.chain, value)
            else:
                self.steps += steps
                return value

    def _finish(self, var: str, merge: _Merge, ty: ir.Type) -> ir.Value:
        """The merge's value once every predecessor's is known."""
        if merge.phi is not None:
            return self._try_remove_trivial(merge.phi)
        first = merge.values[0]
        for value in merge.values:
            if value is not first:
                value = merge.build_phi(ty)
                break
        else:
            value = first  # Braun's phi here is trivial and erased
        self.write(var, merge.block, value)
        return value

    def _place_phi(self, block: ir.BasicBlock, ty: ir.Type) -> iri.Phi:
        phi = iri.Phi(ty, self.func.next_name())
        block.insert(len(block.phis()), phi)
        return phi

    def _add_phi_operands(self, var: str, phi: iri.Phi, block: ir.BasicBlock,
                          line: int) -> ir.Value:
        for pred in self.preds.get(block, []):
            phi.add_incoming(self.read(var, pred, line), pred)
        return self._try_remove_trivial(phi)

    @staticmethod
    def _trivial_value(phi: iri.Phi) -> Optional[ir.Value]:
        """The one value *phi* merges besides itself, or None when it
        merges two or more (or none)."""
        same: Optional[ir.Value] = None
        for value in phi.operands:
            if value is phi or value is same:
                continue
            if same is not None:
                return None
            same = value
        return same

    def _try_remove_trivial(self, phi: iri.Phi) -> ir.Value:
        """Erase *phi* if it is trivial, then each phi that uses it and
        so became trivial, depth first in use order."""
        same = self._trivial_value(phi)
        if same is None:
            return phi
        pending = [iter(self._remove_phi(phi, same))]
        while pending:
            for user in pending[-1]:
                if isinstance(user, iri.Phi):
                    user_same = self._trivial_value(user)
                    if user_same is not None:
                        pending.append(iter(self._remove_phi(user, user_same)))
                        break
            else:
                pending.pop()
        return same

    def _remove_phi(self, phi: iri.Phi,
                    same: ir.Value) -> List[iri.IRInstruction]:
        """Replace *phi* by *same* everywhere; returns its former users."""
        users = [u for u in phi.uses if u is not phi]
        phi.replace_all_uses_with(same)
        # fix stale defs pointing at the removed phi
        for var, block in self.phi_sites.pop(phi, ()):
            if self.defs[(var, block)] is phi:
                self.write(var, block, same)
        phi.erase()
        return users

    def seal(self, block: ir.BasicBlock) -> None:
        for var, phi in self.incomplete.pop(block, {}).items():
            self._add_phi_operands(var, phi, block, 0)
        self.sealed.add(block)


class _InlineFrame:
    """State of one in-progress function inlining."""

    def __init__(self, func_def: ast.FuncDef, prefix: str,
                 continuation: ir.BasicBlock, result_var: Optional[str]):
        self.func_def = func_def
        self.prefix = prefix
        self.continuation = continuation
        self.result_var = result_var


class FunctionCompiler:
    """Compiles one function definition to IR."""

    #: guard against runaway mutual inlining
    MAX_INLINE_DEPTH = 6

    def __init__(self, module: ir.Module, consts: Dict[str, int],
                 func_def: ast.FuncDef,
                 user_functions: Optional[Dict[str, ast.FuncDef]] = None):
        self.module = module
        self.consts = dict(ACTION_CONSTS)
        self.consts.update(consts)
        self.func_def = func_def
        arg_types = [_lower_type(p.type) for p in func_def.params]
        self.func = ir.Function(
            func_def.name,
            _lower_type(func_def.return_type),
            arg_types,
            [p.name for p in func_def.params],
        )
        self.builder = ir.IRBuilder()
        self.ssa = _SSA(self.func)
        self.allocas: Dict[str, iri.Alloca] = {}
        self.address_taken = set(func_def.address_taken)
        self.loop_stack: List[Tuple[ir.BasicBlock, ir.BasicBlock]] = []
        self.terminated = False
        # program-local functions (paper §5.1's "local functions"): eBPF
        # has no general call instruction for them, so they are inlined
        self.user_functions = user_functions or {}
        self.inline_stack: List["_InlineFrame"] = []
        self._inline_counter = 0

    # --- entry ------------------------------------------------------------
    def compile(self) -> ir.Function:
        entry = self.func.add_block("entry")
        self.ssa.seal(entry)
        self.builder.position_at_end(entry)
        for param, arg in zip(self.func_def.params, self.func.args):
            self._bind_local(param.name, arg)
        self._block(self.func_def.body)
        if not self.terminated:
            if self.func.return_type.is_void:
                self.builder.ret()
            else:
                self.builder.ret(ir.Constant(self.func.return_type, 0))
        return self.func

    # --- helpers ----------------------------------------------------------------
    def _bind_local(self, name: str, value: ir.Value) -> None:
        """Introduce a named local holding *value* (parameter binding).

        Address-taken locals need a stack slot; everything else lives as
        a plain SSA value.
        """
        self.ssa.types[name] = value.type
        if name in self.address_taken:
            alloca = self.builder.alloca(value.type, name=name)
            self.allocas[name] = alloca
            self.builder.store(value, alloca, align=alloca.align)
        else:
            self.ssa.write(name, self.builder.block, value)

    def _mangle(self, name: str) -> str:
        """Scope-qualify *name* for the innermost inlined function."""
        if self.inline_stack:
            return self.inline_stack[-1].prefix + name
        return name

    def _branch_to(self, target: ir.BasicBlock) -> None:
        if not self.terminated:
            self.ssa.add_edge(self.builder.block, target)
            self.builder.br(target)
        self.terminated = False  # caller repositions

    def _cond_branch(self, cond: ir.Value, if_true: ir.BasicBlock,
                     if_false: ir.BasicBlock) -> None:
        self.ssa.add_edge(self.builder.block, if_true)
        self.ssa.add_edge(self.builder.block, if_false)
        self.builder.cbr(cond, if_true, if_false)

    def _to_bool(self, value: ir.Value, line: int) -> ir.Value:
        if value.type == ir.I1:
            return value
        if isinstance(value.type, ir.IntType):
            return self.builder.icmp("ne", value, ir.Constant(value.type, 0))
        if isinstance(value.type, ir.PointerType):
            as_int = self.builder.ptrtoint(value)
            return self.builder.icmp("ne", as_int, self.builder.i64(0))
        raise CompileError(line, "condition is not an integer")

    def _coerce(self, value: ir.Value, ty: ir.Type) -> ir.Value:
        if value.type == ty:
            return value
        if isinstance(value, ir.Constant) and isinstance(ty, ir.IntType):
            return ir.Constant(ty, value.value)
        if isinstance(value.type, ir.IntType) and isinstance(ty, ir.IntType):
            if value.type.bits < ty.bits:
                if value.type == ir.I1:
                    return self.builder.zext(value, ty)
                return self.builder.zext(value, ty)
            return self.builder.trunc(value, ty)
        if isinstance(value.type, ir.PointerType) and isinstance(ty, ir.IntType):
            result = self.builder.ptrtoint(value)
            return self._coerce(result, ty)
        if isinstance(value.type, ir.IntType) and isinstance(ty, ir.PointerType):
            wide = self._coerce(value, ir.I64)
            return self.builder.inttoptr(wide, ty)
        if isinstance(value.type, ir.PointerType) and isinstance(ty, ir.PointerType):
            return self.builder.bitcast(value, ty)
        raise CompileError(0, f"cannot convert {value.type} to {ty}")

    # --- statements ------------------------------------------------------------
    def _block(self, block: ast.Block) -> None:
        for statement in block.statements:
            if self.terminated:
                break  # unreachable code after return/break
            self._statement(statement)

    def _statement(self, stmt) -> None:
        if isinstance(stmt, ast.Block):
            self._block(stmt)
        elif isinstance(stmt, ast.VarDecl):
            self._var_decl(stmt)
        elif isinstance(stmt, ast.ExprStmt):
            self._expr(stmt.expr)
        elif isinstance(stmt, ast.If):
            self._if(stmt)
        elif isinstance(stmt, ast.While):
            self._while(stmt)
        elif isinstance(stmt, ast.For):
            self._for(stmt)
        elif isinstance(stmt, ast.Return):
            self._return(stmt)
        elif isinstance(stmt, ast.Break):
            self._break(stmt)
        elif isinstance(stmt, ast.Continue):
            self._continue(stmt)
        else:
            raise CompileError(getattr(stmt, "line", 0),
                               f"unsupported statement {type(stmt).__name__}")

    def _var_decl(self, stmt: ast.VarDecl) -> None:
        ty = _lower_type(stmt.type)
        name = self._mangle(stmt.name)
        if stmt.array_size is not None:
            elem = ty
            array = ir.ArrayType(elem, stmt.array_size)
            # clang gives local buffers at least 8-byte alignment
            align = max(ir.natural_alignment(array), 8)
            alloca = self.builder.alloca(array, align=align, name=name)
            self.allocas[name] = alloca
            self.ssa.types[name] = ir.pointer(elem)
            self.ssa.write(name, self.builder.block,
                           self.builder.bitcast(alloca, ir.pointer(elem)))
            return
        self.ssa.types[name] = ty
        if name in self.address_taken:
            alloca = self.builder.alloca(ty, name=name)
            self.allocas[name] = alloca
        if stmt.init is not None:
            value = self._coerce(self._expr(stmt.init), ty)
        else:
            value = ir.Constant(ty, 0) if isinstance(ty, ir.IntType) else None
        if name in self.allocas and not isinstance(
                self.allocas[name].allocated, ir.ArrayType):
            if value is not None:
                self.builder.store(value, self.allocas[name],
                                   align=self.allocas[name].align)
        elif value is not None:
            self.ssa.write(name, self.builder.block, value)

    def _if(self, stmt: ast.If) -> None:
        cond = self._to_bool(self._expr(stmt.cond), stmt.line)
        then_block = self.func.add_block("if.then")
        merge_block = self.func.add_block("if.end")
        else_block = merge_block
        if stmt.otherwise is not None:
            else_block = self.func.add_block("if.else")
        self._cond_branch(cond, then_block, else_block)
        self.ssa.seal(then_block)
        if stmt.otherwise is not None:
            self.ssa.seal(else_block)

        self.builder.position_at_end(then_block)
        self._statement(stmt.then)
        then_done = self.terminated
        self._branch_to(merge_block)

        if stmt.otherwise is not None:
            self.builder.position_at_end(else_block)
            self.terminated = False
            self._statement(stmt.otherwise)
            self._branch_to(merge_block)
        self.ssa.seal(merge_block)
        self.builder.position_at_end(merge_block)
        self.terminated = False
        if not self.ssa.preds.get(merge_block):
            # both arms returned: merge block is unreachable
            self.builder.unreachable()
            self.terminated = True

    def _while(self, stmt: ast.While) -> None:
        header = self.func.add_block("while.cond")
        body = self.func.add_block("while.body")
        exit_block = self.func.add_block("while.end")
        self._branch_to(header)
        self.builder.position_at_end(header)
        cond = self._to_bool(self._expr(stmt.cond), stmt.line)
        self._cond_branch(cond, body, exit_block)
        self.ssa.seal(body)

        self.builder.position_at_end(body)
        self.loop_stack.append((header, exit_block))
        self._statement(stmt.body)
        self.loop_stack.pop()
        self._branch_to(header)
        self.ssa.seal(header)
        self.ssa.seal(exit_block)
        self.builder.position_at_end(exit_block)
        self.terminated = False

    def _for(self, stmt: ast.For) -> None:
        if stmt.init is not None:
            self._statement(stmt.init)
        header = self.func.add_block("for.cond")
        body = self.func.add_block("for.body")
        step_block = self.func.add_block("for.step")
        exit_block = self.func.add_block("for.end")
        self._branch_to(header)
        self.builder.position_at_end(header)
        if stmt.cond is not None:
            cond = self._to_bool(self._expr(stmt.cond), stmt.line)
            self._cond_branch(cond, body, exit_block)
        else:
            self.ssa.add_edge(self.builder.block, body)
            self.builder.br(body)
        self.ssa.seal(body)

        self.builder.position_at_end(body)
        self.loop_stack.append((step_block, exit_block))
        self._statement(stmt.body)
        self.loop_stack.pop()
        self._branch_to(step_block)
        self.ssa.seal(step_block)
        self.builder.position_at_end(step_block)
        self.terminated = False
        if stmt.step is not None:
            self._statement(stmt.step)
        self._branch_to(header)
        self.ssa.seal(header)
        self.ssa.seal(exit_block)
        self.builder.position_at_end(exit_block)
        self.terminated = False

    def _return(self, stmt: ast.Return) -> None:
        if self.inline_stack:
            self._inline_return(stmt)
            return
        if self.func.return_type.is_void:
            self.builder.ret()
        else:
            if stmt.value is None:
                raise CompileError(stmt.line, "return needs a value")
            value = self._coerce(self._expr(stmt.value), self.func.return_type)
            self.builder.ret(value)
        self.terminated = True

    def _inline_return(self, stmt: ast.Return) -> None:
        """A return inside an inlined function: record the result and
        branch to the call's continuation block."""
        frame = self.inline_stack[-1]
        ret_ty = _lower_type(frame.func_def.return_type)
        if frame.result_var is not None:
            if stmt.value is None:
                raise CompileError(stmt.line, "return needs a value")
            value = self._coerce(self._expr(stmt.value), ret_ty)
            self.ssa.write(frame.result_var, self.builder.block, value)
        self.ssa.add_edge(self.builder.block, frame.continuation)
        self.builder.br(frame.continuation)
        self.terminated = True

    def _break(self, stmt: ast.Break) -> None:
        if not self.loop_stack:
            raise CompileError(stmt.line, "break outside loop")
        _, exit_block = self.loop_stack[-1]
        self.ssa.add_edge(self.builder.block, exit_block)
        self.builder.br(exit_block)
        self.terminated = True

    def _continue(self, stmt: ast.Continue) -> None:
        if not self.loop_stack:
            raise CompileError(stmt.line, "continue outside loop")
        target, _ = self.loop_stack[-1]
        self.ssa.add_edge(self.builder.block, target)
        self.builder.br(target)
        self.terminated = True

    # --- expressions ---------------------------------------------------------------
    def _expr(self, expr) -> ir.Value:
        if isinstance(expr, ast.Number):
            return ir.Constant(ir.I64, expr.value)
        if isinstance(expr, ast.Name):
            return self._name_value(expr)
        if isinstance(expr, ast.Unary):
            return self._unary(expr)
        if isinstance(expr, ast.Binary):
            return self._binary(expr)
        if isinstance(expr, ast.Assign):
            return self._assign(expr)
        if isinstance(expr, ast.Call):
            return self._call(expr)
        if isinstance(expr, ast.Cast):
            return self._cast(expr)
        if isinstance(expr, ast.Index):
            ptr, align = self._index_ptr(expr)
            return self.builder.load(ptr, align=align)
        if isinstance(expr, ast.Member):
            return self._member(expr)
        if isinstance(expr, ast.Conditional):
            cond = self._to_bool(self._expr(expr.cond), expr.line)
            t = self._expr(expr.if_true)
            f = self._expr(expr.if_false)
            t, f = self._promote_pair(t, f)
            return self.builder.select(cond, t, f)
        raise CompileError(getattr(expr, "line", 0),
                           f"unsupported expression {type(expr).__name__}")

    def _name_value(self, expr: ast.Name) -> ir.Value:
        name = self._mangle(expr.ident)
        if name not in self.ssa.types and expr.ident in self.consts:
            return ir.Constant(ir.I64, self.consts[expr.ident])
        if expr.ident in self.module.maps:
            raise CompileError(expr.line,
                               "maps may only be used as builtin arguments")
        if name in self.allocas:
            alloca = self.allocas[name]
            if isinstance(alloca.allocated, ir.ArrayType):
                return self.ssa.read(name, self.builder.block, expr.line)
            return self.builder.load(alloca, align=alloca.align)
        return self.ssa.read(name, self.builder.block, expr.line)

    def _unary(self, expr: ast.Unary) -> ir.Value:
        if expr.op == "&":
            if isinstance(expr.operand, ast.Name) and \
                    self._mangle(expr.operand.ident) in self.allocas:
                return self.allocas[self._mangle(expr.operand.ident)]
            raise CompileError(expr.line, "can only take address of a local")
        if expr.op == "*":
            ptr, align = self._deref_ptr(expr.operand, expr.line)
            return self.builder.load(ptr, align=align)
        value = self._expr(expr.operand)
        if expr.op == "-":
            zero = ir.Constant(value.type, 0)
            return self.builder.sub(zero, value)
        if expr.op == "~":
            ones = ir.Constant(value.type, value.type.mask)
            return self.builder.xor(value, ones)
        if expr.op == "!":
            as_bool = self._to_bool(value, expr.line)
            return self.builder.xor(as_bool, ir.Constant(ir.I1, 1))
        raise CompileError(expr.line, f"unsupported unary {expr.op!r}")

    def _deref_ptr(self, operand, line: int) -> Tuple[ir.Value, int]:
        """Pointer + the alignment clang would assert for this deref.

        clang trusts the static type of a *typed* pointer expression
        (``u64* v; *v`` is an align-8 access).  Only accesses through a
        cast — ``*(u32*)(data + off)``, the packed-struct / raw-offset
        idiom eBPF code is full of — are asserted ``align 1``, and those
        are exactly what Merlin's DAO pass recovers.
        """
        value = self._expr(operand)
        if not isinstance(value.type, ir.PointerType):
            raise CompileError(line, f"cannot dereference {value.type}")
        if isinstance(operand, ast.Unary) and operand.op == "&" and \
                isinstance(operand.operand, ast.Name):
            alloca = self.allocas.get(operand.operand.ident)
            if alloca is not None:
                return value, alloca.align
        if self._contains_cast(operand):
            return value, 1
        return value, ir.natural_alignment(value.type.pointee)

    @staticmethod
    def _contains_cast(operand) -> bool:
        node = operand
        while True:
            if isinstance(node, ast.Cast):
                return True
            if isinstance(node, ast.Binary):
                node = node.lhs
                continue
            return False

    def _binary(self, expr: ast.Binary) -> ir.Value:
        if expr.op in ("&&", "||"):
            return self._short_circuit(expr)
        lhs = self._expr(expr.lhs)
        rhs = self._expr(expr.rhs)
        if expr.op in _COMPARISONS:
            lhs, rhs = self._promote_pair(lhs, rhs)
            if isinstance(lhs.type, ir.PointerType):
                lhs = self.builder.ptrtoint(lhs)
                rhs = self.builder.ptrtoint(rhs) if isinstance(
                    rhs.type, ir.PointerType) else self._coerce(rhs, ir.I64)
            if isinstance(rhs.type, ir.PointerType):
                rhs = self.builder.ptrtoint(rhs)
                lhs = self._coerce(lhs, ir.I64)
            return self.builder.icmp(_COMPARISONS[expr.op], lhs, rhs)
        # pointer arithmetic: ptr + int scales by element size
        if isinstance(lhs.type, ir.PointerType) and expr.op in ("+", "-"):
            return self._pointer_offset(lhs, rhs, expr.op)
        binop = _ARITHMETIC.get(expr.op)
        if binop is None:
            raise CompileError(expr.line, f"unsupported operator {expr.op!r}")
        lhs, rhs = self._promote_pair(lhs, rhs)
        return self.builder.binop(binop, lhs, rhs)

    def _pointer_offset(self, ptr: ir.Value, offset: ir.Value,
                        op: str) -> ir.Value:
        elem = ptr.type.pointee
        scale = max(elem.size_bytes, 1)
        if isinstance(offset, ir.Constant):
            delta = offset.signed * scale
            if op == "-":
                delta = -delta
            return self.builder.gep_const(ptr, delta, elem)
        wide = self._coerce(offset, ir.I64)
        if scale != 1:
            wide = self.builder.mul(wide, self.builder.i64(scale))
        if op == "-":
            wide = self.builder.sub(self.builder.i64(0), wide)
        return self.builder.gep(ptr, wide, elem)

    def _short_circuit(self, expr: ast.Binary) -> ir.Value:
        lhs = self._to_bool(self._expr(expr.lhs), expr.line)
        rhs_block = self.func.add_block("sc.rhs")
        merge = self.func.add_block("sc.end")
        lhs_block = self.builder.block
        if expr.op == "&&":
            self._cond_branch(lhs, rhs_block, merge)
        else:
            self._cond_branch(lhs, merge, rhs_block)
        self.ssa.seal(rhs_block)
        self.builder.position_at_end(rhs_block)
        rhs = self._to_bool(self._expr(expr.rhs), expr.line)
        rhs_end = self.builder.block
        self.ssa.add_edge(rhs_end, merge)
        self.builder.br(merge)
        self.ssa.seal(merge)
        self.builder.position_at_end(merge)
        phi = iri.Phi(ir.I1, self.func.next_name())
        merge.insert(0, phi)
        short_value = ir.Constant(ir.I1, 0 if expr.op == "&&" else 1)
        phi.add_incoming(short_value, lhs_block)
        phi.add_incoming(rhs, rhs_end)
        return phi

    def _promote_pair(self, lhs: ir.Value,
                      rhs: ir.Value) -> Tuple[ir.Value, ir.Value]:
        if lhs.type == rhs.type:
            return lhs, rhs
        if isinstance(lhs.type, ir.PointerType) or isinstance(
                rhs.type, ir.PointerType):
            return lhs, rhs
        # constants adapt to the other operand's type
        if isinstance(lhs, ir.Constant) and isinstance(rhs.type, ir.IntType):
            return ir.Constant(rhs.type, lhs.value), rhs
        if isinstance(rhs, ir.Constant) and isinstance(lhs.type, ir.IntType):
            return lhs, ir.Constant(lhs.type, rhs.value)
        if lhs.type.bits < rhs.type.bits:  # type: ignore[union-attr]
            return self.builder.zext(lhs, rhs.type), rhs
        return lhs, self.builder.zext(rhs, lhs.type)

    # --- lvalues --------------------------------------------------------------
    def _assign(self, expr: ast.Assign) -> ir.Value:
        target = expr.target
        if isinstance(target, ast.Name):
            return self._assign_name(expr, target)
        if isinstance(target, ast.Unary) and target.op == "*":
            ptr, align = self._deref_ptr(target.operand, expr.line)
            return self._assign_mem(expr, ptr, align)
        if isinstance(target, ast.Index):
            ptr, align = self._index_ptr(target)
            return self._assign_mem(expr, ptr, align)
        raise CompileError(expr.line, "invalid assignment target")

    def _assign_name(self, expr: ast.Assign, target: ast.Name) -> ir.Value:
        name = self._mangle(target.ident)
        ty = self.ssa.types.get(name)
        if ty is None:
            raise CompileError(expr.line,
                               f"assignment to undeclared {target.ident!r}")
        if name in self.allocas and not isinstance(
                self.allocas[name].allocated, ir.ArrayType):
            alloca = self.allocas[name]
            value = self._rmw_value(expr, lambda: self.builder.load(
                alloca, align=alloca.align), ty)
            self.builder.store(value, alloca, align=alloca.align)
            return value
        value = self._rmw_value(
            expr,
            lambda: self.ssa.read(name, self.builder.block, expr.line),
            ty,
        )
        self.ssa.write(name, self.builder.block, value)
        return value

    def _assign_mem(self, expr: ast.Assign, ptr: ir.Value,
                    align: int) -> ir.Value:
        ty = ptr.type.pointee
        if not isinstance(ty, ir.IntType):
            raise CompileError(expr.line, "can only store integers")
        value = self._rmw_value(
            expr, lambda: self.builder.load(ptr, align=align), ty
        )
        self.builder.store(value, ptr, align=align)
        return value

    def _rmw_value(self, expr: ast.Assign, read_old, ty: ir.Type) -> ir.Value:
        value = self._coerce(self._expr(expr.value), ty)
        if expr.op == "=":
            return value
        old = read_old()
        return self.builder.binop(_ARITHMETIC[expr.op[:-1]], old, value)

    def _cast(self, expr: ast.Cast) -> ir.Value:
        target = _lower_type(expr.type)
        value = self._expr(expr.value)
        if target.is_void:
            raise CompileError(expr.line, "cannot cast to void")
        return self._coerce(value, target)

    def _index_ptr(self, expr: ast.Index) -> Tuple[ir.Value, int]:
        base = self._expr(expr.base)
        if not isinstance(base.type, ir.PointerType):
            raise CompileError(expr.line, "subscript of non-pointer")
        index = self._expr(expr.index)
        elem = base.type.pointee
        ptr = self._pointer_offset(base, index, "+")
        # element access through an arbitrary pointer: align 1
        align = 1
        if isinstance(expr.base, ast.Name) and \
                self._mangle(expr.base.ident) in self.allocas:
            alloca = self.allocas[self._mangle(expr.base.ident)]
            align = min(alloca.align, max(elem.size_bytes, 1))
        return ptr, align

    def _member(self, expr: ast.Member) -> ir.Value:
        base = self._expr(expr.base)
        if not isinstance(base.type, ir.PointerType):
            raise CompileError(expr.line, "-> on non-pointer")
        field = XDP_FIELDS.get(expr.name)
        if field is None:
            raise CompileError(expr.line, f"unknown field {expr.name!r}")
        offset, ty, align = field
        ptr = self.builder.gep_const(base, offset, ty)
        return self.builder.load(ptr, align=align)

    # --- calls -----------------------------------------------------------------
    _CTX_LOADS = {
        "ctx_load_u8": ir.I8,
        "ctx_load_u16": ir.I16,
        "ctx_load_u32": ir.I32,
        "ctx_load_u64": ir.I64,
    }

    def _call(self, expr: ast.Call) -> ir.Value:
        if expr.callee in self._CTX_LOADS:
            return self._ctx_load(expr)
        if expr.callee in self.user_functions:
            return self._inline_call(expr)
        builtin = BUILTINS.get(expr.callee)
        if builtin is None:
            raise CompileError(expr.line, f"unknown function {expr.callee!r}")
        helper, return_type = builtin
        args: List[ir.Value] = []
        value_type: ir.Type = ir.I64
        for i, arg in enumerate(expr.args):
            if isinstance(arg, ast.Name) and arg.ident in self.module.maps:
                if i == 0 and helper.startswith("map_"):
                    spec = self.module.maps[arg.ident]
                    value_type = ir.int_type(min(spec.value_size, 8) * 8) \
                        if spec.value_size in (1, 2, 4, 8) else ir.I8
                args.append(ir.GlobalSymbol(ir.pointer(ir.I8), arg.ident))
                continue
            args.append(self._expr(arg))
        if return_type == "map_value":
            result_ty: ir.Type = ir.pointer(value_type)
        else:
            result_ty = return_type
        return self.builder.call(helper, args, result_ty)

    def _inline_call(self, expr: ast.Call) -> ir.Value:
        """Inline a program-local function at the call site.

        eBPF's call instruction only reaches helpers; local functions
        are compiled into the caller, exactly how clang handles
        ``static __always_inline`` eBPF code.
        """
        callee = self.user_functions[expr.callee]
        if len(self.inline_stack) >= self.MAX_INLINE_DEPTH:
            raise CompileError(expr.line, "inlining too deep (recursion?)")
        if any(f.func_def.name == callee.name for f in self.inline_stack) or \
                callee.name == self.func_def.name:
            raise CompileError(
                expr.line, f"recursive call to {callee.name!r} "
                "(eBPF forbids recursion)"
            )
        if len(expr.args) != len(callee.params):
            raise CompileError(
                expr.line, f"{callee.name}() takes {len(callee.params)} "
                f"arguments, got {len(expr.args)}"
            )
        self._inline_counter += 1
        prefix = f"__{callee.name}{self._inline_counter}."

        # evaluate arguments in the caller's scope, bind in the callee's
        bound = []
        for param, arg in zip(callee.params, expr.args):
            value = self._coerce(self._expr(arg), _lower_type(param.type))
            bound.append((prefix + param.name, value))
        for taken in callee.address_taken:
            self.address_taken.add(prefix + taken)

        ret_ty = _lower_type(callee.return_type)
        continuation = self.func.add_block(f"{callee.name}.ret")
        result_var = None if ret_ty.is_void else prefix + "__ret"
        frame = _InlineFrame(callee, prefix, continuation, result_var)
        self.inline_stack.append(frame)
        for name, value in bound:
            self._bind_local(name, value)
        if result_var is not None:
            self.ssa.types[result_var] = ret_ty

        self._block(callee.body)
        if not self.terminated:
            # fall off the end: a void return (or zero for integers)
            if result_var is not None:
                self.ssa.write(result_var, self.builder.block,
                               ir.Constant(ret_ty, 0))
            self.ssa.add_edge(self.builder.block, continuation)
            self.builder.br(continuation)
        self.inline_stack.pop()
        self.ssa.seal(continuation)
        self.builder.position_at_end(continuation)
        self.terminated = False
        if result_var is None:
            return ir.Constant(ir.I64, 0)
        return self.ssa.read(result_var, continuation, expr.line)

    def _ctx_load(self, expr: ast.Call) -> ir.Value:
        """``ctx_load_uN(ptr, off)``: a load at a *known-layout* struct
        field — clang asserts the natural alignment, so the backend
        emits a single access even without Merlin."""
        if len(expr.args) != 2 or not isinstance(expr.args[1], ast.Number):
            raise CompileError(expr.line,
                               f"{expr.callee} takes (pointer, const-offset)")
        base = self._expr(expr.args[0])
        if not isinstance(base.type, ir.PointerType):
            raise CompileError(expr.line, f"{expr.callee} needs a pointer")
        ty = self._CTX_LOADS[expr.callee]
        offset = expr.args[1].value
        ptr = self.builder.gep_const(base, offset, ty)
        return self.builder.load(ptr, align=ty.size_bytes)


def compile_source(source: str, module_name: str = "module") -> ir.Module:
    """Parse and lower mini-C *source* into an IR module."""
    program = parse(source)
    module = ir.Module(module_name)
    for map_decl in program.maps:
        key_size = _lower_type(map_decl.key_type).size_bytes
        value_size = _lower_type(map_decl.value_type).size_bytes
        module.maps[map_decl.name] = MapSpec(
            name=map_decl.name,
            map_type=map_decl.kind,
            key_size=key_size,
            value_size=value_size,
            max_entries=map_decl.max_entries,
        )
    consts = {c.name: c.value for c in program.consts}
    user_functions = {f.name: f for f in program.functions}
    for func_def in program.functions:
        compiler = FunctionCompiler(module, consts, func_def, user_functions)
        module.add_function(compiler.compile())
    return module
