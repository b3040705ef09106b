"""Instruction selection: SSA IR -> low-level eBPF with virtual registers.

The selector deliberately reproduces the *naive* patterns LLVM's eBPF
backend emits at -O2 without Merlin, because those patterns are the raw
material of the paper's optimizations:

* a load/store whose asserted ``align`` is below the access width is
  decomposed into unit-width accesses assembled with shifts and ORs
  (Fig. 6 of the paper) — Merlin's DAO pass removes the need;
* zero-extension of a 32-bit value held in a 64-bit register uses the
  ``shl 32; shr 32`` pair (Fig. 8) — Merlin's code compaction turns it
  into one ALU32 ``mov``;
* ``lshr i32 x, k`` on a dirty register loads a 64-bit mask immediate,
  ANDs, then shifts (Fig. 9) — Merlin's peephole pass rewrites it;
* immediate stores always materialize the constant into a register
  first (Fig. 4) — Merlin's bytecode CP/DCE folds it back;
* read-modify-write stays load/op/store unless the IR already carries
  an ``atomicrmw`` (inserted by Merlin's macro-op fusion pass).
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

from .. import ir
from ..ir import instructions as iri
from ..isa import helpers
from ..isa import opcodes as op
from ..isa.semantics import fits_imm32
from .lowfunc import LowFunction

#: IR binary op -> eBPF ALU op name (register/immediate form chosen
#: later); IR constant propagation folds each op as this one computes
ALU_NAME_BY_BINOP = {
    "add": "add",
    "sub": "sub",
    "mul": "mul",
    "udiv": "div",
    "urem": "mod",
    "and": "and",
    "or": "or",
    "xor": "xor",
    "shl": "lsh",
    "lshr": "rsh",
    "ashr": "arsh",
}

#: icmp predicate -> the eBPF jump that branches when it holds
JUMP_NAME_BY_PREDICATE = {
    "eq": "jeq",
    "ne": "jne",
    "ugt": "jgt",
    "uge": "jge",
    "ult": "jlt",
    "ule": "jle",
    "sgt": "jsgt",
    "sge": "jsge",
    "slt": "jslt",
    "sle": "jsle",
}

#: whole opcodes of the instructions isel emits most (the helpers in
#: ``repro.isa.instruction`` compute the same ones)
_MOV64_X = op.BPF_ALU64 | op.ALU_OP_BY_NAME["mov"] | op.BPF_X
_LD_IMM64 = op.BPF_LD | op.BPF_IMM | op.BPF_DW
_JA = op.BPF_JMP | op.JMP_OP_BY_NAME["ja"]
_CALL = op.BPF_JMP | op.BPF_CALL
_EXIT = op.BPF_JMP | op.BPF_EXIT
_U64 = (1 << 64) - 1


class SelectionError(Exception):
    """Raised when the IR uses a feature the backend does not support."""


def _imm_for(constant: ir.Constant) -> int:
    """The 64-bit pattern an instruction immediate must reproduce.

    Narrow values stay zero-extended in registers, so their immediates
    are the unsigned value; only true 64-bit constants use the signed
    (sign-extending) encoding.
    """
    if constant.type.bits == 64:
        return constant.signed
    return constant.value


class InstructionSelector:
    """Lowers one IR function into a :class:`LowFunction`."""

    def __init__(self, func: ir.Function, module: Optional[ir.Module] = None):
        self.func = func
        self.module = module
        self.low = LowFunction(func.name)
        self.value_reg: Dict[ir.Value, int] = {}
        self.alloca_off: Dict[iri.Alloca, int] = {}
        self.block_label: Dict[ir.BasicBlock, str] = {
            block: f".{func.name}.{block.name}" for block in func.blocks
        }
        self.map_ids: Dict[str, int] = {}
        if module is not None:
            self.map_ids = {name: i + 1 for i, name in enumerate(module.maps)}
        self._dirty_cache: Dict[ir.Value, bool] = {}
        self._label_counter = 0
        self._call_group = 0
        #: append one instruction by its fields: ``(opcode, dst=0,
        #: src=0, off=0, imm=0, target=None, group=None)``
        self._emit = self.low.add

    # ------------------------------------------------------------------ api
    def run(self) -> LowFunction:
        self._lower_arguments()
        order = self._rpo_order()
        for index, block in enumerate(order):
            self.low.label(self.block_label[block])
            next_block = order[index + 1] if index + 1 < len(order) else None
            self._lower_block(block, next_block)
        return self.low

    def _rpo_order(self) -> List[ir.BasicBlock]:
        """Reverse post-order over the CFG.

        A block's dominators always precede it in RPO, so every SSA
        value is lowered (and assigned a vreg) before any use — the
        function's textual block order carries no such guarantee once
        inlined continuations are involved.
        """
        visited: set = set()
        postorder: List[ir.BasicBlock] = []

        def visit(block: ir.BasicBlock) -> None:
            stack = [(block, iter(block.successors()))]
            visited.add(block)
            while stack:
                current, successors = stack[-1]
                advanced = False
                for succ in successors:
                    if succ not in visited:
                        visited.add(succ)
                        stack.append((succ, iter(succ.successors())))
                        advanced = True
                        break
                if not advanced:
                    postorder.append(current)
                    stack.pop()

        visit(self.func.entry)
        order = list(reversed(postorder))
        # keep any unreachable blocks at the end (they still emit code)
        order.extend(b for b in self.func.blocks if b not in visited)
        return order

    # --------------------------------------------------------------- helpers
    def _fresh_label(self, hint: str) -> str:
        self._label_counter += 1
        return f".{self.func.name}.{hint}{self._label_counter}"

    # Each emitter records the fields of the Instruction that the
    # ``repro.isa.instruction`` helper it names would build;
    # ``resolve_labels`` builds each Instruction once, after register
    # allocation.

    def _mov(self, dst: int, src: int, group: Optional[int] = None) -> None:
        """``mov64_reg``."""
        self._emit(_MOV64_X, dst, src, group=group)

    def _alu(self, name: str, dst: int, src: Optional[int] = None,
             imm: int = 0) -> None:
        """``alu64``: the register form when *src* is given."""
        code = op.BPF_ALU64 | op.ALU_OP_BY_NAME[name]
        if src is None:
            self._emit(code | op.BPF_K, dst, imm=imm)
        else:
            self._emit(code | op.BPF_X, dst, src)

    def _ld_imm64(self, dst: int, imm: int, src: int = 0) -> None:
        """``ld_imm64``."""
        self._emit(_LD_IMM64, dst, src, imm=imm & _U64)

    def _load(self, size: int, dst: int, src: int, off: int) -> None:
        """``load``."""
        self._emit(op.BPF_LDX | op.BYTES_SIZE[size] | op.BPF_MEM, dst, src,
                   off)

    def _store_reg(self, size: int, dst: int, off: int, src: int) -> None:
        """``store_reg``."""
        self._emit(op.BPF_STX | op.BYTES_SIZE[size] | op.BPF_MEM, dst, src,
                   off)

    def _atomic(self, size: int, atomic_op: int, dst: int, off: int,
                src: int) -> None:
        """``atomic``."""
        self._emit(op.BPF_STX | op.BYTES_SIZE[size] | op.BPF_ATOMIC, dst,
                   src, off, atomic_op)

    def _jump(self, name: str, dst: int, target: str,
              src: Optional[int] = None, imm: int = 0) -> None:
        """``jump``, conditional, to the label *target*."""
        code = op.BPF_JMP | op.JMP_OP_BY_NAME[name]
        if src is None:
            self._emit(code | op.BPF_K, dst, imm=imm, target=target)
        else:
            self._emit(code | op.BPF_X, dst, src, target=target)

    def _vreg_for(self, value: ir.Value) -> int:
        if value not in self.value_reg:
            self.value_reg[value] = self.low.new_vreg()
        return self.value_reg[value]

    def _lower_arguments(self) -> None:
        # eBPF calling convention: arguments arrive in r1..r5
        for arg in self.func.args:
            if arg.index >= len(op.ARG_REGS):
                raise SelectionError("more than 5 arguments")
            if not arg.uses:
                continue
            self._mov(self._vreg_for(arg), op.ARG_REGS[arg.index])

    # --- cleanliness -------------------------------------------------------
    def _is_narrow(self, value: ir.Value) -> bool:
        return isinstance(value.type, ir.IntType) and value.type.bits < 64

    def _is_dirty(self, value: ir.Value) -> bool:
        """True when the 64-bit register holding *value* may carry garbage
        above the value's width.

        Depth first over the operands that decide it, short-circuiting
        as ``and``/``or`` do, on an explicit stack: a chain of thousands
        of phis is far past Python's recursion limit.  A value still
        being computed reads as dirty, which breaks phi cycles
        pessimistically; every answer is cached, that one included.
        """
        stack: List[Tuple[ir.Value, Iterator[ir.Value], bool]] = []
        result = self._start_dirty(value, stack)
        while stack:
            node, operands, stop = stack[-1]
            if result is not stop:
                operand = next(operands, None)
                if operand is not None:
                    result = self._start_dirty(operand, stack)
                    continue
                result = not stop
            stack.pop()
            self._dirty_cache[node] = result
        return result

    def _start_dirty(self, value: ir.Value, stack: list) -> Optional[bool]:
        """*value*'s answer when no operand decides it; otherwise None,
        after pushing (value, the operands that decide it, the operand
        answer that decides it at once)."""
        if not self._is_narrow(value):
            return False
        cache = self._dirty_cache
        known = cache.get(value)
        if known is not None:
            return known
        cache[value] = True  # breaks phi cycles pessimistically
        rule = self._dirty_rule(value)
        if rule is True or rule is False:
            cache[value] = rule
            return rule
        operands, stop = rule
        stack.append((value, iter(operands), stop))
        return None

    @staticmethod
    def _dirty_rule(value: ir.Value):
        """*value*'s answer, or (operands, stop): dirty when one operand
        is (stop True) or when every operand is (stop False)."""
        if isinstance(value, (ir.Constant, ir.Argument)):
            return False
        if isinstance(value, iri.Load):
            return False  # hardware loads zero-extend
        if isinstance(value, iri.Call):
            return False  # helpers return zero-extended values
        if isinstance(value, iri.ICmp):
            return False
        if isinstance(value, iri.Cast):
            if value.opcode == "zext":
                return False
            if value.opcode == "trunc":
                return True
            return [value.value], True
        if isinstance(value, iri.BinaryOp):
            if value.opcode == "and":
                # AND with a zero-extended operand clears the upper bits
                return [value.lhs, value.rhs], False
            if value.opcode in ("or", "xor"):
                return [value.lhs, value.rhs], True
            if value.opcode in ("lshr", "udiv", "urem"):
                # our lowering cleans the operands first, so these always
                # produce zero-extended results
                return False
            return True  # add/sub/mul/shl results may overflow the width
        if isinstance(value, iri.Select):
            return value.operands[1:3], True
        if isinstance(value, iri.Phi):
            return [v for v, _ in value.incoming()], True
        return True

    def _emit_zero_extend(self, reg: int, bits: int) -> None:
        """Clear bits above *bits* using the canonical shl/shr pair."""
        shift = 64 - bits
        self._alu("lsh", reg, imm=shift)
        self._alu("rsh", reg, imm=shift)

    def _emit_sign_extend(self, reg: int, bits: int) -> None:
        shift = 64 - bits
        self._alu("lsh", reg, imm=shift)
        self._alu("arsh", reg, imm=shift)

    def _clean_reg(self, value: ir.Value, signed: bool = False) -> int:
        """Register holding *value* with exact (zero/sign-extended) bits."""
        reg = self.reg_of(value)
        if not self._is_narrow(value):
            return reg
        if signed:
            fresh = self._copy_to_fresh(reg)
            self._emit_sign_extend(fresh, value.type.bits)
            return fresh
        if not self._is_dirty(value):
            return reg
        fresh = self._copy_to_fresh(reg)
        self._emit_zero_extend(fresh, value.type.bits)
        return fresh

    def _copy_to_fresh(self, reg: int) -> int:
        fresh = self.low.new_vreg()
        self._mov(fresh, reg)
        return fresh

    # --- materialization -------------------------------------------------
    def _materialize_const(self, value: int, bits: int) -> int:
        """Load an integer constant into a fresh vreg.

        Narrow constants are kept zero-extended.  ``mov64_imm``
        sign-extends its 32-bit immediate, so any desired 64-bit pattern
        outside the signed-32 range needs the two-slot ``ld_imm64`` —
        this is why masks like ``0xf0000000`` cost two slots in Fig. 9.
        """
        reg = self.low.new_vreg()
        desired = value & ((1 << max(bits, 1)) - 1) if bits < 64 else value
        signed64 = desired - (1 << 64) if desired >> 63 else desired
        if fits_imm32(signed64):
            self._alu("mov", reg, imm=signed64)
        else:
            self._ld_imm64(reg, desired)
        return reg

    def reg_of(self, value: ir.Value) -> int:
        """Register (virtual or physical) currently holding *value*."""
        if isinstance(value, ir.Constant):
            return self._materialize_const(value.value, value.type.bits)
        if isinstance(value, ir.GlobalSymbol):
            reg = self.low.new_vreg()
            map_id = self.map_ids.get(value.name, 0)
            self._ld_imm64(reg, map_id, src=helpers.BPF_PSEUDO_MAP_FD)
            return reg
        if isinstance(value, iri.Alloca):
            reg = self.low.new_vreg()
            self._mov(reg, op.FP)
            self._alu("add", reg, imm=self.alloca_off[value])
            return reg
        if isinstance(value, iri.Gep):
            return self._materialize_gep(value)
        if value in self.value_reg:
            return self.value_reg[value]
        raise SelectionError(f"value %{value.name} has no register (use before def?)")

    def _materialize_gep(self, gep: iri.Gep) -> int:
        base, const_off = self.resolve_address(gep)
        reg = self.low.new_vreg()
        self._mov(reg, base)
        if const_off:
            self._alu("add", reg, imm=const_off)
        return reg

    def resolve_address(self, ptr: ir.Value) -> Tuple[int, int]:
        """Fold chains of constant-offset GEPs (and bitcasts):
        -> (base_reg, const_off)."""
        current, offset = ir.fold_address(ptr)
        if isinstance(current, iri.Alloca):
            return op.FP, self.alloca_off[current] + offset
        if isinstance(current, iri.Gep):
            # variable-offset gep: compute base + dynamic offset
            inner_base, inner_off = self.resolve_address(current.ptr)
            reg = self.low.new_vreg()
            self._mov(reg, inner_base)
            if inner_off:
                self._alu("add", reg, imm=inner_off)
            dyn = self._clean_reg(current.offset)
            self._alu("add", reg, src=dyn)
            return reg, offset
        return self.reg_of(current), offset

    # ----------------------------------------------------------- block body
    def _lower_block(self, block: ir.BasicBlock, next_block: Optional[ir.BasicBlock]) -> None:
        for instruction in block.instructions:
            if isinstance(instruction, iri.Alloca):
                if instruction not in self.alloca_off:
                    size = instruction.allocated.size_bytes
                    self.alloca_off[instruction] = self.low.alloc_stack(
                        max(size, 1), max(instruction.align, 1)
                    )
                continue
            if isinstance(instruction, iri.Phi):
                self._vreg_for(instruction)  # reserve; copies happen on edges
                continue
            if instruction.is_terminator:
                self._lower_terminator(block, instruction, next_block)
            else:
                self._lower_instruction(instruction)

    def _lower_instruction(self, instruction: iri.IRInstruction) -> None:
        if isinstance(instruction, iri.BinaryOp):
            self._lower_binop(instruction)
        elif isinstance(instruction, iri.ICmp):
            if self._icmp_fused(instruction):
                return
            self._lower_icmp_value(instruction)
        elif isinstance(instruction, iri.Load):
            self._lower_load(instruction)
        elif isinstance(instruction, iri.Store):
            self._lower_store(instruction)
        elif isinstance(instruction, iri.AtomicRMW):
            self._lower_atomicrmw(instruction)
        elif isinstance(instruction, iri.Cast):
            self._lower_cast(instruction)
        elif isinstance(instruction, iri.Gep):
            pass  # folded into users; materialized lazily by reg_of
        elif isinstance(instruction, iri.Select):
            self._lower_select(instruction)
        elif isinstance(instruction, iri.Call):
            self._lower_call(instruction)
        else:
            raise SelectionError(f"cannot lower {instruction.render()}")

    # --- arithmetic ----------------------------------------------------------
    def _lower_binop(self, instruction: iri.BinaryOp) -> None:
        opname = instruction.opcode
        if opname in ("sdiv", "srem"):
            raise SelectionError("eBPF has no signed division")
        bits = instruction.type.bits if isinstance(instruction.type, ir.IntType) else 64

        if opname == "lshr" and bits == 32 and isinstance(instruction.rhs, ir.Constant):
            self._lower_lshr32_imm(instruction)
            return

        lhs, rhs = instruction.lhs, instruction.rhs
        if opname in ("udiv", "urem", "lshr"):
            lhs_reg = self._clean_reg(lhs)
        elif opname == "ashr":
            lhs_reg = self._clean_reg(lhs, signed=True)
        else:
            lhs_reg = self.reg_of(lhs)

        dst = self._vreg_for(instruction)
        self._mov(dst, lhs_reg)
        name = ALU_NAME_BY_BINOP[opname]
        if isinstance(rhs, ir.Constant) and fits_imm32(_imm_for(rhs)):
            self._alu(name, dst, imm=_imm_for(rhs))
        else:
            if opname in ("udiv", "urem") and self._is_narrow(rhs):
                rhs_reg = self._clean_reg(rhs)
            else:
                rhs_reg = self.reg_of(rhs)
            self._alu(name, dst, src=rhs_reg)

    def _lower_lshr32_imm(self, instruction: iri.BinaryOp) -> None:
        """``lshr i32 x, k``: the Fig. 9 masked-shift pattern when the
        source register may hold garbage in the upper half."""
        k = instruction.rhs.signed  # type: ignore[union-attr]
        dst = self._vreg_for(instruction)
        src = self.reg_of(instruction.lhs)
        if not self._is_dirty(instruction.lhs):
            self._mov(dst, src)
            if k:
                self._alu("rsh", dst, imm=k)
            return
        mask = (0xFFFFFFFF << k) & 0xFFFFFFFF
        mask_reg = self.low.new_vreg()
        self._ld_imm64(mask_reg, mask)
        self._mov(dst, src)
        self._alu("and", dst, src=mask_reg)
        if k:
            self._alu("rsh", dst, imm=k)

    # --- comparisons ----------------------------------------------------------
    def _icmp_fused(self, instruction: iri.ICmp) -> bool:
        """True when the compare will be folded into its single CondBr use."""
        if len(instruction.uses) != 1:
            return False
        user = instruction.uses[0]
        return isinstance(user, iri.CondBr) and user.parent is instruction.parent

    def _lower_icmp_value(self, instruction: iri.ICmp) -> None:
        """Materialize a compare into 0/1."""
        dst = self._vreg_for(instruction)
        lhs_reg, rhs_operand = self._compare_operands(instruction)
        self._alu("mov", dst, imm=1)
        label = self._fresh_label("cset")
        self._emit_compare_jump(instruction.predicate, lhs_reg, rhs_operand, label)
        self._alu("mov", dst, imm=0)
        self.low.label(label)

    def _compare_operands(self, instruction: iri.ICmp):
        signed = instruction.predicate in ("sgt", "sge", "slt", "sle")
        lhs_reg = self._clean_reg(instruction.lhs, signed=signed)
        rhs = instruction.rhs
        if isinstance(rhs, ir.Constant):
            imm = rhs.signed if signed else _imm_for(rhs)
            if fits_imm32(imm):
                return lhs_reg, imm
        return lhs_reg, ("reg", self._clean_reg(rhs, signed=signed))

    def _emit_compare_jump(self, predicate: str, lhs_reg: int, rhs_operand,
                           label: str) -> None:
        name = JUMP_NAME_BY_PREDICATE[predicate]
        if isinstance(rhs_operand, tuple):
            self._jump(name, lhs_reg, label, src=rhs_operand[1])
        else:
            self._jump(name, lhs_reg, label, imm=rhs_operand)

    # --- memory -------------------------------------------------------------------
    def _lower_load(self, instruction: iri.Load) -> None:
        size = instruction.type.size_bytes
        base, off = self.resolve_address(instruction.ptr)
        dst = self._vreg_for(instruction)
        align = max(1, instruction.align)
        if align >= size or size == 1:
            self._load(size, dst, base, off)
            return
        # decompose: unit-width loads assembled with shl/or (paper Fig. 6)
        unit = min(align, size)
        chunks = size // unit
        self._load(unit, dst, base, off)
        for i in range(1, chunks):
            part = self.low.new_vreg()
            self._load(unit, part, base, off + i * unit)
            self._alu("lsh", part, imm=8 * unit * i)
            self._alu("or", dst, src=part)

    def _lower_store(self, instruction: iri.Store) -> None:
        size = instruction.value.type.size_bytes
        base, off = self.resolve_address(instruction.ptr)
        align = max(1, instruction.align)
        value_reg = self.reg_of(instruction.value)  # constants materialize here
        if align >= size or size == 1:
            self._store_reg(size, base, off, value_reg)
            return
        unit = min(align, size)
        chunks = size // unit
        self._store_reg(unit, base, off, value_reg)
        for i in range(1, chunks):
            part = self.low.new_vreg()
            self._mov(part, value_reg)
            self._alu("rsh", part, imm=8 * unit * i)
            self._store_reg(unit, base, off + i * unit, part)

    def _lower_atomicrmw(self, instruction: iri.AtomicRMW) -> None:
        size = instruction.type.size_bytes
        if size not in (4, 8):
            raise SelectionError("atomicrmw must be 32- or 64-bit")
        base, off = self.resolve_address(instruction.ptr)
        value_reg = self.reg_of(instruction.value)
        atomic_ops = {
            "add": op.BPF_ATOMIC_ADD,
            "and": op.BPF_ATOMIC_AND,
            "or": op.BPF_ATOMIC_OR,
            "xor": op.BPF_ATOMIC_XOR,
        }
        if instruction.rmw_op == "xchg":
            dst = self._vreg_for(instruction)
            self._mov(dst, value_reg)
            self._atomic(size, op.BPF_XCHG, base, off, dst)
            return
        if instruction.rmw_op == "sub":
            neg = self._copy_to_fresh(value_reg)
            self._alu("neg", neg)
            value_reg, rmw = neg, op.BPF_ATOMIC_ADD
        else:
            rmw = atomic_ops[instruction.rmw_op]
        if instruction.uses:
            # old value observed: fetch variant writes it into src reg
            dst = self._vreg_for(instruction)
            self._mov(dst, value_reg)
            self._atomic(size, rmw | op.BPF_FETCH, base, off, dst)
        else:
            self._atomic(size, rmw, base, off, value_reg)

    # --- casts -----------------------------------------------------------------
    def _lower_cast(self, instruction: iri.Cast) -> None:
        source = instruction.value
        dst = self._vreg_for(instruction)
        src_reg = self.reg_of(source)
        self._mov(dst, src_reg)
        if instruction.opcode == "zext" and self._is_narrow(source) and \
                self._is_dirty(source):
            self._emit_zero_extend(dst, source.type.bits)
        elif instruction.opcode == "sext" and self._is_narrow(source):
            self._emit_sign_extend(dst, source.type.bits)
        # trunc / ptrtoint / inttoptr / bitcast: pure register copies

    def _lower_select(self, instruction: iri.Select) -> None:
        dst = self._vreg_for(instruction)
        true_reg = self.reg_of(instruction.operands[1])
        self._mov(dst, true_reg)
        label = self._fresh_label("sel")
        cond = instruction.cond
        if isinstance(cond, iri.ICmp) and len(cond.uses) == 1:
            lhs_reg, rhs_operand = self._compare_operands(cond)
            self._emit_compare_jump(cond.predicate, lhs_reg, rhs_operand, label)
        else:
            cond_reg = self.reg_of(cond)
            self._jump("jne", cond_reg, label, imm=0)
        false_reg = self.reg_of(instruction.operands[2])
        self._mov(dst, false_reg)
        self.low.label(label)

    # --- calls -----------------------------------------------------------------
    def _lower_call(self, instruction: iri.Call) -> None:
        if instruction.callee not in helpers.HELPER_IDS:
            raise SelectionError(f"unknown helper {instruction.callee!r}")
        if len(instruction.operands) > len(op.ARG_REGS):
            raise SelectionError("helper calls take at most 5 arguments")
        self._call_group += 1
        group = self._call_group
        arg_regs = []
        for arg in instruction.operands:
            arg_regs.append(self.reg_of(arg))
        for i, reg in enumerate(arg_regs):
            self._mov(op.ARG_REGS[i], reg, group=group)
        self._emit(_CALL, imm=helpers.HELPER_IDS[instruction.callee],
                   group=group)
        if not instruction.type.is_void:
            self._mov(self._vreg_for(instruction), op.R0)

    # --- control flow ---------------------------------------------------------------
    def _lower_terminator(self, block: ir.BasicBlock, term: iri.IRInstruction,
                          next_block: Optional[ir.BasicBlock]) -> None:
        if isinstance(term, iri.Ret):
            if term.value is not None:
                self._mov(op.R0, self.reg_of(term.value))
            self._emit(_EXIT)
            return
        if isinstance(term, iri.Br):
            self._emit_edge(block, term.target, fallthrough=term.target is next_block)
            return
        if isinstance(term, iri.CondBr):
            self._lower_condbr(block, term, next_block)
            return
        if isinstance(term, iri.Unreachable):
            self._emit(_EXIT)
            return
        raise SelectionError(f"unknown terminator {term.render()}")

    def _lower_condbr(self, block: ir.BasicBlock, term: iri.CondBr,
                      next_block: Optional[ir.BasicBlock]) -> None:
        true_blk, false_blk = term.if_true, term.if_false
        true_needs_copies = bool(true_blk.phis())
        if true_needs_copies:
            true_label = self._fresh_label("edge")
        else:
            true_label = self.block_label[true_blk]

        cond = term.cond
        if isinstance(cond, iri.ICmp) and self._icmp_fused(cond):
            lhs_reg, rhs_operand = self._compare_operands(cond)
            self._emit_compare_jump(cond.predicate, lhs_reg, rhs_operand, true_label)
        else:
            cond_reg = self.reg_of(cond)
            self._jump("jne", cond_reg, true_label, imm=0)

        # false edge falls through here
        self._emit_edge(block, false_blk, fallthrough=false_blk is next_block
                        and not true_needs_copies)
        if true_needs_copies:
            self.low.label(true_label)
            self._emit_edge(block, true_blk, fallthrough=False)

    def _emit_edge(self, pred: ir.BasicBlock, succ: ir.BasicBlock,
                   fallthrough: bool) -> None:
        """Phi copies for edge pred->succ, then a jump unless falling through."""
        copies: List[Tuple[int, int]] = []
        for phi in succ.phis():
            value = phi.incoming_for(pred)
            copies.append((self.reg_of(value), self._vreg_for(phi)))
        self._sequence_copies(copies)
        if not fallthrough:
            self._emit(_JA, target=self.block_label[succ])

    def _sequence_copies(self, copies: List[Tuple[int, int]]) -> None:
        """Emit a parallel copy set as moves, breaking cycles via a temp."""
        pending = [(src, dst) for src, dst in copies if src != dst]
        while pending:
            # a copy is safe when its dst is not read by another pending copy
            safe = [
                (src, dst)
                for src, dst in pending
                if not any(o_src == dst for o_src, o_dst in pending
                           if (o_src, o_dst) != (src, dst))
            ]
            if safe:
                for src, dst in safe:
                    self._mov(dst, src)
                    pending.remove((src, dst))
            else:
                # cycle: rotate the first copy through a temporary
                src, dst = pending[0]
                temp = self.low.new_vreg()
                self._mov(temp, src)
                pending[0] = (temp, dst)


def select(func: ir.Function, module: Optional[ir.Module] = None) -> LowFunction:
    """Convenience wrapper: lower *func* to a :class:`LowFunction`."""
    return InstructionSelector(func, module).run()
