"""The eBPF verifier model: symbolic path exploration with pruning.

Follows the algorithm documented in Documentation/bpf/verifier.rst: walk
every path from the first instruction simulating the effect of each
instruction on an abstract state; at branch targets compare against
stored states and prune when an already-verified state subsumes the new
one.  Reports the paper's metrics: NPI (number of processed
instructions), peak/total states, and a modelled verification time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..isa import BpfProgram, Instruction
from ..isa import opcodes as op
from ..isa.cfg import Cfg, expand_slots
from ..isa.helpers import BPF_PSEUDO_MAP_FD, HELPER_NAMES
from .kernels import DEFAULT_KERNEL, KernelConfig
from .state import POINTER_TYPES, RegState, RegType, SlotKind, StackSlot, VerifierState
from .tnum import Tnum

_U64 = (1 << 64) - 1
_U32 = (1 << 32) - 1
_CALLER_SAVED_MASK = sum(1 << reg for reg in op.CALLER_SAVED)


class VerificationError(Exception):
    """Raised internally when a path violates a safety rule."""

    def __init__(self, pc: int, reason: str):
        super().__init__(f"at insn {pc}: {reason}")
        self.pc = pc
        self.reason = reason


@dataclass
class VerificationResult:
    ok: bool
    npi: int = 0
    peak_states: int = 0
    total_states: int = 0
    pruned: int = 0
    reason: str = ""
    verification_time_ns: float = 0.0

    def __bool__(self) -> bool:  # pragma: no cover - convenience
        return self.ok


# offsets of the packet pointers in our xdp_md layout
XDP_DATA_OFF = 0
XDP_DATA_END_OFF = 8


class Verifier:
    """Verifies one program against one kernel configuration."""

    def __init__(self, program: BpfProgram, config: KernelConfig = DEFAULT_KERNEL):
        self.program = program
        self.config = config
        self.slots = expand_slots(program.insns)
        self.map_specs = list(program.maps.values())
        self.npi = 0
        self.total_states = 0
        self.peak_states = 0
        self.pruned = 0
        self.visited: Dict[int, List[VerifierState]] = {}
        cfg = Cfg(program.insns)
        slot_of = program.slot_offsets()
        #: slots some jump lands on, and those a backward jump lands on
        self.branch_targets = set()
        self.backedge_targets = set()
        for insn, target in zip(program.insns, cfg.targets):
            if target is not None and 0 <= target < len(slot_of):
                self.branch_targets.add(slot_of[target])
                if insn.off < 0:
                    self.backedge_targets.add(slot_of[target])
        self._next_ref = 0
        self.critical_live = self._solve_critical_liveness(cfg, slot_of)

    #: helper id -> registers whose (size) bounds the helper checks
    _HELPER_SIZE_ARGS = {
        "probe_read": (op.R2,),
        "probe_read_str": (op.R2,),
        "get_current_comm": (op.R2,),
        "fib_lookup": (op.R3,),
        "perf_event_output": (op.R5,),
        "ringbuf_output": (op.R3,),
        "csum_diff": (op.R2, op.R4),
    }

    def _solve_critical_liveness(self, cfg: Cfg,
                                 slot_of: List[int]) -> List[int]:
        """Per-slot masks of the registers whose scalar *bounds* may
        still feed a safety decision (variable pointer arithmetic or a
        helper size argument) before being overwritten.

        This approximates the kernel's precision tracking
        (``mark_chain_precision``): during state comparison only these
        registers are compared precisely; every other scalar matches any
        scalar, which is what keeps path exploration polynomial on
        programs with value-divergent accumulator registers.
        """
        insns, first, last = cfg.insns, cfg.first, cfg.last
        rule = self._critical_in

        def transfer(b: int, live: int) -> int:
            for index in range(last[b], first[b] - 1, -1):
                live = rule(insns[index], live)
            return live

        live_out = cfg.solve(transfer)
        critical = [0] * len(self.slots)
        for b, live in enumerate(live_out):
            for index in range(last[b], first[b] - 1, -1):
                live = rule(insns[index], live)
                critical[slot_of[index]] = live
        return critical

    @classmethod
    def _critical_in(cls, insn: Instruction, live: int) -> int:
        """Backward transfer of the critical mask over one instruction:
        a def kills; a critical def makes its sources critical; ALU64
        add/sub by register and helper size arguments become critical."""
        opcode = insn.opcode
        if op.IS_CALL[opcode]:
            live &= ~_CALLER_SAVED_MASK
            name = HELPER_NAMES.get(insn.imm, "")
            for reg in cls._HELPER_SIZE_ARGS.get(name, ()):
                live |= 1 << reg
            return live
        if op.IS_LD_IMM64[opcode] or op.IS_LOAD[opcode]:
            return live & ~(1 << insn.dst)
        if not op.IS_ALU[opcode]:
            return live
        aop = op.OP_CODE[opcode]
        by_reg = not op.USES_IMM[opcode]
        dst = 1 << insn.dst
        if aop == op.BPF_MOV:
            if by_reg and live & dst:
                return (live & ~dst) | (1 << insn.src)
            return live & ~dst
        # variable pointer arithmetic: both operands' bounds matter
        if by_reg and op.IS_ALU64[opcode] and aop in (op.BPF_ADD, op.BPF_SUB):
            return live | dst | (1 << insn.src)
        if by_reg and live & dst and aop not in (op.BPF_NEG, op.BPF_END):
            return live | (1 << insn.src)
        return live

    # ------------------------------------------------------------------ api
    def verify(self) -> VerificationResult:
        if self.program.ni > self.config.max_insns:
            return VerificationResult(
                ok=False,
                reason=f"program too large: {self.program.ni} insns > "
                f"{self.config.max_insns}",
            )
        if not self.config.supports_v3 and self._uses_v3():
            return VerificationResult(
                ok=False,
                reason=f"kernel {self.config.version} rejects ALU32/JMP32 "
                "instructions",
            )
        worklist: List[Tuple[int, VerifierState]] = [(0, VerifierState())]
        self.total_states = 1
        try:
            while worklist:
                self.peak_states = max(
                    self.peak_states, len(worklist) + sum(
                        len(v) for v in self.visited.values()
                    )
                )
                pc, state = worklist.pop()
                self._walk_path(pc, state, worklist)
        except VerificationError as exc:
            return self._result(False, str(exc))
        return self._result(True, "")

    def _result(self, ok: bool, reason: str) -> VerificationResult:
        time_ns = (
            self.npi * self.config.ns_per_insn
            + self.total_states * self.config.ns_per_state
        )
        return VerificationResult(
            ok=ok,
            npi=self.npi,
            peak_states=self.peak_states,
            total_states=self.total_states,
            pruned=self.pruned,
            reason=reason,
            verification_time_ns=time_ns,
        )

    def _uses_v3(self) -> bool:
        return any(
            insn.insn_class in (op.BPF_ALU, op.BPF_JMP32)
            and insn.alu_op != op.BPF_END
            for insn in self.program.insns
        )

    # ----------------------------------------------------------------- walk
    def _walk_path(
        self, pc: int, state: VerifierState,
        worklist: List[Tuple[int, VerifierState]],
    ) -> None:
        since_stored = 0
        while True:
            if pc < 0 or pc >= len(self.slots):
                raise VerificationError(pc, "jump out of program bounds")
            insn = self.slots[pc]
            if insn is None:
                raise VerificationError(pc, "jump into the middle of ld_imm64")

            store_here = (
                pc in self.branch_targets and self.config.prune_at_branch_targets
            ) or since_stored >= self.config.state_store_interval
            if store_here:
                since_stored = 0
                stored = self.visited.setdefault(pc, [])
                # loop headers compare precisely (the kernel re-derives
                # precision along back-edges): an infinite loop then
                # keeps producing fresh states until the NPI limit trips
                # instead of being pruned "safe"
                critical = (
                    None if pc in self.backedge_targets
                    else self.critical_live[pc]
                )
                if any(old.subsumes(state, critical) for old in stored):
                    self.pruned += 1
                    return
                stored.append(state.copy())
                if len(stored) > 32:
                    # bound the comparison list like the kernel's
                    # sl->miss_cnt-based eviction: drop the oldest state
                    stored.pop(0)
                self.total_states += 1
                self.peak_states = max(
                    self.peak_states,
                    len(worklist) + sum(len(v) for v in self.visited.values()),
                )
            since_stored += 1

            self.npi += 1
            if self.npi > self.config.max_processed:
                raise VerificationError(
                    pc,
                    f"BPF program is too large: processed "
                    f"{self.npi} insns (limit {self.config.max_processed})",
                )

            cls = insn.insn_class
            if insn.is_exit:
                self._check_exit(pc, state)
                return
            if insn.is_call:
                self._do_call(pc, insn, state)
                pc += 1
                continue
            if cls in (op.BPF_JMP, op.BPF_JMP32):
                if insn.jmp_op == op.BPF_JA:
                    pc = pc + 1 + insn.off
                    continue
                outcome = self._branch(pc, insn, state)
                taken_state, fallthrough_state = outcome
                target = pc + 1 + insn.off
                if taken_state is not None and fallthrough_state is not None:
                    worklist.append((target, taken_state))
                    self.total_states += 1
                    state = fallthrough_state
                    pc += 1
                elif taken_state is not None:
                    state = taken_state
                    pc = target
                elif fallthrough_state is not None:
                    state = fallthrough_state
                    pc += 1
                else:  # pragma: no cover - defensive
                    return
                continue
            if insn.is_ld_imm64:
                self._do_ld_imm64(insn, state)
                pc += 2
                continue
            if insn.is_alu:
                self._do_alu(pc, insn, state)
                pc += 1
                continue
            if insn.is_memory:
                self._do_memory(pc, insn, state)
                pc += 1
                continue
            raise VerificationError(pc, f"unknown opcode {insn.opcode:#x}")

    # --------------------------------------------------------------- pieces
    def _check_exit(self, pc: int, state: VerifierState) -> None:
        r0 = state.regs[op.R0]
        if r0.type == RegType.NOT_INIT:
            raise VerificationError(pc, "R0 !read_ok: returning uninitialized")
        if r0.is_pointer and r0.type != RegType.PTR_TO_MAP_VALUE_OR_NULL:
            raise VerificationError(pc, "returning pointer value from program")

    def _reg(self, pc: int, state: VerifierState, reg: int,
             allow_uninit: bool = False) -> RegState:
        if reg > op.R10:
            raise VerificationError(pc, f"invalid register r{reg}")
        value = state.regs[reg]
        if value.type == RegType.NOT_INIT and not allow_uninit:
            raise VerificationError(pc, f"R{reg} !read_ok (uninitialized)")
        return value

    def _do_ld_imm64(self, insn: Instruction, state: VerifierState) -> None:
        if insn.src == BPF_PSEUDO_MAP_FD or (
            self.map_specs and 1 <= insn.imm <= len(self.map_specs)
        ):
            map_id = insn.imm
            if 1 <= map_id <= len(self.map_specs):
                spec = self.map_specs[map_id - 1]
                state.regs[insn.dst] = RegState.pointer(
                    RegType.CONST_MAP_PTR,
                    map_id=map_id,
                    value_size=spec.value_size,
                )
                return
        state.regs[insn.dst] = RegState.const(insn.imm & _U64)

    # --- ALU -------------------------------------------------------------------
    def _do_alu(self, pc: int, insn: Instruction, state: VerifierState) -> None:
        is32 = insn.is_alu32
        aop = insn.alu_op
        dst_reg = insn.dst
        if dst_reg == op.R10:
            raise VerificationError(pc, "frame pointer is read only")

        if aop == op.BPF_END:
            value = self._reg(pc, state, dst_reg)
            state.regs[dst_reg] = RegState.scalar()
            return

        if aop == op.BPF_MOV:
            if insn.uses_imm:
                imm = insn.imm & (_U32 if is32 else _U64)
                state.regs[dst_reg] = RegState.const(imm)
            else:
                src = self._reg(pc, state, insn.src)
                if is32:
                    state.regs[dst_reg] = self._cast32(src)
                else:
                    state.regs[dst_reg] = src
            return

        dst = self._reg(pc, state, dst_reg)
        if aop == op.BPF_NEG:
            if dst.is_pointer:
                raise VerificationError(pc, "pointer arithmetic: neg on pointer")
            state.regs[dst_reg] = self._clamp32(RegState.scalar(), is32)
            return

        if insn.uses_imm:
            src = RegState.const(insn.imm & (_U32 if is32 else _U64))
        else:
            src = self._reg(pc, state, insn.src)

        if dst.is_pointer or src.is_pointer:
            state.regs[dst_reg] = self._pointer_alu(pc, insn, dst, src, is32)
            return

        if is32 and not self.config.alu32_precise:
            # pre-5.13 kernels lose bounds through 32-bit ALU
            state.regs[dst_reg] = RegState.scalar(
                Tnum.range(0, _U32), umin=0, umax=_U32
            )
            return
        state.regs[dst_reg] = self._clamp32(self._scalar_alu(aop, dst, src), is32)

    @staticmethod
    def _cast32(src: RegState) -> RegState:
        if src.is_pointer:
            return RegState.scalar(Tnum.range(0, _U32), umin=0, umax=_U32)
        t = src.tnum.cast(4)
        return RegState.scalar(t, umin=t.umin, umax=min(t.umax, _U32))

    @staticmethod
    def _clamp32(reg: RegState, is32: bool) -> RegState:
        if not is32 or not reg.is_scalar:
            return reg
        t = reg.tnum.cast(4)
        return RegState.scalar(t, umin=t.umin, umax=min(t.umax, _U32))

    def _scalar_alu(self, aop: int, dst: RegState, src: RegState) -> RegState:
        t1, t2 = dst.tnum, src.tnum
        if aop == op.BPF_ADD:
            tnum = t1.add(t2)
            if dst.umax + src.umax <= _U64:
                return RegState.scalar(tnum, dst.umin + src.umin,
                                       dst.umax + src.umax)
            return RegState.scalar(tnum)
        if aop == op.BPF_SUB:
            tnum = t1.sub(t2)
            if dst.umin >= src.umax:
                return RegState.scalar(tnum, dst.umin - src.umax,
                                       dst.umax - src.umin)
            return RegState.scalar(tnum)
        if aop == op.BPF_MUL:
            tnum = t1.mul(t2)
            if dst.umax * src.umax <= _U64:
                return RegState.scalar(tnum, dst.umin * src.umin,
                                       dst.umax * src.umax)
            return RegState.scalar(tnum)
        if aop == op.BPF_AND:
            tnum = t1.and_(t2)
            return RegState.scalar(tnum, umax=min(dst.umax, src.umax, tnum.umax))
        if aop == op.BPF_OR:
            tnum = t1.or_(t2)
            return RegState.scalar(tnum, umin=max(dst.umin, src.umin, tnum.umin))
        if aop == op.BPF_XOR:
            return RegState.scalar(t1.xor(t2))
        if aop == op.BPF_LSH:
            if t2.is_const:
                shift = t2.value % 64
                tnum = t1.lshift(shift)
                if dst.umax << shift <= _U64:
                    return RegState.scalar(tnum, dst.umin << shift,
                                           dst.umax << shift)
                return RegState.scalar(tnum)
            return RegState.scalar()
        if aop == op.BPF_RSH:
            if t2.is_const:
                shift = t2.value % 64
                return RegState.scalar(
                    t1.rshift(shift), dst.umin >> shift, dst.umax >> shift
                )
            return RegState.scalar(umax=dst.umax)
        if aop == op.BPF_ARSH:
            if t2.is_const:
                return RegState.scalar(t1.arshift(t2.value % 64))
            return RegState.scalar()
        if aop == op.BPF_DIV:
            return RegState.scalar(umax=dst.umax)
        if aop == op.BPF_MOD:
            if t2.is_const and t2.value:
                return RegState.scalar(umax=t2.value - 1)
            return RegState.scalar(umax=max(dst.umax, src.umax))
        return RegState.scalar()

    def _pointer_alu(self, pc: int, insn: Instruction, dst: RegState,
                     src: RegState, is32: bool) -> RegState:
        aop = insn.alu_op
        if is32:
            raise VerificationError(pc, "32-bit pointer arithmetic prohibited")
        if dst.is_pointer and src.is_pointer:
            packet_family = {RegType.PTR_TO_PACKET, RegType.PTR_TO_PACKET_END}
            if aop == op.BPF_SUB and (
                dst.type == src.type
                or (dst.type in packet_family and src.type in packet_family)
            ):
                return RegState.scalar()  # pointer difference is a scalar
            raise VerificationError(
                pc, f"pointer arithmetic on two pointers ({dst.type.value}, "
                f"{src.type.value})"
            )
        if src.is_pointer:  # scalar (dst) + pointer: only ADD commutes
            if aop != op.BPF_ADD:
                raise VerificationError(pc, "pointer on rhs of non-add")
            dst, src = src, dst
        if aop not in (op.BPF_ADD, op.BPF_SUB):
            raise VerificationError(
                pc, f"invalid operation on pointer: "
                f"{op.ALU_OP_NAMES[aop]}"
            )
        if dst.type in (RegType.PTR_TO_PACKET_END, RegType.CONST_MAP_PTR):
            raise VerificationError(
                pc, f"arithmetic on {dst.type.value} pointer prohibited"
            )
        if src.is_const:
            delta = src.tnum.value
            if delta >> 63:
                delta -= 1 << 64
            if aop == op.BPF_SUB:
                delta = -delta
            return dst.with_(off=dst.off + delta)
        if aop == op.BPF_SUB:
            raise VerificationError(pc, "variable subtraction from pointer")
        if dst.type not in (RegType.PTR_TO_PACKET, RegType.PTR_TO_MAP_VALUE,
                            RegType.PTR_TO_STACK):
            raise VerificationError(
                pc, f"variable offset on {dst.type.value} pointer"
            )
        if src.umax > (1 << 29):
            raise VerificationError(pc, "unbounded variable offset on pointer")
        return dst.with_(
            umin=dst.umin + src.umin,
            umax=dst.umax + src.umax,
        )

    # --- memory -------------------------------------------------------------------
    def _do_memory(self, pc: int, insn: Instruction, state: VerifierState) -> None:
        if insn.is_atomic:
            base = self._reg(pc, state, insn.dst)
            value = self._reg(pc, state, insn.src)
            if value.is_pointer:
                raise VerificationError(pc, "atomic operand must be scalar")
            self._check_access(pc, state, base, insn.off, insn.size_bytes,
                               write=True)
            self._check_access(pc, state, base, insn.off, insn.size_bytes,
                               write=False)
            if insn.imm & op.BPF_FETCH:
                state.regs[insn.src] = RegState.scalar()
            return
        if insn.is_load:
            base = self._reg(pc, state, insn.src)
            result = self._load_result(pc, state, base, insn)
            state.regs[insn.dst] = result
            return
        # stores
        base = self._reg(pc, state, insn.dst)
        if insn.is_store_imm:
            value: Optional[RegState] = RegState.const(insn.imm & _U64)
        else:
            value = self._reg(pc, state, insn.src)
        if base.type == RegType.PTR_TO_CTX:
            raise VerificationError(pc, "write into ctx prohibited")
        if value is not None and value.is_pointer and base.type != RegType.PTR_TO_STACK:
            raise VerificationError(pc, "leaking pointer to unprivileged memory")
        self._check_access(pc, state, base, insn.off, insn.size_bytes, write=True,
                           stored=value)

    def _load_result(self, pc: int, state: VerifierState, base: RegState,
                     insn: Instruction) -> RegState:
        size = insn.size_bytes
        offset = insn.off
        if base.type == RegType.PTR_TO_CTX:
            self._check_ctx(pc, base, offset, size)
            total = base.off + offset
            if self.program.prog_type.value == "xdp" and size == 8:
                if total == XDP_DATA_OFF:
                    return RegState.pointer(RegType.PTR_TO_PACKET)
                if total == XDP_DATA_END_OFF:
                    return RegState.pointer(RegType.PTR_TO_PACKET_END)
            return RegState.scalar(
                Tnum.range(0, (1 << (size * 8)) - 1),
                umax=(1 << (size * 8)) - 1,
            )
        slot_value = self._check_access(pc, state, base, offset, size, write=False)
        if slot_value is not None:
            return slot_value
        return RegState.scalar(
            Tnum.range(0, (1 << (size * 8)) - 1), umax=(1 << (size * 8)) - 1
        )

    def _check_ctx(self, pc: int, base: RegState, offset: int, size: int) -> None:
        total = base.off + offset
        if total < 0 or total + size > self.program.ctx_size:
            raise VerificationError(
                pc, f"invalid ctx access: off={total} size={size} "
                f"(ctx is {self.program.ctx_size} bytes)"
            )

    def _check_access(
        self,
        pc: int,
        state: VerifierState,
        base: RegState,
        offset: int,
        size: int,
        write: bool,
        stored: Optional[RegState] = None,
    ) -> Optional[RegState]:
        """Bounds/init checks; returns a loaded RegState for stack reads
        of spilled registers."""
        if base.type == RegType.PTR_TO_CTX:
            self._check_ctx(pc, base, offset, size)
            if write:
                raise VerificationError(pc, "write into ctx prohibited")
            return None
        if base.type == RegType.PTR_TO_STACK:
            return self._check_stack(pc, state, base, offset, size, write, stored)
        if base.type == RegType.PTR_TO_PACKET:
            lo = base.off + base.umin + offset
            hi = base.off + base.umax + offset
            if lo < 0:
                raise VerificationError(pc, "packet access before data")
            if hi + size > base.pkt_range:
                raise VerificationError(
                    pc,
                    f"invalid access to packet: off={hi} size={size} "
                    f"range={base.pkt_range} (add a bounds check)",
                )
            return None
        if base.type == RegType.PTR_TO_MAP_VALUE:
            lo = base.off + base.umin + offset
            hi = base.off + base.umax + offset
            if lo < 0 or hi + size > base.value_size:
                raise VerificationError(
                    pc,
                    f"invalid map value access: off={hi} size={size} "
                    f"value_size={base.value_size}",
                )
            return None
        if base.type == RegType.PTR_TO_MAP_VALUE_OR_NULL:
            raise VerificationError(
                pc, "map value pointer used before NULL check"
            )
        if base.type == RegType.PTR_TO_PACKET_END:
            raise VerificationError(pc, "cannot dereference pkt_end pointer")
        raise VerificationError(
            pc, f"R dereference of non-pointer ({base.type.value})"
        )

    def _check_stack(
        self,
        pc: int,
        state: VerifierState,
        base: RegState,
        offset: int,
        size: int,
        write: bool,
        stored: Optional[RegState],
    ) -> Optional[RegState]:
        if base.umax != base.umin:
            raise VerificationError(pc, "variable stack access prohibited")
        total = base.off + offset + base.umin
        if not (-op.STACK_SIZE <= total and total + size <= 0):
            raise VerificationError(
                pc, f"invalid stack access: off={total} size={size}"
            )
        if total % size:
            raise VerificationError(
                pc, f"misaligned stack access: off={total} size={size}"
            )
        if write:
            if stored is not None and stored.is_pointer and size != 8:
                raise VerificationError(pc, "partial spill of a pointer")
            if stored is not None and size == 8:
                # full-width spill keeps the register state (incl. scalar
                # bounds), mirroring the kernel's spill tracking
                state.stack[total] = StackSlot(SlotKind.SPILLED_PTR, stored)
                for b in range(1, size):
                    state.stack.pop(total + b, None)
            else:
                kind = SlotKind.ZERO if (
                    stored is not None and stored.is_const
                    and stored.const_value == 0
                ) else SlotKind.MISC
                for b in range(size):
                    state.stack[total + b] = StackSlot(kind)
            return None
        # read: every byte must be initialized
        first = state.stack.get(total)
        if first is not None and first.kind == SlotKind.SPILLED_PTR and size == 8:
            return first.reg
        # bytes covered by a full-width spill count as initialized misc
        covered = set()
        for offset, slot in state.stack.items():
            if slot.kind == SlotKind.SPILLED_PTR:
                covered.update(range(offset, offset + 8))
        result_zero = True
        for b in range(size):
            byte = total + b
            slot = state.stack.get(byte)
            if slot is None or slot.kind == SlotKind.INVALID:
                if byte in covered:
                    result_zero = False
                    continue
                raise VerificationError(
                    pc, f"invalid read from stack off {byte}: uninitialized"
                )
            if slot.kind != SlotKind.ZERO:
                result_zero = False
        if result_zero:
            return RegState.const(0)
        return None

    # --- calls -----------------------------------------------------------------
    def _do_call(self, pc: int, insn: Instruction, state: VerifierState) -> None:
        name = HELPER_NAMES.get(insn.imm)
        if name is None:
            raise VerificationError(pc, f"invalid helper id {insn.imm}")
        result = self._check_helper(pc, name, state)
        for reg in op.CALLER_SAVED[1:]:
            state.regs[reg] = RegState.not_init()
        state.regs[op.R0] = result

    def _check_helper(self, pc: int, name: str, state: VerifierState) -> RegState:
        regs = state.regs
        if name == "map_lookup_elem":
            handle = self._expect_map(pc, regs[op.R1])
            self._expect_mem(pc, state, regs[op.R2], handle[1].key_size,
                             "R2 key")
            spec = handle[1]
            self._next_ref += 1
            return RegState.pointer(
                RegType.PTR_TO_MAP_VALUE_OR_NULL,
                map_id=handle[0],
                value_size=spec.value_size,
                ref_id=self._next_ref,
            )
        if name == "map_update_elem":
            handle = self._expect_map(pc, regs[op.R1])
            self._expect_mem(pc, state, regs[op.R2], handle[1].key_size,
                             "R2 key")
            self._expect_mem(pc, state, regs[op.R3], handle[1].value_size,
                             "R3 value")
            return RegState.scalar()
        if name == "map_delete_elem":
            handle = self._expect_map(pc, regs[op.R1])
            self._expect_mem(pc, state, regs[op.R2], handle[1].key_size,
                             "R2 key")
            return RegState.scalar()
        if name in ("probe_read", "probe_read_str", "get_current_comm"):
            dst = regs[op.R1]
            size = regs[op.R2]
            if dst.type == RegType.NOT_INIT:
                raise VerificationError(pc, "R1 !read_ok in helper call")
            self._mark_helper_write(state, dst, size)
            return RegState.scalar()
        if name == "fib_lookup":
            # (ctx, params, plen, flags): params is an in/out struct the
            # helper fills, so its stack bytes become initialized
            params = regs[op.R2]
            plen = regs[op.R3]
            if params.type == RegType.NOT_INIT:
                raise VerificationError(pc, "R2 !read_ok in fib_lookup")
            self._mark_helper_write(state, params, plen)
            return RegState.scalar()
        # generic helpers: require initialized argument registers that the
        # program actually set up; we accept anything initialized
        return RegState.scalar()

    @staticmethod
    def _mark_helper_write(state: VerifierState, dst: RegState,
                           size: RegState) -> None:
        """Mark a helper-written stack buffer as initialized."""
        if dst.type == RegType.PTR_TO_STACK and size.is_const:
            total = dst.off + dst.umin
            for b in range(size.const_value):
                state.stack[total + b] = StackSlot(SlotKind.MISC)

    def _expect_map(self, pc: int, reg: RegState):
        if reg.type != RegType.CONST_MAP_PTR:
            raise VerificationError(
                pc, f"expected map pointer, got {reg.type.value}"
            )
        spec = self.map_specs[reg.map_id - 1]
        return reg.map_id, spec

    def _expect_mem(self, pc: int, state: VerifierState, reg: RegState,
                    size: int, what: str) -> None:
        if reg.type == RegType.PTR_TO_STACK:
            self._check_stack(pc, state, reg, 0, size, write=False, stored=None)
            return
        if reg.type in (RegType.PTR_TO_MAP_VALUE, RegType.PTR_TO_PACKET):
            self._check_access(pc, state, reg, 0, size, write=False)
            return
        raise VerificationError(
            pc, f"{what}: expected readable memory of {size} bytes, got "
            f"{reg.type.value}"
        )

    # --- branches -----------------------------------------------------------------
    def _branch(
        self, pc: int, insn: Instruction, state: VerifierState
    ) -> Tuple[Optional[VerifierState], Optional[VerifierState]]:
        """Returns (taken_state, fallthrough_state); None = path impossible."""
        is32 = insn.insn_class == op.BPF_JMP32
        dst = self._reg(pc, state, insn.dst)
        if insn.uses_imm:
            src = RegState.const(insn.imm & (_U32 if is32 else _U64))
        else:
            src = self._reg(pc, state, insn.src)

        # packet bounds pattern: pkt vs pkt_end comparisons
        refined = self._packet_branch(insn, state, dst, src)
        if refined is not None:
            return refined

        # map-value NULL check
        null_check = self._null_check_branch(insn, state, dst, src)
        if null_check is not None:
            return null_check

        if dst.is_pointer or src.is_pointer:
            # pointer comparisons carry no refinement in our model
            return state.copy(), state

        decided = self._decide(insn, dst, src, is32)
        if decided is True:
            return state, None
        if decided is False:
            return None, state

        taken = state.copy()
        fall = state
        if insn.uses_imm and dst.is_scalar:
            jop = insn.jmp_op
            imm = insn.imm & (_U32 if is32 else _U64)
            taken.regs[insn.dst] = self._refine(dst, jop, imm, True, is32)
            fall.regs[insn.dst] = self._refine(dst, jop, imm, False, is32)
        return taken, fall

    def _packet_branch(self, insn, state, dst, src):
        pairs = {
            (RegType.PTR_TO_PACKET, RegType.PTR_TO_PACKET_END),
            (RegType.PTR_TO_PACKET_END, RegType.PTR_TO_PACKET),
        }
        if insn.uses_imm or (dst.type, src.type) not in pairs:
            return None
        jop = insn.jmp_op
        if dst.type == RegType.PTR_TO_PACKET:
            pkt_off = dst.off + dst.umax
            # "if pkt > pkt_end goto": fall-through proves pkt <= pkt_end
            if jop in (op.BPF_JGT, op.BPF_JGE):
                fall = state
                self._grow_pkt_range(fall, pkt_off)
                return state.copy(), fall
            if jop in (op.BPF_JLE, op.BPF_JLT):
                taken = state.copy()
                self._grow_pkt_range(taken, pkt_off)
                return taken, state
        else:
            pkt_off = src.off + src.umax
            # "if pkt_end >= pkt + N goto": taken proves range
            if jop in (op.BPF_JGE, op.BPF_JGT):
                taken = state.copy()
                self._grow_pkt_range(taken, pkt_off)
                return taken, state
            if jop in (op.BPF_JLT, op.BPF_JLE):
                fall = state
                self._grow_pkt_range(fall, pkt_off)
                return state.copy(), fall
        return state.copy(), state

    @staticmethod
    def _grow_pkt_range(state: VerifierState, new_range: int) -> None:
        for i, reg in enumerate(state.regs):
            if reg.type == RegType.PTR_TO_PACKET:
                state.regs[i] = reg.with_(pkt_range=max(reg.pkt_range, new_range))
        for offset, slot in state.stack.items():
            if slot.kind == SlotKind.SPILLED_PTR and slot.reg is not None and \
                    slot.reg.type == RegType.PTR_TO_PACKET:
                slot.reg = slot.reg.with_(
                    pkt_range=max(slot.reg.pkt_range, new_range)
                )

    def _null_check_branch(self, insn, state, dst, src):
        if dst.type != RegType.PTR_TO_MAP_VALUE_OR_NULL:
            return None
        if not (insn.uses_imm and insn.imm == 0):
            return None
        jop = insn.jmp_op
        if jop not in (op.BPF_JEQ, op.BPF_JNE):
            return None
        null_state = state.copy()
        self._mark_null_checked(null_state, dst.ref_id, is_null=True)
        ok_state = state
        self._mark_null_checked(ok_state, dst.ref_id, is_null=False)
        if jop == op.BPF_JEQ:
            return null_state, ok_state  # taken == NULL
        return ok_state, null_state

    @staticmethod
    def _mark_null_checked(state: VerifierState, ref_id: int,
                           is_null: bool) -> None:
        """Propagate a NULL-check verdict to every copy of the pointer."""
        for i, reg in enumerate(state.regs):
            if reg.type == RegType.PTR_TO_MAP_VALUE_OR_NULL and \
                    reg.ref_id == ref_id:
                if is_null:
                    state.regs[i] = RegState.const(0)
                else:
                    state.regs[i] = reg.with_(type=RegType.PTR_TO_MAP_VALUE)
        nulled_offsets = []
        for offset, slot in state.stack.items():
            if slot.kind == SlotKind.SPILLED_PTR and slot.reg is not None and \
                    slot.reg.type == RegType.PTR_TO_MAP_VALUE_OR_NULL and \
                    slot.reg.ref_id == ref_id:
                if is_null:
                    nulled_offsets.append(offset)
                else:
                    slot.reg = slot.reg.with_(type=RegType.PTR_TO_MAP_VALUE)
        for offset in nulled_offsets:
            for byte in range(8):
                state.stack[offset + byte] = StackSlot(SlotKind.ZERO)

    @staticmethod
    def _decide(insn: Instruction, dst: RegState, src: RegState,
                is32: bool) -> Optional[bool]:
        """Statically decide the branch when bounds allow it."""
        if not (dst.is_scalar and src.is_scalar):
            return None
        jop = insn.jmp_op
        if dst.is_const and src.is_const:
            a, b = dst.const_value, src.const_value
            if is32:
                a, b = a & _U32, b & _U32
            table = {
                op.BPF_JEQ: a == b,
                op.BPF_JNE: a != b,
                op.BPF_JGT: a > b,
                op.BPF_JGE: a >= b,
                op.BPF_JLT: a < b,
                op.BPF_JLE: a <= b,
                op.BPF_JSET: bool(a & b),
            }
            return table.get(jop)
        if is32:
            return None
        if jop == op.BPF_JGT:
            if dst.umin > src.umax:
                return True
            if dst.umax <= src.umin:
                return False
        elif jop == op.BPF_JGE:
            if dst.umin >= src.umax:
                return True
            if dst.umax < src.umin:
                return False
        elif jop == op.BPF_JLT:
            if dst.umax < src.umin:
                return True
            if dst.umin >= src.umax:
                return False
        elif jop == op.BPF_JLE:
            if dst.umax <= src.umin:
                return True
            if dst.umin > src.umax:
                return False
        elif jop == op.BPF_JEQ:
            if dst.umin > src.umax or dst.umax < src.umin:
                return False
        elif jop == op.BPF_JNE:
            if dst.umin > src.umax or dst.umax < src.umin:
                return True
        return None

    @staticmethod
    def _refine(reg: RegState, jop: int, imm: int, taken: bool,
                is32: bool) -> RegState:
        """Narrow scalar bounds along a branch edge (64-bit compares)."""
        if is32:
            return reg  # 32-bit compare refinement not modelled
        umin, umax = reg.umin, reg.umax
        tnum = reg.tnum
        if jop == op.BPF_JEQ and taken or jop == op.BPF_JNE and not taken:
            umin = umax = imm
            tnum = tnum.intersect(Tnum.const(imm))
        elif jop == op.BPF_JGT:
            if taken:
                umin = max(umin, imm + 1)
            else:
                umax = min(umax, imm)
        elif jop == op.BPF_JGE:
            if taken:
                umin = max(umin, imm)
            else:
                umax = min(umax, imm - 1) if imm else umax
        elif jop == op.BPF_JLT:
            if taken:
                umax = min(umax, imm - 1) if imm else umax
            else:
                umin = max(umin, imm)
        elif jop == op.BPF_JLE:
            if taken:
                umax = min(umax, imm)
            else:
                umin = max(umin, imm + 1)
        if umin > umax:
            # contradictory: keep old bounds (path will still be explored)
            return reg
        try:
            tnum = tnum.intersect(Tnum.range(umin, umax))
        except ValueError:
            return RegState.scalar(umin=umin, umax=umax)
        return RegState.scalar(tnum, umin=umin, umax=umax)


def verify(program: BpfProgram,
           config: KernelConfig = DEFAULT_KERNEL) -> VerificationResult:
    """Verify *program*; convenience wrapper."""
    return Verifier(program, config).verify()
