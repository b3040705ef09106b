"""The eBPF virtual machine: an interpreter with a cycle/cache/branch
cost model attached.

A :class:`Machine` owns the program, its maps, and the hardware models;
map contents, cache state, and predictor state persist across ``run``
calls so repeated invocations (packet loops, syscall storms) behave like
an attached kernel program.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ..hw import BranchPredictor, CacheModel, PerfCounters
from ..isa import BpfProgram, Instruction
from ..isa import opcodes as op
from ..isa.cfg import expand_slots
from ..isa.helpers import HELPER_NAMES
from . import cost
from .helpers import HelperRuntime, TaskContext
from .maps import BpfMap, create_map
from .memory import CTX_BASE, Memory, MemoryFault, PACKET_BASE, STACK_BASE

_U64 = (1 << 64) - 1
_U32 = (1 << 32) - 1

STACK_TOP = STACK_BASE + op.STACK_SIZE


class VmFault(Exception):
    """Raised when the program faults at run time."""


@dataclass
class RunResult:
    """Outcome of one program invocation."""

    return_value: int
    counters: PerfCounters  # delta for this run only

    @property
    def xdp_action(self) -> int:
        return self.return_value & _U32


_BUDGET_MSG = "instruction budget exhausted (infinite loop?)"

#: the kernel-stack poison pattern, allocated once (not per run)
_STACK_FILL = b"\xa5" * op.STACK_SIZE


class Machine:
    """Interpreter plus performance model for one loaded program.

    This if/elif interpreter is the VM's only engine.  ``engine`` stays
    only because the repository benchmark passes it and reads its
    default; it goes with :mod:`repro.vm.engine` when the benchmark
    drops its ``vm.jit_cache`` metrics.  ``"reference"`` is the one
    accepted value.
    """

    def __init__(
        self,
        program: BpfProgram,
        cache: Optional[CacheModel] = None,
        branch: Optional[BranchPredictor] = None,
        seed: int = 0,
        max_insns: int = 4_000_000,
        task: Optional[TaskContext] = None,
        engine: str = "reference",
    ):
        if engine != "reference":
            raise ValueError(
                f"unknown engine {engine!r} (the only engine is 'reference')")
        self.program = program
        self.memory = Memory()
        self.cache = cache if cache is not None else CacheModel()
        self.branch = branch if branch is not None else BranchPredictor()
        self.counters = PerfCounters()
        self.max_insns = max_insns
        self.task = task if task is not None else TaskContext()
        self.helpers = HelperRuntime(self, seed=seed)
        self.maps: Dict[str, BpfMap] = {}
        self.maps_by_id: Dict[int, BpfMap] = {}
        for index, (name, spec) in enumerate(program.maps.items()):
            bpf_map = create_map(spec, self.memory)
            self.maps[name] = bpf_map
            self.maps_by_id[index + 1] = bpf_map
        self._slots = expand_slots(program.insns)
        self._stack = self.memory.add_region("stack", STACK_BASE, op.STACK_SIZE)
        self._ctx = self.memory.add_region("ctx", CTX_BASE, max(program.ctx_size, 8))

    # ------------------------------------------------------------------ model
    def touch_memory(self, addr: int, size: int) -> None:
        """Route helper-internal memory traffic through the cache model."""
        self.counters.cycles += self.cache.access(addr, size)

    #: XDP headroom available for xdp_adjust_head (XDP_PACKET_HEADROOM)
    PACKET_HEADROOM = 256

    #: zeroed headroom prefix, reused when the packet region is recycled
    _ZERO_HEADROOM = bytes(PACKET_HEADROOM)

    def set_packet(self, packet: bytes) -> int:
        """Install packet bytes; returns the guest address of the data.

        The region includes the kernel's 256-byte headroom before the
        data so ``xdp_adjust_head`` with a negative delta stays mapped.
        The existing packet region (and its ``bytearray``) is reused
        across invocations — resized in place when the length changes —
        so a packet loop neither churns the region dict nor reallocates
        the buffer; a fresh region behaves identically (zeroed headroom,
        exact ``data_end`` bound).
        """
        needed = self.PACKET_HEADROOM + len(packet)
        region = self.memory.regions.get("packet")
        if region is None:
            region = self.memory.add_region("packet", PACKET_BASE, needed)
        else:
            data = region.data
            if len(data) > needed:
                del data[needed:]
            elif len(data) < needed:
                data.extend(bytes(needed - len(data)))
            # a fresh region's headroom is zero-filled; match it
            data[: self.PACKET_HEADROOM] = self._ZERO_HEADROOM
        region.data[self.PACKET_HEADROOM:] = packet
        return region.base + self.PACKET_HEADROOM

    def write_ctx(self, data: bytes) -> None:
        if len(data) > len(self._ctx.data):
            raise VmFault(
                f"context of {len(data)} bytes exceeds declared "
                f"ctx_size {len(self._ctx.data)}"
            )
        self._ctx.data[: len(data)] = data

    # -------------------------------------------------------------------- run
    def run(self, ctx: bytes = b"", packet: Optional[bytes] = None) -> RunResult:
        """Execute the program once; r1 points at the context."""
        if packet is not None:
            data_addr = self.set_packet(packet)
            header = data_addr.to_bytes(8, "little") + (
                data_addr + len(packet)
            ).to_bytes(8, "little")
            self.write_ctx(header + ctx)
        elif ctx:
            self.write_ctx(ctx)

        before = self.counters.snapshot()
        regs = [0] * 11
        regs[op.R1] = CTX_BASE
        regs[op.R10] = STACK_TOP
        # the kernel stack is NOT zeroed between invocations; a garbage
        # pattern catches programs relying on uninitialized slots
        self._stack.data[:] = _STACK_FILL

        try:
            return_value = self._execute(regs)
        finally:
            # mirror the model counters once per run (not per
            # instruction); the delta below and any caller reading
            # ``machine.counters`` after a fault both see synced values
            counters = self.counters
            counters.cache_references = self.cache.stats.references
            counters.cache_misses = self.cache.stats.misses
            counters.branch_misses = self.branch.stats.mispredictions
        delta = self.counters.delta(before)
        return RunResult(return_value=return_value, counters=delta)

    def _execute(self, regs: List[int]) -> int:
        """Interpret from the first slot until exit or fault."""
        slots = self._slots
        counters = self.counters
        n = len(slots)
        pc = 0
        executed = 0
        while True:
            if pc < 0 or pc >= n:
                raise VmFault(f"pc {pc} out of program bounds")
            insn = slots[pc]
            if insn is None:
                raise VmFault(f"jump into the middle of ld_imm64 at slot {pc}")
            executed += 1
            if executed > self.max_insns:
                raise VmFault(_BUDGET_MSG)
            counters.instructions += 1
            counters.cycles += cost.base_cost(insn)

            cls = insn.opcode & 0x07
            if cls in (op.BPF_ALU64, op.BPF_ALU):
                self._alu(insn, regs, cls == op.BPF_ALU)
                pc += 1
            elif cls == op.BPF_LDX:
                addr = (regs[insn.src] + insn.off) & _U64
                size = insn.size_bytes
                counters.cycles += self.cache.access(addr, size)
                try:
                    regs[insn.dst] = self.memory.load(addr, size)
                except MemoryFault as exc:
                    raise VmFault(str(exc)) from None
                pc += 1
            elif cls in (op.BPF_ST, op.BPF_STX):
                pc = self._store(insn, regs, pc)
            elif cls == op.BPF_LD:
                if not insn.is_ld_imm64:
                    raise VmFault(f"unsupported LD mode {insn.opcode:#x}")
                regs[insn.dst] = insn.imm & _U64
                pc += 2
            elif cls in (op.BPF_JMP, op.BPF_JMP32):
                jop = insn.opcode & op.JMP_OP_MASK
                if jop == op.BPF_EXIT:
                    return regs[op.R0]
                if jop == op.BPF_CALL:
                    counters.helper_calls += 1
                    name = HELPER_NAMES.get(insn.imm, "")
                    counters.cycles += cost.HELPER_COST.get(
                        name, cost.DEFAULT_HELPER_COST
                    )
                    regs[op.R0] = self.helpers.call(insn.imm, regs[1:6])
                    pc += 1
                elif jop == op.BPF_JA:
                    counters.branches += 1
                    pc += 1 + insn.off
                else:
                    taken = self._condition(insn, regs, cls == op.BPF_JMP32)
                    counters.branches += 1
                    counters.cycles += self.branch.record(pc, taken)
                    pc += 1 + insn.off if taken else 1
            else:
                raise VmFault(f"unknown opcode {insn.opcode:#x}")

    # ------------------------------------------------------------------- ALU
    def _alu(self, insn: Instruction, regs: List[int], is32: bool) -> None:
        aop = insn.opcode & op.ALU_OP_MASK
        dst = insn.dst
        mask = _U32 if is32 else _U64
        bits = 32 if is32 else 64
        if insn.uses_imm:
            # immediates are sign-extended to the operation width
            operand = insn.imm & mask
        else:
            operand = regs[insn.src] & mask
        value = regs[dst] & mask

        if aop == op.BPF_MOV:
            result = operand
        elif aop == op.BPF_ADD:
            result = value + operand
        elif aop == op.BPF_SUB:
            result = value - operand
        elif aop == op.BPF_MUL:
            result = value * operand
        elif aop == op.BPF_DIV:
            result = value // operand if operand else 0
        elif aop == op.BPF_MOD:
            result = value % operand if operand else value
        elif aop == op.BPF_OR:
            result = value | operand
        elif aop == op.BPF_AND:
            result = value & operand
        elif aop == op.BPF_XOR:
            result = value ^ operand
        elif aop == op.BPF_LSH:
            result = value << (operand % bits)
        elif aop == op.BPF_RSH:
            result = (value & mask) >> (operand % bits)
        elif aop == op.BPF_ARSH:
            shift = operand % bits
            signed = value - (1 << bits) if value >> (bits - 1) else value
            result = signed >> shift
        elif aop == op.BPF_NEG:
            result = -value
        elif aop == op.BPF_END:
            result = self._bswap(value, insn)
        else:
            raise VmFault(f"unknown ALU op {aop:#x}")
        regs[dst] = result & mask  # ALU32 zero-extends into the 64-bit reg

    @staticmethod
    def _bswap(value: int, insn: Instruction) -> int:
        width = insn.imm
        data = (value & ((1 << width) - 1)).to_bytes(width // 8, "little")
        if (insn.opcode & op.SRC_MASK) == op.BPF_X:  # to big-endian
            return int.from_bytes(data, "big")
        return int.from_bytes(data, "little")

    # ----------------------------------------------------------------- stores
    def _store(self, insn: Instruction, regs: List[int], pc: int) -> int:
        addr = (regs[insn.dst] + insn.off) & _U64
        size = insn.size_bytes
        if insn.is_atomic:
            self.counters.atomics += 1
            self.counters.cycles += self.cache.access(addr, size)
            try:
                old = self.memory.load(addr, size)
            except MemoryFault as exc:
                raise VmFault(str(exc)) from None
            operand = regs[insn.src] & ((1 << (size * 8)) - 1)
            aop = insn.imm & ~op.BPF_FETCH
            if aop == op.BPF_ATOMIC_ADD:
                new = old + operand
            elif aop == op.BPF_ATOMIC_AND:
                new = old & operand
            elif aop == op.BPF_ATOMIC_OR:
                new = old | operand
            elif aop == op.BPF_ATOMIC_XOR:
                new = old ^ operand
            elif insn.imm == op.BPF_XCHG:
                new = operand
            else:
                raise VmFault(f"unsupported atomic {insn.imm:#x}")
            self.memory.store(addr, size, new)
            if insn.imm & op.BPF_FETCH:
                regs[insn.src] = old
            return pc + 1
        value = insn.imm if insn.is_store_imm else regs[insn.src]
        self.counters.cycles += self.cache.access(addr, size)
        try:
            self.memory.store(addr, size, value & _U64)
        except MemoryFault as exc:
            raise VmFault(str(exc)) from None
        return pc + 1

    # ------------------------------------------------------------ conditions
    @staticmethod
    def _condition(insn: Instruction, regs: List[int], is32: bool) -> bool:
        mask = _U32 if is32 else _U64
        bits = 32 if is32 else 64
        lhs = regs[insn.dst] & mask
        if insn.uses_imm:
            rhs = insn.imm & mask
        else:
            rhs = regs[insn.src] & mask

        def signed(x: int) -> int:
            return x - (1 << bits) if x >> (bits - 1) else x

        jop = insn.opcode & op.JMP_OP_MASK
        if jop == op.BPF_JEQ:
            return lhs == rhs
        if jop == op.BPF_JNE:
            return lhs != rhs
        if jop == op.BPF_JGT:
            return lhs > rhs
        if jop == op.BPF_JGE:
            return lhs >= rhs
        if jop == op.BPF_JLT:
            return lhs < rhs
        if jop == op.BPF_JLE:
            return lhs <= rhs
        if jop == op.BPF_JSET:
            return bool(lhs & rhs)
        if jop == op.BPF_JSGT:
            return signed(lhs) > signed(rhs)
        if jop == op.BPF_JSGE:
            return signed(lhs) >= signed(rhs)
        if jop == op.BPF_JSLT:
            return signed(lhs) < signed(rhs)
        if jop == op.BPF_JSLE:
            return signed(lhs) <= signed(rhs)
        raise VmFault(f"unknown jump op {jop:#x}")
