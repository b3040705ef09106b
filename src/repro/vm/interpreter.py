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
from ..isa.semantics import alu, bswap, condition
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

#: the classes and jump operations the run loop dispatches on, read as
#: module globals rather than ``op`` attributes on every step
_LD, _LDX, _ST, _STX = op.BPF_LD, op.BPF_LDX, op.BPF_ST, op.BPF_STX
_ALU32, _ALU64 = op.BPF_ALU, op.BPF_ALU64
_JMP, _JMP32 = op.BPF_JMP, op.BPF_JMP32
_JA, _CALL, _EXIT = op.BPF_JA, op.BPF_CALL, op.BPF_EXIT
_END = op.BPF_END


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
        """Interpret from the first slot until exit or fault.

        Every constant fact of an instruction (class, operation, access
        width, cost) is read from the per-opcode tables by its opcode
        byte; the tables and the models' entry points are bound once
        per run.  An ALU step or a conditional jump calls
        :mod:`repro.isa.semantics` directly, once."""
        slots = self._slots
        counters = self.counters
        max_insns = self.max_insns
        access = self.cache.access
        load = self.memory.load
        record = self.branch.record
        insn_class = op.INSN_CLASS
        op_code = op.OP_CODE
        uses_imm = op.USES_IMM
        access_bytes = op.ACCESS_BYTES
        is_ld_imm64 = op.IS_LD_IMM64
        base_cost = cost.BASE_COST
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
            if executed > max_insns:
                raise VmFault(_BUDGET_MSG)
            opcode = insn.opcode
            counters.instructions += 1
            counters.cycles += base_cost[opcode]

            cls = insn_class[opcode]
            if cls == _ALU64 or cls == _ALU32:
                if cls == _ALU64:
                    mask, bits = _U64, 64
                else:
                    mask, bits = _U32, 32
                aop = op_code[opcode]
                dst = insn.dst
                # an immediate is sign-extended to the operation width
                operand = (insn.imm if uses_imm[opcode]
                           else regs[insn.src]) & mask
                result = alu(aop, regs[dst] & mask, operand, bits)
                if result is None:
                    if aop != _END:
                        raise VmFault(f"unknown ALU op {aop:#x}")
                    # to-LE/to-BE in the 32-bit class; the 64-bit class
                    # swaps unconditionally, and its to-BE is reserved
                    swap = cls == _ALU64 or not uses_imm[opcode]
                    if insn.imm not in (16, 32, 64) or \
                            cls == _ALU64 and not uses_imm[opcode]:
                        raise VmFault(f"reserved END {opcode:#x} "
                                      f"imm {insn.imm}")
                    result = bswap(regs[dst], insn.imm, swap)
                regs[dst] = result  # ALU32 zero-extends into the register
                pc += 1
            elif cls == _LDX:
                addr = (regs[insn.src] + insn.off) & _U64
                size = access_bytes[opcode]
                counters.cycles += access(addr, size)
                try:
                    regs[insn.dst] = load(addr, size)
                except MemoryFault as exc:
                    raise VmFault(str(exc)) from None
                pc += 1
            elif cls == _ST or cls == _STX:
                pc = self._store(insn, regs, pc)
            elif cls == _LD:
                if not is_ld_imm64[opcode]:
                    raise VmFault(f"unsupported LD mode {opcode:#x}")
                regs[insn.dst] = insn.imm & _U64
                pc += 2
            elif cls == _JMP or cls == _JMP32:
                jop = op_code[opcode]
                if jop == _EXIT:
                    return regs[op.R0]
                if jop == _CALL:
                    counters.helper_calls += 1
                    name = HELPER_NAMES.get(insn.imm, "")
                    counters.cycles += cost.HELPER_COST.get(
                        name, cost.DEFAULT_HELPER_COST
                    )
                    regs[op.R0] = self.helpers.call(insn.imm, regs[1:6])
                    pc += 1
                elif jop == _JA:
                    counters.branches += 1
                    pc += 1 + insn.off
                else:
                    if cls == _JMP:
                        mask, bits = _U64, 64
                    else:
                        mask, bits = _U32, 32
                    rhs = insn.imm if uses_imm[opcode] else regs[insn.src]
                    taken = condition(jop, regs[insn.dst] & mask, rhs & mask,
                                      bits)
                    if taken is None:
                        raise VmFault(f"unknown jump op {jop:#x}")
                    counters.branches += 1
                    counters.cycles += record(pc, taken)
                    pc += 1 + insn.off if taken else 1
            else:
                raise VmFault(f"unknown opcode {opcode:#x}")

    # ----------------------------------------------------------------- stores
    def _store(self, insn: Instruction, regs: List[int], pc: int) -> int:
        opcode = insn.opcode
        addr = (regs[insn.dst] + insn.off) & _U64
        size = op.ACCESS_BYTES[opcode]
        if op.IS_ATOMIC[opcode]:
            self.counters.atomics += 1
            self.counters.cycles += self.cache.access(addr, size)
            try:
                old = self.memory.load(addr, size)
            except MemoryFault as exc:
                raise VmFault(str(exc)) from None
            bits = size * 8
            operand = regs[insn.src] & ((1 << bits) - 1)
            aop = insn.imm & ~op.BPF_FETCH
            if aop in op.ATOMIC_ALU_OPS:
                new = alu(aop, old, operand, bits)
            elif insn.imm == op.BPF_XCHG:
                new = operand
            else:
                raise VmFault(f"unsupported atomic {insn.imm:#x}")
            self.memory.store(addr, size, new)
            if insn.imm & op.BPF_FETCH:
                regs[insn.src] = old
            return pc + 1
        value = insn.imm if op.IS_STORE_IMM[opcode] else regs[insn.src]
        self.counters.cycles += self.cache.access(addr, size)
        try:
            self.memory.store(addr, size, value & _U64)
        except MemoryFault as exc:
            raise VmFault(str(exc)) from None
        return pc + 1
