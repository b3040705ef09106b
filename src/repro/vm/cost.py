"""Per-instruction cycle cost model (Agner-Fog-flavoured latencies).

Memory latencies come from the cache model at run time; the numbers
here are the core pipeline costs.  The table encodes the facts Merlin's
strength-reduction arguments rely on: a 32-bit ``mov`` is cheaper than a
``shl``/``shr`` pair, a 64-bit immediate load costs an extra slot fetch,
and locked atomics on modern cores are only slightly slower than the
plain read-modify-write sequence they replace.
"""

from __future__ import annotations

from ..isa import Instruction
from ..isa import opcodes as op

ALU_COST = {
    op.BPF_ADD: 1,
    op.BPF_SUB: 1,
    op.BPF_MUL: 3,
    op.BPF_DIV: 20,
    op.BPF_MOD: 22,
    op.BPF_OR: 1,
    op.BPF_AND: 1,
    op.BPF_LSH: 1,
    op.BPF_RSH: 1,
    op.BPF_ARSH: 1,
    op.BPF_NEG: 1,
    op.BPF_XOR: 1,
    op.BPF_MOV: 1,
    op.BPF_END: 2,
}

#: extra cost of the second fetch slot of ld_imm64
LD_IMM64_COST = 2
STORE_BASE_COST = 1
#: modern cores execute uncontended locked RMW close to the plain
#: load/op/store sequence it replaces (paper §4.1, citing [23, 27, 29]);
#: the fused form still wins by making one cache access instead of two
ATOMIC_BASE_COST = 6
JUMP_COST = 1
EXIT_COST = 1

#: helper call base costs (cycles), excluding memory they touch
HELPER_COST = {
    "map_lookup_elem": 25,
    "map_update_elem": 45,
    "map_delete_elem": 40,
    "probe_read": 30,
    "probe_read_str": 40,
    "ktime_get_ns": 15,
    "ktime_get_boot_ns": 15,
    "trace_printk": 200,
    "get_prandom_u32": 10,
    "get_smp_processor_id": 5,
    "get_current_pid_tgid": 12,
    "get_current_uid_gid": 12,
    "get_current_comm": 30,
    "redirect": 60,
    "redirect_map": 45,
    "perf_event_output": 350,
    "ringbuf_output": 180,
    "ringbuf_reserve": 60,
    "ringbuf_submit": 60,
    "csum_diff": 35,
    "xdp_adjust_head": 20,
    "fib_lookup": 120,
}
DEFAULT_HELPER_COST = 30


def _opcode_cost(opcode: int) -> int:
    """Pipeline cost of one opcode byte, excluding cache and branch
    effects."""
    if op.IS_LD_IMM64[opcode]:
        return LD_IMM64_COST
    if op.IS_ALU[opcode]:
        # 0xe0 and 0xf0 are not ALU operations: they cost the fallback,
        # and the interpreter faults on them
        return ALU_COST.get(op.OP_CODE[opcode], 1)
    if op.IS_ATOMIC[opcode]:
        return ATOMIC_BASE_COST
    if op.IS_LOAD[opcode]:
        return 0  # latency comes from the cache model
    if op.IS_STORE[opcode]:
        return STORE_BASE_COST
    if op.IS_EXIT[opcode]:
        return EXIT_COST
    if op.IS_JUMP[opcode]:
        return JUMP_COST
    return 1


#: opcode byte -> pipeline cost; the interpreter charges it per step
BASE_COST = tuple(_opcode_cost(opcode) for opcode in range(256))


def base_cost(insn: Instruction) -> int:
    """Pipeline cost of *insn*, excluding cache and branch effects."""
    return BASE_COST[insn.opcode]
