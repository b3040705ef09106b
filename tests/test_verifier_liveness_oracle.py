"""The verifier's precision liveness against the per-slot set algorithm
it replaced.

``_set_critical_liveness`` below is the earlier implementation of
``Verifier.critical_live``: a successor map over expanded slots and a
set-valued fixpoint over every slot with its own transfer function.
The new solver runs the same rule as int masks over the shared
bytecode CFG (:mod:`repro.isa.cfg`).  On the XDP programs, suite
programs, fuzz programs and small hand-written programs that exercise
each case of the rule, every slot's mask must equal the oracle's set,
and verifying with the oracle's sets injected must give the same
:class:`VerificationResult`.
"""

from __future__ import annotations

from typing import List, Optional, Set, Tuple

import pytest

from repro.codegen import compile_function
from repro.frontend import compile_source
from repro.fuzz.generator import generate
from repro.isa import BpfProgram, Instruction, ProgramType, assemble
from repro.isa import instruction as ins
from repro.isa import opcodes as op
from repro.isa.helpers import HELPER_IDS, HELPER_NAMES
from repro.verifier import Verifier, verify
from repro.workloads.suites import (TRACE_CTX_SIZE, compile_suite_program,
                                    generate_suite)
from repro.workloads.xdp import ALL_XDP, compile_workload

_HELPER_SIZE_ARGS = Verifier._HELPER_SIZE_ARGS


# ---------------------------------------------------------------- oracle
def _expand_slots(insns: List[Instruction]) -> List[Optional[Instruction]]:
    slots: List[Optional[Instruction]] = []
    for insn in insns:
        slots.append(insn)
        if insn.slots == 2:
            slots.append(None)
    return slots


def _critical_in(insn, out) -> Set[int]:
    """Backward transfer function for one instruction."""
    live: Set[int] = set(out)
    if insn is None:
        return live
    if insn.is_call:
        live -= set(op.CALLER_SAVED)
        name = HELPER_NAMES.get(insn.imm, "")
        live |= set(_HELPER_SIZE_ARGS.get(name, ()))
        return live
    if insn.is_ld_imm64 or insn.is_load:
        live.discard(insn.dst)
        return live
    if insn.is_alu:
        aop = insn.alu_op
        uses_imm = insn.uses_imm
        was_live = insn.dst in live
        if aop == op.BPF_MOV:
            live.discard(insn.dst)
            if was_live and not uses_imm:
                live.add(insn.src)
            return live
        # variable pointer arithmetic: both operands' bounds matter
        if (
            insn.insn_class == op.BPF_ALU64
            and aop in (op.BPF_ADD, op.BPF_SUB)
            and not uses_imm
        ):
            live.add(insn.dst)
            live.add(insn.src)
            return live
        if was_live and not uses_imm and aop not in (op.BPF_NEG,
                                                     op.BPF_END):
            live.add(insn.src)
        return live
    return live


def _set_critical_liveness(program: BpfProgram) -> List[frozenset]:
    """The earlier per-slot set fixpoint, kept as the oracle."""
    slots = _expand_slots(program.insns)
    n = len(slots)
    out_sets: List[frozenset] = [frozenset()] * n
    succs: List[Tuple[int, ...]] = [()] * n
    for pc, insn in enumerate(slots):
        if insn is None:
            continue
        if insn.is_exit:
            succs[pc] = ()
        elif insn.is_jump and not insn.is_call:
            target = pc + insn.slots + insn.off
            if insn.jmp_op == op.BPF_JA:
                succs[pc] = (target,)
            else:
                succs[pc] = (target, pc + insn.slots)
        else:
            succs[pc] = (pc + insn.slots,)

    changed = True
    while changed:
        changed = False
        for pc in range(n - 1, -1, -1):
            if slots[pc] is None:
                continue
            out: Set[int] = set()
            for successor in succs[pc]:
                if 0 <= successor < n:
                    out |= _critical_in(slots[successor],
                                        out_sets[successor])
            new_out = frozenset(out)
            if new_out != out_sets[pc]:
                out_sets[pc] = new_out
                changed = True
    return [
        frozenset(_critical_in(slots[pc], out_sets[pc]))
        if slots[pc] is not None else frozenset()
        for pc in range(n)
    ]


def _mask(regs) -> int:
    return sum(1 << reg for reg in regs)


def _assert_agree(program: BpfProgram) -> None:
    oracle = _set_critical_liveness(program)
    verifier = Verifier(program)
    assert verifier.critical_live == [_mask(s) for s in oracle], program.name
    expected = verifier.verify()
    injected = Verifier(program)
    injected.critical_live = [_mask(s) for s in oracle]
    assert injected.verify() == expected, program.name


# ---------------------------------------------------------------- inputs
def _xdp_programs() -> List[BpfProgram]:
    return [compile_workload(w, optimize=opt)
            for w in ALL_XDP for opt in (False, True)]


def _suite_programs() -> List[BpfProgram]:
    return [compile_suite_program(p, optimize=opt)
            for suite in ("sysdig", "tetragon", "tracee")
            for p in generate_suite(suite, scale=0.05)[:4]
            for opt in (False, True)]


def _fuzz_programs(count: int) -> List[BpfProgram]:
    programs = []
    for seed in range(count):
        text = generate("bytecode", seed).text
        programs.append(BpfProgram(f"bc{seed}", assemble(text)))
        source = generate("source", seed)
        module = compile_source(source.text, f"src{seed}")
        programs.append(compile_function(
            module.get(source.name), module, prog_type=source.prog_type,
            ctx_size=source.ctx_size, cleanup=False))
    return programs


def _prog(name: str, insns: List[Instruction]) -> BpfProgram:
    return BpfProgram(name, insns, prog_type=ProgramType.TRACEPOINT,
                      ctx_size=TRACE_CTX_SIZE)


def _size_arg_call(helper: str) -> BpfProgram:
    """Size arguments flow in through a mov chain and a bounded add,
    then feed the helper; the call clobbers r1-r5."""
    return _prog(f"helper_{helper}", [
        ins.load(8, op.R6, op.R1, 0),
        ins.mov64_reg(op.R7, op.R6),
        ins.alu64("and", op.R7, imm=7),
        ins.alu64("add", op.R7, imm=1),
        ins.mov64_reg(op.R2, op.R7),
        ins.mov64_reg(op.R3, op.R7),
        ins.mov64_reg(op.R4, op.R6),
        ins.mov64_reg(op.R5, op.R7),
        ins.mov64_reg(op.R1, op.R10),
        ins.alu64("add", op.R1, imm=-16),
        ins.call(HELPER_IDS[helper]),
        ins.mov64_imm(op.R0, 0),
        ins.exit_(),
    ])


def _diamond(bound: int) -> BpfProgram:
    """Two paths join with different verdicts in r8 and different
    bounds on r7, which feeds a helper size: whether the second arrival
    at the join is pruned depends on which registers are critical."""
    return _prog(f"diamond_r7_and_{bound}", assemble(f"""
        r6 = *(u64 *)(r1 + 0)
        r7 = *(u64 *)(r1 + 8)
        r8 = 0
        if r6 > 10 goto big
        r8 = 1
        r7 &= {bound}
        goto join
    big:
        r8 = 2
        r7 &= 7
    join:
        r7 += 1
        r1 = r10
        r1 += -16
        r2 = r7
        r3 = 0
        call {HELPER_IDS["probe_read"]}
        r0 = r8
        exit
    """))


HAND_WRITTEN = [
    # a jump onto an ld_imm64's second slot, and one over it
    _prog("ld_imm64_second_slot", [
        ins.load(8, op.R2, op.R1, 0),
        ins.jump("jeq", op.R2, imm=0, off=1),
        ins.ld_imm64(op.R3, 1 << 40),
        ins.jump("jne", op.R2, imm=7, off=2),
        ins.ld_imm64(op.R2, 5),
        ins.alu64("add", op.R10, src=op.R2),
        ins.mov64_imm(op.R0, 0),
        ins.exit_(),
    ]),
    # a backedge: the loop counter feeds pointer arithmetic in the body
    _prog("backedge", assemble("""
        r6 = *(u64 *)(r1 + 0)
        r6 &= 7
        r7 = 0
        r9 = 0
    loop:
        r8 = r10
        r8 += -16
        r8 += r7
        *(u8 *)(r8 + 0) = 1
        r9 += r6
        r7 += 1
        if r7 < 8 goto loop
        r0 = r9
        exit
    """)),
    _diamond(3),
    _diamond(7),
    # ALU64 add/sub by register, next to their 32-bit and immediate forms
    _prog("alu64_add_sub_by_register", assemble("""
        r2 = *(u64 *)(r1 + 0)
        r3 = *(u64 *)(r1 + 8)
        r4 = r2
        r4 += r3
        r5 = r3
        r5 -= r2
        w6 = w2
        w6 += w3
        r7 = r10
        r7 -= r4
        r8 = r5
        r8 *= r6
        r8 += 1
        r0 = r8
        exit
    """)),
    # a mov chain into a critical register, with 32-bit, neg and end
    _prog("mov_chain", assemble("""
        r2 = *(u64 *)(r1 + 0)
        r3 = r2
        w4 = w3
        r5 = r4
        r5 = -r5
        w5 = be32 w5
        r5 |= r3
        r6 = r5
        r6 = r6
        r7 = r10
        r7 += r6
        r0 = 0
        exit
    """)),
    # jumps past either end: out of range backwards, onto the one-past-
    # the-end slot, and far past it
    _prog("out_of_range_jumps", [
        ins.load(8, op.R2, op.R1, 0),
        ins.jump("jeq", op.R2, imm=1, off=-5),
        ins.jump("jeq", op.R2, imm=2, off=4),
        ins.jump("jeq", op.R2, imm=3, off=100),
        ins.alu64("add", op.R10, src=op.R2),
        ins.mov64_imm(op.R0, 0),
        ins.exit_(),
    ]),
] + [_size_arg_call(helper) for helper in sorted(_HELPER_SIZE_ARGS)]


# ----------------------------------------------------------------- tests
def test_every_size_arg_helper_is_covered():
    names = {program.name for program in HAND_WRITTEN}
    assert {f"helper_{h}" for h in _HELPER_SIZE_ARGS} <= names


@pytest.mark.parametrize("program", HAND_WRITTEN, ids=lambda p: p.name)
def test_hand_written_programs(program):
    _assert_agree(program)


def test_hand_written_programs_exercise_the_rule():
    """Guard against a vacuous oracle: the rule's cases mark registers."""
    by_name = {p.name: p for p in HAND_WRITTEN}
    critical = Verifier(by_name["alu64_add_sub_by_register"]).critical_live
    # slot 3 (r4 += r3) marks both operands critical
    assert critical[3] >> op.R4 & 1 and critical[3] >> op.R3 & 1
    chain = Verifier(by_name["mov_chain"]).critical_live
    # r2 stays critical back to its load through the whole mov chain
    assert chain[1] >> op.R2 & 1
    probe = Verifier(by_name["helper_probe_read"]).critical_live
    # the call at slot 10 makes its size argument r2 critical
    assert probe[10] >> op.R2 & 1
    # the masks decide pruning: r7's bounds differ at the join, so it is
    # not pruned; with the same bounds the differing r8 does not matter
    assert verify(by_name["diamond_r7_and_3"]).pruned == 0
    assert verify(by_name["diamond_r7_and_7"]).pruned == 1
    assert verify(by_name["backedge"]).ok


def test_xdp_programs():
    programs = _xdp_programs()
    assert len(programs) == 2 * len(ALL_XDP) == 38
    for program in programs:
        _assert_agree(program)


def test_suite_programs():
    for program in _suite_programs():
        _assert_agree(program)


def test_fuzz_programs():
    for program in _fuzz_programs(12):
        _assert_agree(program)
