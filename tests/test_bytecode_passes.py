"""Tests for Merlin's bytecode-tier passes and the rewriting machinery."""

import pytest

from repro.core import (
    BytecodeAnalysis,
    CodeCompactionPass,
    MerlinPipeline,
    PeepholePass,
    StoreImmediatePass,
    SuperwordMergePass,
    SymbolicProgram,
)
from repro.core.bytecode_passes.superword import merged_immediate
from repro.core.pass_manager import run_bytecode_passes
from repro.isa import BpfProgram, assemble, disassemble
from repro.isa import opcodes as op
from repro.vm import Machine


def program(asm: str, mcpu: str = "v3") -> BpfProgram:
    return BpfProgram("t", assemble(asm), mcpu=mcpu, ctx_size=64)


def run_value(prog: BpfProgram, ctx: bytes = b"\x00" * 64) -> int:
    return Machine(prog).run(ctx=ctx).return_value


def run_pass(bytecode_pass, prog: BpfProgram) -> int:
    """Run one pass over *prog* in place; returns its rewrite count."""
    stats, = run_bytecode_passes(prog, [bytecode_pass])
    return stats.rewrites


class TestSymbolicProgram:
    def test_roundtrip_without_changes(self):
        prog = program("""
            r0 = 0
            if r0 == 0 goto out
            r0 = 1
        out:
            exit
        """)
        sym = SymbolicProgram.from_program(prog)
        assert sym.to_insns() == prog.insns

    def test_delete_fixes_forward_branch(self):
        prog = program("""
            r1 = 5
            if r1 == 5 goto out
            r1 = 6
            r1 = 7
        out:
            r0 = r1
            exit
        """)
        sym = SymbolicProgram.from_program(prog)
        sym.delete(2)  # delete "r1 = 6"
        rewritten = prog.copy(insns=sym.to_insns())
        assert run_value(rewritten) == 5

    def test_delete_branch_target_falls_to_next(self):
        prog = program("""
            r1 = 1
            if r1 == 1 goto tgt
            r0 = 0
            exit
        tgt:
            r0 = 42
            exit
        """)
        sym = SymbolicProgram.from_program(prog)
        # deleting the first insn at the target: branch lands on the next
        sym.delete(4)
        rewritten = prog.copy(insns=sym.to_insns())
        # target insn "r0 = 42" deleted: lands on exit with r0 unset=0 in VM
        assert run_value(rewritten) == 0

    def test_backward_branch_offsets(self):
        prog = program("""
            r1 = 0
        loop:
            r1 += 1
            if r1 < 5 goto loop
            r0 = r1
            exit
        """)
        sym = SymbolicProgram.from_program(prog)
        rewritten = prog.copy(insns=sym.to_insns())
        assert run_value(rewritten) == 5

    def test_ld_imm64_slot_accounting(self):
        prog = program("""
            r1 = 0x1122334455667788 ll
            if r1 != 0 goto out
            r0 = 0
            exit
        out:
            r0 = 1
            exit
        """)
        sym = SymbolicProgram.from_program(prog)
        assert run_value(prog.copy(insns=sym.to_insns())) == 1


class TestAnalysis:
    def test_dead_after(self):
        prog = program("""
            r1 = 5
            r2 = r1
            r0 = r2
            exit
        """)
        analysis = BytecodeAnalysis(SymbolicProgram.from_program(prog))
        assert analysis.reg_dead_after(1, 1)  # r1 dead after the copy
        assert not analysis.reg_dead_after(1, 2)

    def test_live_across_branches(self):
        prog = program("""
            r1 = 5
            if r1 == 5 goto use
            r0 = 0
            exit
        use:
            r0 = r1
            exit
        """)
        analysis = BytecodeAnalysis(SymbolicProgram.from_program(prog))
        assert not analysis.reg_dead_after(0, 1)

    def test_branch_target_detection(self):
        prog = program("""
            r0 = 0
            if r0 == 0 goto t
            r0 = 1
        t:
            exit
        """)
        analysis = BytecodeAnalysis(SymbolicProgram.from_program(prog))
        assert analysis.is_branch_target(3)
        assert not analysis.is_branch_target(1)

    def test_straightline_rejects_spanning_target(self):
        prog = program("""
            r0 = 0
            if r0 == 0 goto t
            r1 = 1
        t:
            r2 = 2
            exit
        """)
        analysis = BytecodeAnalysis(SymbolicProgram.from_program(prog))
        assert not analysis.straightline(2, 3)
        assert analysis.straightline(3, 4)

    def test_dead_defs_include_self_moves(self):
        prog = program("r1 = r1\nr0 = 0\nexit")
        analysis = BytecodeAnalysis(SymbolicProgram.from_program(prog))
        assert 0 in analysis.dead_defs()

    def test_call_clobbers_not_dead(self):
        prog = program("""
            r1 = 1
            call 5
            r0 = r0
            r0 = 7
            exit
        """)
        analysis = BytecodeAnalysis(SymbolicProgram.from_program(prog))
        dead = analysis.dead_defs()
        assert 0 not in dead  # r1 feeds the call (conservatively live)


class TestStoreImmediate:
    def test_folds_fig4_pattern(self):
        prog = program("""
            r1 = 1
            *(u64 *)(r10 - 64) = r1
            r0 = *(u64 *)(r10 - 64)
            exit
        """)
        before = prog.ni
        rewrites = run_pass(StoreImmediatePass(), prog)
        assert rewrites >= 1
        assert prog.ni == before - 1
        assert any(i.is_store_imm for i in prog.insns)
        assert run_value(prog) == 1

    def test_no_fold_when_register_reused(self):
        prog = program("""
            r1 = 1
            *(u64 *)(r10 - 64) = r1
            r0 = r1
            exit
        """)
        run_pass(StoreImmediatePass(), prog)
        assert not any(i.is_store_imm for i in prog.insns)
        assert run_value(prog) == 1

    def test_no_fold_across_branch_target(self):
        prog = program("""
            r1 = 1
            if r1 == 1 goto st
            r1 = 2
        st:
            *(u64 *)(r10 - 64) = r1
            r0 = *(u64 *)(r10 - 64)
            exit
        """)
        run_pass(StoreImmediatePass(), prog)
        assert run_value(prog) == 1

    def test_dead_stack_store_removed(self):
        prog = program("""
            *(u32 *)(r10 - 4) = 0
            *(u32 *)(r10 - 4) = 1
            r0 = *(u32 *)(r10 - 4)
            exit
        """)
        before = prog.ni
        run_pass(StoreImmediatePass(), prog)
        assert prog.ni == before - 1
        assert run_value(prog) == 1

    def test_dead_store_kept_when_read_between(self):
        prog = program("""
            *(u32 *)(r10 - 4) = 7
            r2 = *(u32 *)(r10 - 4)
            *(u32 *)(r10 - 4) = 1
            r0 = r2
            exit
        """)
        before = prog.ni
        run_pass(StoreImmediatePass(), prog)
        assert run_value(prog) == 7

    def test_dead_store_kept_when_fp_escapes(self):
        prog = program("""
            *(u64 *)(r10 - 64) = 7
            r2 = r10
            r2 += -64
            *(u64 *)(r10 - 64) = 1
            r0 = *(u64 *)(r2 + 0)
            exit
        """)
        run_pass(StoreImmediatePass(), prog)
        assert run_value(prog) == 1  # stores preserved in order

    def test_removes_dead_defs(self):
        prog = program("""
            r3 = 99
            r0 = 0
            exit
        """)
        run_pass(StoreImmediatePass(), prog)
        assert prog.ni == 2


def _reference_overwritten(sym, analysis):
    """The dead-stack-store search as a forward scan from every stack
    store, as CP/DCE ran it before the single backward sweep."""
    def stack_store(insn):
        return insn.is_store and not insn.is_atomic and insn.dst == op.FP

    def overlaps(insn, lo, hi):
        return insn.off < hi and insn.off + insn.size_bytes > lo

    found = []
    live = sym.live_indices()
    for pos, index in enumerate(live):
        insn = sym.insns[index].insn
        if not stack_store(insn):
            continue
        lo, hi = insn.off, insn.off + insn.size_bytes
        for later in live[pos + 1:]:
            other = sym.insns[later].insn
            if analysis.is_branch_target(later) or other.is_jump \
                    or (other.is_alu and not other.uses_imm
                        and other.src == op.FP):
                break
            if ((other.is_load and other.src == op.FP)
                    or (other.is_atomic and other.dst == op.FP)) \
                    and overlaps(other, lo, hi):
                break
            if stack_store(other):
                if other.off <= lo and other.off + other.size_bytes >= hi:
                    found.append((index, later))
                    break
                if overlaps(other, lo, hi):
                    break
    return found


def _stack_traffic(rng, length=40):
    """A random program of stack stores, loads and atomics at
    overlapping offsets, with r10 copies, calls and forward jumps."""
    from repro.isa import instruction as ins

    def access():
        size = rng.choice((1, 2, 4, 8))
        return size, -size * rng.randrange(1, 5)

    insns = []
    for i in range(length):
        roll = rng.random()
        size, off = access()
        if roll < 0.45:
            insns.append(ins.store_imm(size, op.FP, off, rng.randrange(9)))
        elif roll < 0.6:
            insns.append(ins.store_reg(size, op.FP, off, 1))
        elif roll < 0.8:
            insns.append(ins.load(size, 2, op.FP, off))
        elif roll < 0.85:
            insns.append(ins.atomic(8, op.BPF_ATOMIC_ADD, op.FP, -8, 1))
        elif roll < 0.9:
            insns.append(ins.mov64_reg(3, op.FP))
        elif roll < 0.93:
            insns.append(ins.call(1))
        else:
            insns.append(ins.jump("jeq", 1, imm=0,
                                  off=rng.randrange(length - i)))
    insns.append(ins.exit_())
    return BpfProgram("stack", insns)


def test_dead_stack_store_sweep_matches_a_scan_per_store():
    import random

    from repro.codegen import compile_function
    from repro.frontend import compile_source
    from repro.fuzz.generator import generate

    rng = random.Random(7)
    programs = [_stack_traffic(rng) for _ in range(300)]
    for seed in range(20):
        programs.append(BpfProgram(
            "bc", assemble(generate("bytecode", seed).text)))
        case = generate("source", seed)
        module = compile_source(case.text, case.name)
        programs.append(compile_function(
            module.get(case.name), module, prog_type=case.prog_type,
            ctx_size=case.ctx_size, cleanup=False))
    checked = 0
    for prog in programs:
        sym = SymbolicProgram.from_program(prog)
        analysis = BytecodeAnalysis(sym)
        expected = _reference_overwritten(sym, analysis)
        assert StoreImmediatePass()._overwritten_stores(sym, analysis) \
            == expected
        checked += len(expected)
    assert checked  # the corpus has dead stack stores to find


class TestSuperwordBytecode:
    def test_merges_fig5_pattern(self):
        prog = program("""
            *(u32 *)(r10 - 4) = 0
            *(u32 *)(r10 - 8) = 1
            r0 = *(u64 *)(r10 - 8)
            exit
        """)
        before = run_value(prog.copy())
        rewrites = run_pass(SuperwordMergePass(), prog)
        assert rewrites == 1
        stores = [i for i in prog.insns if i.is_store_imm]
        assert len(stores) == 1
        assert stores[0].size_bytes == 8
        assert stores[0].off == -8
        assert run_value(prog) == before == 1

    def test_merges_byte_pairs_up_to_u32(self):
        prog = program("""
            *(u8 *)(r10 - 4) = 1
            *(u8 *)(r10 - 3) = 2
            *(u8 *)(r10 - 2) = 3
            *(u8 *)(r10 - 1) = 4
            r0 = *(u32 *)(r10 - 4)
            exit
        """)
        expected = run_value(prog.copy())
        rewrites = run_pass(SuperwordMergePass(), prog)
        assert rewrites == 3  # two u8 merges, then one u16 merge
        assert run_value(prog) == expected

    def test_no_merge_when_misaligned(self):
        prog = program("""
            *(u32 *)(r10 - 12) = 1
            *(u32 *)(r10 - 8) = 2
            r0 = 0
            exit
        """)
        assert run_pass(SuperwordMergePass(), prog) == 0  # -12 not 8-aligned

    def test_no_merge_across_load(self):
        prog = program("""
            *(u32 *)(r10 - 8) = 1
            r2 = *(u32 *)(r10 - 8)
            *(u32 *)(r10 - 4) = 0
            r0 = r2
            exit
        """)
        assert run_pass(SuperwordMergePass(), prog) == 0

    def test_merged_immediate_bounds(self):
        assert merged_immediate(1, 0, 4) == 1
        assert merged_immediate(0, 1, 4) is None  # needs bit 32: no s32
        assert merged_immediate(0x34, 0x12, 1) == 0x1234
        assert merged_immediate(0xFFFF, 0x7FFF, 2) == 0x7FFFFFFF

    def test_merged_immediate_sign_extension_cases(self):
        # 4-byte merge producing a negative-looking pattern is encodable
        assert merged_immediate(0xFFFF, 0xFFFF, 2) == -1


class TestCodeCompaction:
    def test_rewrites_shift_pair_to_mov32(self):
        prog = program("""
            r1 = *(u64 *)(r1 + 0)
            r1 <<= 32
            r1 >>= 32
            r0 = r1
            exit
        """)
        ctx = (0x1122334455667788).to_bytes(8, "little") + bytes(56)
        expected = run_value(prog.copy(), ctx)
        rewrites = run_pass(CodeCompactionPass(allow_alu32=True), prog)
        assert rewrites == 1
        text = disassemble(prog.insns)
        assert "w1 = w1" in text
        assert run_value(prog, ctx) == expected == 0x55667788

    def test_gated_by_alu32_support(self):
        prog = program("""
            r1 = 5
            r1 <<= 32
            r1 >>= 32
            r0 = r1
            exit
        """)
        assert run_pass(CodeCompactionPass(allow_alu32=False), prog) == 0

    def test_requires_same_register(self):
        prog = program("""
            r1 = 5
            r2 = 6
            r1 <<= 32
            r2 >>= 32
            r0 = r1
            exit
        """)
        assert run_pass(CodeCompactionPass(allow_alu32=True), prog) == 0

    def test_requires_shift_of_32(self):
        prog = program("""
            r1 = 5
            r1 <<= 16
            r1 >>= 16
            r0 = r1
            exit
        """)
        assert run_pass(CodeCompactionPass(allow_alu32=True), prog) == 0

    def test_marks_program_v3(self):
        prog = program("""
            r1 = 5
            r1 <<= 32
            r1 >>= 32
            r0 = r1
            exit
        """, mcpu="v2")
        run_pass(CodeCompactionPass(allow_alu32=True), prog)
        assert prog.mcpu == "v3"


class TestPeephole:
    FIG9 = """
        r8 = *(u64 *)(r1 + 0)
        r3 = 0xf0000000 ll
        r8 &= r3
        r8 >>= 28
        r0 = r8
        exit
    """

    def test_rewrites_fig9_masked_shift(self):
        prog = program(self.FIG9)
        ctx = (0xDEADBEEF12345678).to_bytes(8, "little") + bytes(56)
        expected = run_value(prog.copy(), ctx)
        before = prog.ni
        rewrites = run_pass(PeepholePass(), prog)
        assert rewrites == 1
        assert prog.ni == before - 2  # ld_imm64 took two slots
        text = disassemble(prog.insns)
        assert "<<= 32" in text and ">>= 60" in text
        assert run_value(prog, ctx) == expected

    def test_requires_mask_register_dead(self):
        prog = program("""
            r8 = *(u64 *)(r1 + 0)
            r3 = 0xf0000000 ll
            r8 &= r3
            r8 >>= 28
            r0 = r3
            exit
        """)
        assert run_pass(PeepholePass(), prog) == 0

    def test_requires_matching_shift(self):
        prog = program("""
            r8 = *(u64 *)(r1 + 0)
            r3 = 0xf0000000 ll
            r8 &= r3
            r8 >>= 24
            r0 = r8
            exit
        """)
        assert run_pass(PeepholePass(), prog) == 0

    def test_zero_shift_mask(self):
        prog = program("""
            r8 = *(u64 *)(r1 + 0)
            r3 = 0xffffffff ll
            r8 &= r3
            r8 >>= 0
            r0 = r8
            exit
        """)
        ctx = (0xAABBCCDD55667788).to_bytes(8, "little") + bytes(56)
        expected = run_value(prog.copy(), ctx)
        assert run_pass(PeepholePass(), prog) == 1
        assert run_value(prog, ctx) == expected == 0x55667788

    def test_removes_jump_to_next(self):
        prog = program("""
            r0 = 0
            goto next
        next:
            exit
        """)
        assert run_pass(PeepholePass(), prog) == 1
        assert prog.ni == 2

    def test_removes_a_chain_of_jumps_to_next(self):
        # goto +1; goto +0: deleting the second jump brings the first
        # one's target next to it, so both go
        chain = """
            r0 = 0
            goto out
            goto out
        out:
            exit
        """
        prog = program(chain)
        assert run_pass(PeepholePass(), prog) == 2
        assert prog.insns == program("r0 = 0\nexit").insns
        _, report = MerlinPipeline(enabled={"po"}).optimize_program(
            program(chain), validate=True)
        assert [(cert.kind, cert.certified)
                for cert in report.certificates] \
            == [("jump-thread", True)] * 2

    def test_keeps_real_jump(self):
        prog = program("""
            r0 = 0
            goto out
            r0 = 1
        out:
            exit
        """)
        assert run_pass(PeepholePass(), prog) == 0

    def test_mask_register_reread_blocks_rewrite(self):
        # r4 observes the mask between the load and the AND: deleting
        # the ld_imm64 would change what r4 sees, so PO must bail
        prog = program("""
            r8 = *(u64 *)(r1 + 0)
            r3 = 0xf0000000 ll
            r4 = r3
            r8 &= r3
            r8 >>= 28
            r0 = r8
            exit
        """)
        ctx = (0xDEADBEEF12345678).to_bytes(8, "little") + bytes(56)
        expected = run_value(prog.copy(), ctx)
        assert run_pass(PeepholePass(), prog) == 0
        assert run_value(prog, ctx) == expected

    def test_call_in_lookback_window_blocks_rewrite(self):
        # a helper call between load and AND could clobber the mask
        # (r1-r5 are caller-saved); the backward walk must stop at it
        prog = program("""
            r8 = *(u64 *)(r1 + 0)
            r3 = 0xf0000000 ll
            call 7
            r8 &= r3
            r8 >>= 28
            r0 = r8
            exit
        """)
        assert run_pass(PeepholePass(), prog) == 0

    def test_branch_in_lookback_window_blocks_rewrite(self):
        # another path may reach the AND without executing the load, so
        # any control flow inside the window kills the match
        prog = program("""
            r8 = *(u64 *)(r1 + 0)
            r3 = 0xf0000000 ll
            if r8 == 0 goto merge
        merge:
            r8 &= r3
            r8 >>= 28
            r0 = r8
            exit
        """)
        assert run_pass(PeepholePass(), prog) == 0

    def test_mask_def_exactly_lookback_back_still_found(self):
        # the ld_imm64 sits exactly LOOKBACK live instructions before
        # the AND — the inclusive boundary of the backward walk
        fillers = ["r4 = 1", "r5 = 2", "r6 = 3", "r4 += 1",
                   "r5 += 2", "r6 += 3", "r4 -= 1"]
        assert len(fillers) == PeepholePass.LOOKBACK - 1
        prog = program("\n".join([
            "r8 = *(u64 *)(r1 + 0)",
            "r3 = 0xf0000000 ll",
            *fillers,
            "r8 &= r3",
            "r8 >>= 28",
            "r0 = r8",
            "exit",
        ]))
        ctx = (0xDEADBEEF12345678).to_bytes(8, "little") + bytes(56)
        expected = run_value(prog.copy(), ctx)
        assert run_pass(PeepholePass(), prog) == 1
        text = disassemble(prog.insns)
        assert "<<= 32" in text and ">>= 60" in text
        assert run_value(prog, ctx) == expected

    def test_mask_def_beyond_lookback_not_found(self):
        # one more filler pushes the load out of the window
        fillers = ["r4 = 1", "r5 = 2", "r6 = 3", "r4 += 1",
                   "r5 += 2", "r6 += 3", "r4 -= 1", "r5 -= 1"]
        assert len(fillers) == PeepholePass.LOOKBACK
        prog = program("\n".join([
            "r8 = *(u64 *)(r1 + 0)",
            "r3 = 0xf0000000 ll",
            *fillers,
            "r8 &= r3",
            "r8 >>= 28",
            "r0 = r8",
            "exit",
        ]))
        assert run_pass(PeepholePass(), prog) == 0

    def test_jump_resolving_past_end_is_kept(self):
        # deleting the jump's target (and everything after it) makes the
        # resolved target land one past the last instruction; the
        # redundant-jump scan must neither crash nor delete the jump
        prog = program("""
            r0 = 1
            goto out
            r0 = 2
        out:
            exit
        """)
        sym = SymbolicProgram.from_program(prog)
        sym.delete(3)  # the exit: "goto out" now resolves to end-of-program
        assert sym.delete_jumps_to_next(sym.delete) == 0
        assert not sym.insns[1].deleted


class TestPassSafetyOnWorkloads:
    """Every bytecode pass must preserve the observable behaviour of
    every XDP workload."""

    @pytest.mark.parametrize("pass_factory", [
        StoreImmediatePass,
        SuperwordMergePass,
        lambda: CodeCompactionPass(allow_alu32=True),
        PeepholePass,
    ])
    def test_pass_preserves_workload_semantics(self, pass_factory):
        from repro.fuzz.oracle import equivalent, generate_tests
        from repro.workloads.xdp import ALL_XDP, compile_workload

        for workload in ALL_XDP[:8]:
            original = compile_workload(workload)
            rewritten = original.copy()
            run_pass(pass_factory(), rewritten)
            tests = generate_tests(original, count=6)
            assert equivalent(original, rewritten, tests), workload.name
