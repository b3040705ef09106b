"""Full-pipeline tests: Merlin end-to-end on source programs.

The invariants from the paper: optimized programs always pass the
verifier, never grow, behave identically, and verify in fewer NPI.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro import compile_baseline, compile_bpf, optimize
from repro.core import ALL_OPTIMIZERS, MerlinPipeline, MerlinReport
from repro.frontend import compile_source
from repro.isa import ProgramType
from repro.verifier import KERNELS, verify
from repro.vm import Machine
from repro.workloads.xdp import ALL_XDP, BY_NAME, compile_workload

SOURCE = """
map array counts(u32, u64, 8);

u32 entrypoint(u8* ctx) {
    u64 data = ctx->data;
    u64 end = ctx->data_end;
    if (data + 20 > end) { return XDP_DROP; }
    u16 proto = *(u16*)(data + 12);
    u32 word = *(u32*)(data + 14);
    u32 key = (word >> 28) & 7;
    u64* slot = map_lookup(counts, &key);
    if (slot != 0) { *slot += 1; }
    if (proto == 0x0800) { return XDP_PASS; }
    return XDP_DROP;
}
"""


def compile_pair(source=SOURCE, entry="entrypoint", **kwargs):
    baseline = compile_baseline(compile_bpf(source), entry, **kwargs)
    optimized, report = optimize(compile_bpf(source), entry, **kwargs)
    return baseline, optimized, report


class TestPipelineInvariants:
    def test_optimized_never_larger(self):
        baseline, optimized, report = compile_pair()
        assert optimized.ni <= baseline.ni
        assert report.ni_original == baseline.ni
        assert report.ni_optimized == optimized.ni

    def test_never_larger_when_the_ir_tier_costs_a_copy(self):
        # folding ``v0 | v0`` lengthens v0's live range, and the
        # allocator then spends one copy more than the native build
        source = """
u64 f(u8* ctx) {
    u64 v0 = *(u64*)(ctx + 33);
    u8 v1 = *(u8*)(ctx + 17);
    u64 v2 = *(u64*)(ctx + 37);
    u64 v3 = (u64)(v0 | v0);
    u8 v4 = *(u8*)(ctx + 50);
    return (u64)v0 ^ (u64)v1 ^ (u64)v2 ^ (u64)v3 ^ (u64)v4;
}
"""
        baseline, optimized, report = compile_pair(
            source, "f", prog_type=ProgramType.TRACEPOINT, ctx_size=64)
        assert report.rewrites_of("constprop") == 1
        assert optimized.ni <= baseline.ni
        assert report.ni_optimized == optimized.ni
        ctx = bytes(range(64))
        assert Machine(optimized).run(ctx=ctx).return_value == \
            Machine(baseline).run(ctx=ctx).return_value

    def test_reduction_is_positive_on_optimizable_code(self):
        _, _, report = compile_pair()
        assert report.ni_reduction > 0

    def test_optimized_verifies(self):
        _, optimized, _ = compile_pair()
        assert verify(optimized).ok

    def test_npi_not_worse(self):
        baseline, optimized, _ = compile_pair()
        assert verify(optimized).npi <= verify(baseline).npi

    def test_unknown_optimizer_rejected(self):
        with pytest.raises(ValueError):
            MerlinPipeline(enabled={"warp-drive"})

    def test_single_optimizer_subsets_work(self):
        for name in sorted(ALL_OPTIMIZERS):
            module = compile_bpf(SOURCE)
            pipeline = MerlinPipeline(enabled={name})
            program, report = pipeline.compile(module.get("entrypoint"),
                                               module, ctx_size=24)
            assert verify(program).ok, name
            assert report.ni_optimized <= report.ni_original, name

    def test_report_time_accounting(self):
        _, _, report = compile_pair()
        assert report.compile_seconds > 0
        assert all(s.time_seconds >= 0 for s in report.pass_stats)

    def test_pass_stats_have_both_tiers(self):
        _, _, report = compile_pair()
        tiers = {s.tier for s in report.pass_stats}
        assert tiers == {"ir", "bytecode"}

    def test_optimize_program_bytecode_only(self):
        baseline = compile_baseline(compile_bpf(SOURCE), "entrypoint")
        pipeline = MerlinPipeline()
        optimized, report = pipeline.optimize_program(baseline)
        assert optimized.ni <= baseline.ni
        assert report.ni_original == baseline.ni
        # original untouched
        assert baseline.ni == report.ni_original


class TestSemanticPreservation:
    @pytest.mark.parametrize("workload", ALL_XDP, ids=lambda w: w.name)
    def test_workload_equivalence(self, workload):
        from repro.fuzz.oracle import equivalent, generate_tests

        baseline = compile_workload(workload)
        optimized = compile_workload(workload, optimize=True)
        tests = generate_tests(baseline, count=6)
        assert equivalent(baseline, optimized, tests)

    @pytest.mark.parametrize("workload", ALL_XDP, ids=lambda w: w.name)
    def test_workload_verifies_after_merlin(self, workload):
        optimized = compile_workload(workload, optimize=True)
        result = verify(optimized)
        assert result.ok, result.reason

    @given(st.binary(min_size=24, max_size=24))
    @settings(max_examples=20, deadline=None)
    def test_random_ctx_equivalence(self, ctx_bytes):
        source = """
u64 f(u8* ctx) {
    u64 a = *(u64*)(ctx + 0);
    u32 b = *(u32*)(ctx + 9);
    u16 c = *(u16*)(ctx + 14);
    u64 acc = a ^ (u64)b;
    acc = acc + ((u64)c << 3);
    u32 low = (u32)acc;
    low = low >> 7;
    return acc + (u64)low;
}
"""
        module = compile_source(source)
        baseline = compile_baseline(module, "f",
                                    prog_type=ProgramType.TRACEPOINT,
                                    ctx_size=24)
        optimized, _ = optimize(compile_source(source), "f",
                                prog_type=ProgramType.TRACEPOINT,
                                ctx_size=24)
        r0 = Machine(baseline).run(ctx=ctx_bytes).return_value
        r1 = Machine(optimized).run(ctx=ctx_bytes).return_value
        assert r0 == r1

    def test_optimized_runs_cheaper(self):
        baseline, optimized, _ = compile_pair()
        from repro.workloads.packets import build_packet

        packet = build_packet(64)
        base_cycles = Machine(baseline).run(packet=packet).counters.cycles
        opt_cycles = Machine(optimized).run(packet=packet).counters.cycles
        assert opt_cycles <= base_cycles


# Multiplying into a u32 marks the value "dirty", so widening it back
# to u64 forces isel to emit the shl-32/shr-32 zero-extension pair that
# Code Compaction rewrites into a single ALU32 mov — at mcpu=v2 this is
# the only CC opportunity, which is exactly what the old
# `mcpu == "v3"` gate silently skipped.
CC_TRIGGER = """
u64 f(u8* ctx) {
    u32 a = *(u32*)(ctx + 0);
    u32 b = a * 3;
    u64 c = (u64)b;
    return c + 1;
}
"""


def _cc_rewrites(report):
    return sum(s.rewrites for s in report.pass_stats if s.name == "cc")


class TestKernelGating:
    def test_cc_fires_on_v2_program_under_v3_kernel(self):
        # Opt 5 is gated on the *loading kernel*, not the program's
        # starting mcpu: a v2 program on a v3-capable kernel gets its
        # zero-extension pairs compacted and is promoted to v3.
        module = compile_bpf(CC_TRIGGER)
        pipeline = MerlinPipeline(kernel=KERNELS["6.5"])
        program, report = pipeline.compile(
            module.get("f"), module, prog_type=ProgramType.TRACEPOINT,
            mcpu="v2", ctx_size=64)
        assert _cc_rewrites(report) > 0
        assert any(i.is_alu32 for i in program.insns)
        assert program.mcpu == "v3"
        assert verify(program, KERNELS["6.5"]).ok

    def test_cc_enabled_for_v3_program(self):
        module = compile_bpf(SOURCE)
        pipeline = MerlinPipeline(kernel=KERNELS["6.5"])
        program, report = pipeline.compile(module.get("entrypoint"), module,
                                           mcpu="v3", ctx_size=24)
        assert verify(program, KERNELS["6.5"]).ok

    def test_old_kernel_never_sees_alu32(self):
        module = compile_bpf(SOURCE)
        pipeline = MerlinPipeline(kernel=KERNELS["4.15"])
        program, _ = pipeline.compile(module.get("entrypoint"), module,
                                      mcpu="v3", ctx_size=24)
        assert verify(program, KERNELS["4.15"]).ok

    def test_cc_stays_off_under_pre_v3_kernel(self):
        # same v2 program, but a 4.15 loading kernel lacks ALU32
        # support: CC must not fire and the program must stay v2
        module = compile_bpf(CC_TRIGGER)
        pipeline = MerlinPipeline(kernel=KERNELS["4.15"])
        program, report = pipeline.compile(
            module.get("f"), module, prog_type=ProgramType.TRACEPOINT,
            mcpu="v2", ctx_size=64)
        assert _cc_rewrites(report) == 0
        assert not any(i.is_alu32 for i in program.insns)
        assert program.mcpu == "v2"
        assert verify(program, KERNELS["4.15"]).ok

    def test_v2_and_v3_entry_points_agree_under_v3_kernel(self):
        # with the gate fixed, the compacted v2 program behaves
        # identically to its uncompacted self
        module = compile_bpf(CC_TRIGGER)
        baseline = compile_baseline(compile_bpf(CC_TRIGGER), "f",
                                    prog_type=ProgramType.TRACEPOINT,
                                    ctx_size=64)
        pipeline = MerlinPipeline(kernel=KERNELS["6.5"])
        optimized, _ = pipeline.compile(
            module.get("f"), module, prog_type=ProgramType.TRACEPOINT,
            mcpu="v2", ctx_size=64)
        for fill in (0, 1, 0x5A, 0xFF):
            ctx = bytes([fill]) * 64
            assert (Machine(baseline).run(ctx=ctx).return_value
                    == Machine(optimized).run(ctx=ctx).return_value)


class TestCompileIdempotence:
    def test_compile_does_not_mutate_caller_function(self):
        from repro import ir

        module = compile_bpf(SOURCE)
        func = module.get("entrypoint")
        before = ir.print_function(func)
        pipeline = MerlinPipeline()
        pipeline.compile(func, module, ctx_size=24)
        assert ir.print_function(func) == before

    def test_compile_leaves_every_xdp_function_as_it_was(self):
        """An uncached compile, a cache miss and a cache hit each leave
        the caller's function as it was: its text, every value's use
        list (the same users in the same order, constants and arguments
        included), its name counter and its taken names.  A clone that
        shared a constant or an argument with the input would leave its
        own instructions on that value's use list."""
        from repro import ir
        from repro.cache import CompilationCache
        from repro.workloads.xdp import XDP_CTX_SIZE

        def state(func):
            values = list(func.args)
            for insn in func.instructions():
                values.append(insn)
                values.extend(insn.operands)
            return (ir.print_function(func), values,
                    [list(value.uses) for value in values],
                    func._name_counter, dict(func._taken))

        def assert_same(after, before, what):
            assert after[0] == before[0], what
            assert all(a is b for a, b in zip(after[1], before[1])), what
            for now, then in zip(after[2], before[2]):
                assert len(now) == len(then), what
                assert all(a is b for a, b in zip(now, then)), what
            assert after[3:] == before[3:], what

        cache = CompilationCache()
        for workload in ALL_XDP:
            module = compile_source(workload.source, workload.name)
            func = module.get(workload.entry)
            before = state(func)
            for what, use in (("uncached", None), ("miss", cache),
                              ("hit", cache)):
                _, report = MerlinPipeline().compile(
                    func, module, prog_type=ProgramType.XDP,
                    ctx_size=XDP_CTX_SIZE, cache=use)
                assert report.cached == (what == "hit")
                assert_same(state(func), before, f"{workload.name} {what}")

    def test_compile_twice_identical_reports(self):
        module = compile_bpf(SOURCE)
        func = module.get("entrypoint")
        pipeline = MerlinPipeline()
        prog1, rep1 = pipeline.compile(func, module, ctx_size=24)
        prog2, rep2 = pipeline.compile(func, module, ctx_size=24)
        assert prog1.insns == prog2.insns
        assert rep1.ni_original == rep2.ni_original
        assert rep1.ni_optimized == rep2.ni_optimized
        assert ([(s.name, s.tier, s.rewrites) for s in rep1.pass_stats]
                == [(s.name, s.tier, s.rewrites) for s in rep2.pass_stats])


class TestOneBytecodeTier:
    def test_one_conversion_and_three_analyses_per_compile(self,
                                                           monkeypatch):
        """An uncached compile builds a dependency analysis for the
        native cleanup of each of its two codegen runs and one for the
        whole bytecode tier, which converts the program once."""
        from collections import Counter

        from repro.core import BytecodeAnalysis, SymbolicProgram

        counts = Counter()
        build = BytecodeAnalysis.__init__
        convert = SymbolicProgram.from_program.__func__

        def counted_build(self, sym):
            counts["analyses"] += 1
            build(self, sym)

        def counted_convert(cls, program):
            counts["conversions"] += 1
            return convert(cls, program)

        monkeypatch.setattr(BytecodeAnalysis, "__init__", counted_build)
        monkeypatch.setattr(SymbolicProgram, "from_program",
                            classmethod(counted_convert))
        for workload in ALL_XDP[:4]:
            module = compile_source(workload.source, workload.name)
            counts.clear()
            MerlinPipeline().compile(
                module.get(workload.entry), module,
                prog_type=ProgramType.XDP, ctx_size=24)
            assert counts == {"analyses": 3, "conversions": 1}, \
                workload.name


class TestLongPrograms:
    """Programs past Python's recursion limit in every layer that walks
    a chain of merges: the SSA reads, codegen's dirty-bits test and
    the phis they leave go through the pipeline, the verifier and the
    VM."""

    @staticmethod
    def _rules(n: int) -> str:
        """*n* rules on u32 context words counting into a u32 verdict;
        returning it as u64 asks codegen whether its upper bits are
        clean, through a chain of *n* phis."""
        body = "\n".join(
            f"    if (ctx_load_u32(ctx, {4 * (i % 16)}) == {i}) "
            f"{{ verdict += 1; }}" for i in range(n))
        return (f"u64 f(u8* ctx) {{\n    u32 verdict = 0;\n{body}\n"
                f"    return verdict;\n}}")

    @staticmethod
    def _load(source: str):
        import struct

        module = compile_source(source)
        program, _ = MerlinPipeline().compile(
            module.get("f"), module, prog_type=ProgramType.TRACEPOINT,
            ctx_size=64)
        # context word k holds k; offset 0 also reads as the u64 500
        ctx = struct.pack("<Q", 500) + b"".join(
            struct.pack("<I", k) for k in range(2, 16))
        return program, Machine(program).run(ctx=ctx).return_value

    def test_a_thousand_rules(self):
        program, verdict = self._load(self._rules(1000))
        result = verify(program)
        assert (program.ni, result.ok, result.npi) == (6003, True, 6003)
        # rules 2-15 match their own word; words 0 and 1 hold 500 and 0
        assert verdict == 14

    def test_a_thousand_ifs(self):
        from tests.test_frontend import if_chain

        program, value = self._load(if_chain(1000, "writes"))
        assert verify(program).ok
        assert value == 499
        # the verifier walks this shape's paths in quadratic time (see
        # the next test), so at 1,000 ifs it is only compiled and run
        program, value = self._load(if_chain(1000, "reads"))
        assert value == 7 + 500

    def test_the_reads_shape_verifies_without_a_prune(self):
        """Pins the verifier on the shape it cannot take at 1,000 ifs.

        Precision liveness makes both operands of the closing ``z + y``
        critical, so the accumulator stays critical back through every
        ``if``, each state is compared precisely and none prunes: NPI
        grows quadratically (243,006 at 400 ifs; at 1,000 the program
        is rejected as too large).  A change to precision tracking
        moves these numbers."""
        from tests.test_frontend import if_chain

        program, value = self._load(if_chain(100, "reads"))
        result = verify(program)
        assert (program.ni, result.ok, result.npi, result.pruned) == \
            (506, True, 15756, 0)
        assert value == 7 + 100
