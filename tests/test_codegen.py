"""Backend tests: lowering patterns, register allocation, emission."""

import pytest

from repro import ir
from repro.codegen import (
    VREG_BASE,
    EmissionError,
    LinearScanAllocator,
    LowFunction,
    LowInsn,
    SelectionError,
    StackOverflowError,
    compile_function,
    emit,
    select,
)
from repro.isa import instruction as ins
from repro.isa import disassemble
from repro.isa import opcodes as op
from repro.vm import Machine


def build_function(body):
    """body(builder, func) constructs the IR; returns the function."""
    func = ir.Function("f", ir.I64, [ir.pointer(ir.I8)], ["ctx"])
    block = func.add_block("entry")
    builder = ir.IRBuilder(block)
    body(builder, func)
    ir.validate_function(func)
    return func


def compile_and_run(body, ctx=b"\x00" * 64):
    func = build_function(body)
    program = compile_function(func, ctx_size=64)
    return program, Machine(program).run(ctx=ctx).return_value


class TestLoweringPatterns:
    def test_unaligned_u16_load_decomposes(self):
        """align-1 i16 load becomes two byte loads + shl/or (Fig. 6)."""

        def body(b, f):
            p = b.gep_const(f.args[0], 4, ir.I16)
            v = b.load(p, align=1)
            b.ret(b.zext(v, ir.I64))

        program, _ = compile_and_run(body)
        text = disassemble(program.insns)
        assert text.count("*(u8 *)") == 2
        assert "<<= 8" in text
        assert "*(u16 *)" not in text

    def test_aligned_u16_load_is_single(self):
        def body(b, f):
            p = b.gep_const(f.args[0], 4, ir.I16)
            v = b.load(p, align=2)
            b.ret(b.zext(v, ir.I64))

        program, _ = compile_and_run(body)
        assert "*(u16 *)" in disassemble(program.insns)

    def test_unaligned_u64_load_value_correct(self):
        def body(b, f):
            p = b.gep_const(f.args[0], 3, ir.I64)
            b.ret(b.load(p, align=1))

        ctx = bytes(range(64))
        _, value = compile_and_run(body, ctx=ctx)
        import struct

        assert value == struct.unpack_from("<Q", bytes(range(64)), 3)[0]

    def test_align2_u64_load_uses_u16_units(self):
        def body(b, f):
            p = b.gep_const(f.args[0], 2, ir.I64)
            b.ret(b.load(p, align=2))

        program, _ = compile_and_run(body)
        assert disassemble(program.insns).count("*(u16 *)") == 4

    def test_zext_of_dirty_i32_emits_shift_pair(self):
        """The shl 32 / shr 32 idiom (Fig. 8 origin)."""

        def body(b, f):
            p = b.gep_const(f.args[0], 0, ir.I32)
            v = b.load(p, align=4)
            dirty = b.add(v, ir.Constant(ir.I32, 1))
            b.ret(b.zext(dirty, ir.I64))

        program, _ = compile_and_run(body)
        text = disassemble(program.insns)
        assert "<<= 32" in text and ">>= 32" in text

    def test_zext_of_clean_value_is_free(self):
        def body(b, f):
            p = b.gep_const(f.args[0], 0, ir.I32)
            v = b.load(p, align=4)  # loads zero-extend: clean
            b.ret(b.zext(v, ir.I64))

        program, _ = compile_and_run(body)
        assert "<<= 32" not in disassemble(program.insns)

    def test_lshr_dirty_i32_emits_mask_pattern(self):
        """ld_imm64 mask; and; shr (Fig. 9)."""

        def body(b, f):
            p = b.gep_const(f.args[0], 0, ir.I32)
            v = b.load(p, align=4)
            dirty = b.add(v, ir.Constant(ir.I32, 1))
            sh = b.lshr(dirty, ir.Constant(ir.I32, 28))
            b.ret(b.zext(sh, ir.I64))

        program, _ = compile_and_run(body)
        text = disassemble(program.insns)
        assert "0xf0000000 ll" in text
        assert ">>= 28" in text

    def test_lshr_semantics(self):
        def body(b, f):
            p = b.gep_const(f.args[0], 0, ir.I32)
            v = b.load(p, align=4)
            dirty = b.add(v, ir.Constant(ir.I32, 0x10))
            sh = b.lshr(dirty, ir.Constant(ir.I32, 28))
            b.ret(b.zext(sh, ir.I64))

        ctx = (0xE0000000).to_bytes(4, "little") + bytes(60)
        _, value = compile_and_run(body, ctx=ctx)
        assert value == ((0xE0000000 + 0x10) & 0xFFFFFFFF) >> 28

    def test_store_constant_materializes_register(self):
        """Constants are moved into a register before storing (Fig. 4)."""

        def body(b, f):
            slot = b.alloca(ir.I64, align=8)
            b.store(b.i64(1), slot, align=8)
            b.ret(b.load(slot, align=8))

        func = build_function(body)
        program = compile_function(func, ctx_size=64, cleanup=False)
        text = disassemble(program.insns)
        assert "= 1" in text  # mov rX, 1
        assert not any(i.is_store_imm for i in program.insns)

    def test_atomicrmw_lowered_to_xadd(self):
        def body(b, f):
            slot = b.alloca(ir.I64, align=8)
            b.store(b.i64(5), slot, align=8)
            b.atomic_rmw("add", slot, b.i64(3))
            b.ret(b.load(slot, align=8))

        program, value = compile_and_run(body)
        assert value == 8
        assert any(i.is_atomic for i in program.insns)

    def test_atomicrmw_fetch_when_result_used(self):
        def body(b, f):
            slot = b.alloca(ir.I64, align=8)
            b.store(b.i64(5), slot, align=8)
            old = b.atomic_rmw("add", slot, b.i64(3))
            b.ret(old)

        program, value = compile_and_run(body)
        assert value == 5
        fetches = [i for i in program.insns
                   if i.is_atomic and (i.imm & op.BPF_FETCH)]
        assert fetches

    def test_signed_division_rejected(self):
        def body(b, f):
            v = b.binop("sdiv", b.i64(4), b.i64(2))
            b.ret(v)

        func = ir.Function("f", ir.I64)
        block = func.add_block("entry")
        builder = ir.IRBuilder(block)
        with pytest.raises(SelectionError):
            body(builder, func)
            compile_function(func)

    def test_gep_folded_into_load_offset(self):
        def body(b, f):
            p = b.gep_const(f.args[0], 40, ir.I64)
            b.ret(b.load(p, align=8))

        program, _ = compile_and_run(body)
        loads = [i for i in program.insns if i.is_load and i.size_bytes == 8]
        assert any(i.off == 40 for i in loads)

    def test_select_semantics(self):
        def body(b, f):
            p = b.gep_const(f.args[0], 0, ir.I64)
            v = b.load(p, align=8)
            cond = b.icmp("ugt", v, b.i64(10))
            result = b.select(cond, b.i64(111), b.i64(222))
            b.ret(result)

        ctx_hi = (50).to_bytes(8, "little") + bytes(56)
        ctx_lo = (5).to_bytes(8, "little") + bytes(56)
        _, hi = compile_and_run(body, ctx=ctx_hi)
        _, lo = compile_and_run(body, ctx=ctx_lo)
        assert (hi, lo) == (111, 222)

    def test_icmp_materialized_when_multiply_used(self):
        def body(b, f):
            p = b.gep_const(f.args[0], 0, ir.I64)
            v = b.load(p, align=8)
            cond = b.icmp("eq", v, b.i64(7))
            wide = b.zext(cond, ir.I64)
            doubled = b.add(wide, wide)
            b.ret(doubled)

        ctx = (7).to_bytes(8, "little") + bytes(56)
        _, value = compile_and_run(body, ctx=ctx)
        assert value == 2


class TestRegisterAllocation:
    def test_high_pressure_spills_correctly(self):
        """Sum of 14 live values forces spilling; result must be exact."""

        def body(b, f):
            values = []
            for i in range(14):
                p = b.gep_const(f.args[0], i * 4, ir.I32)
                values.append(b.zext(b.load(p, align=4), ir.I64))
            total = values[0]
            for v in values[1:]:
                total = b.add(total, v)
            b.ret(total)

        import struct

        ctx = b"".join(struct.pack("<I", i * 3 + 1) for i in range(16))
        _, value = compile_and_run(body, ctx=ctx)
        assert value == sum(i * 3 + 1 for i in range(14))

    def test_values_live_across_call_survive(self):
        def body(b, f):
            p = b.gep_const(f.args[0], 0, ir.I64)
            before = b.load(p, align=8)
            b.call("ktime_get_ns", [], ir.I64)
            b.call("get_smp_processor_id", [], ir.I32)
            b.ret(before)

        ctx = (987654).to_bytes(8, "little") + bytes(56)
        _, value = compile_and_run(body, ctx=ctx)
        assert value == 987654

    def test_call_args_in_order(self):
        def body(b, f):
            slot = b.alloca(ir.ArrayType(ir.I8, 16), align=8)
            buf = b.bitcast(slot, ir.pointer(ir.I8))
            b.call("probe_read", [buf, b.i64(8), f.args[0]], ir.I64)
            wide = b.bitcast(slot, ir.pointer(ir.I64))
            b.ret(b.load(wide, align=8))

        ctx = (0x1122334455667788).to_bytes(8, "little") + bytes(56)
        _, value = compile_and_run(body, ctx=ctx)
        assert value == 0x1122334455667788

    def test_stack_overflow_detected(self):
        def body(b, f):
            for _ in range(70):
                b.alloca(ir.I64, align=8)
            b.ret(b.i64(0))

        func = build_function(body)
        with pytest.raises(StackOverflowError):
            compile_function(func)

    def test_no_virtual_registers_survive(self):
        from repro.workloads.xdp import ALL_XDP, compile_workload

        program = compile_workload(ALL_XDP[4])  # xdp-balancer
        for insn in program.insns:
            assert insn.dst <= op.R10
            if not insn.is_ld_imm64:
                assert insn.src <= op.R10


def reference_intervals(low):
    """Each virtual register's ``(start, end)`` as the allocator first
    computed them: its own basic blocks (leaders at every label and
    after every jump, call and exit), set-based liveness solved to a
    fixpoint, and an interval from the first to the last position
    where the register is named or live at a block's entry or exit."""
    from repro.isa import Instruction

    insns = list(low.insns())
    label_pos, pos = {}, 0
    for item in low.items:
        if isinstance(item, LowInsn):
            pos += 1
        else:
            label_pos[item.name] = pos
    n = len(insns)
    leaders = {0, *label_pos.values()}
    leaders.update(i + 1 for i, low_insn in enumerate(insns)
                   if op.IS_JUMP[low_insn.opcode])
    leaders = sorted(p for p in leaders if p < n)
    block_at = {start: b for b, start in enumerate(leaders)}
    lasts = [start - 1 for start in leaders[1:]] + [n - 1]
    uses = [[r for r in Instruction.uses(i) if r >= VREG_BASE]
            for i in insns]
    defs = [[r for r in Instruction.defs(i) if r >= VREG_BASE]
            for i in insns]
    succs, gen, kill = [], [], []
    for first, last in zip(leaders, lasts):
        code = insns[last].opcode
        out = []
        if op.IS_EXIT[code]:
            pass
        elif op.IS_JUMP[code] and not op.IS_CALL[code]:
            out.append(block_at[label_pos[insns[last].target]])
            if op.OP_CODE[code] != op.BPF_JA and last + 1 < n:
                out.append(block_at[last + 1])
        elif last + 1 < n:
            out.append(block_at[last + 1])
        succs.append(out)
        g, k = set(), set()
        for i in range(first, last + 1):
            g.update(r for r in uses[i] if r not in k)
            k.update(defs[i])
        gen.append(g)
        kill.append(k)
    live_in = [set() for _ in leaders]
    live_out = [set() for _ in leaders]
    changed = True
    while changed:
        changed = False
        for b in reversed(range(len(leaders))):
            out = set().union(*(live_in[s] for s in succs[b]))
            new_in = gen[b] | (out - kill[b])
            if (out, new_in) != (live_out[b], live_in[b]):
                live_out[b], live_in[b] = out, new_in
                changed = True
    spans = {}

    def touch(reg, lo, hi):
        old = spans.get(reg, (lo, hi))
        spans[reg] = (min(old[0], lo), max(old[1], hi))

    for b, (first, last) in enumerate(zip(leaders, lasts)):
        for reg in live_in[b]:
            touch(reg, first, first)
        for reg in live_out[b]:
            touch(reg, last, last)
        for i in range(first, last + 1):
            for reg in uses[i] + defs[i]:
                touch(reg, i, i)
    return spans


def _interval_corpus():
    """(name, source, entry): the XDP set, every suite program at scale
    0.05 and the first 200 source-layer fuzz programs with a loop."""
    from repro.fuzz.generator import generate
    from repro.workloads.suites import generate_suite
    from repro.workloads.xdp import ALL_XDP

    cases = [(w.name, w.source, w.entry) for w in ALL_XDP]
    for suite in ("sysdig", "tetragon", "tracee"):
        cases += [(p.name, p.source, p.entry)
                  for p in generate_suite(suite, scale=0.05)]
    looped = 0
    seed = 0
    while looped < 200:
        case = generate("source", seed)
        if "for (" in case.text:
            cases.append((f"fuzz{seed}", case.text, case.name))
            looped += 1
        seed += 1
    return cases


class TestIntervalsOnTheSharedCfg:
    """The allocator solves liveness on :class:`repro.isa.cfg.Cfg`,
    which splits blocks only at jump targets and after jumps and exits;
    interval extents do not depend on where blocks split."""

    def test_extents_match_the_set_based_builder(self):
        from repro.frontend import compile_source

        for name, source, entry in _interval_corpus():
            module = compile_source(source, name)
            low = select(module.get(entry), module)
            expected = reference_intervals(low)
            allocator = LinearScanAllocator(low)
            allocator.run()
            got = {reg: (iv.start, iv.end)
                   for reg, iv in allocator.intervals.items()}
            assert got == expected, name

    def test_tied_intervals_go_to_the_lower_vreg_first(self):
        """v17 (live in) and v16 (defined at 0) both span [0, 1]; v17
        is named first, but the lower vreg gets the lower register."""
        low = LowFunction("tie")
        v16, v17 = low.new_vreg(), low.new_vreg()
        low.emit(ins.mov64_reg(v16, v17))
        low.emit(ins.store_reg(8, v17, 0, v16))
        low.emit(ins.mov64_imm(op.R0, 0))
        low.emit(ins.exit_())
        allocator = LinearScanAllocator(low)
        allocator.run()
        tied = allocator.intervals
        assert (tied[v16].start, tied[v16].end) \
            == (tied[v17].start, tied[v17].end) == (0, 1)
        assert (tied[v16].phys, tied[v17].phys) == (op.R0, op.R1)


class TestControlFlowEmission:
    def test_diamond(self):
        def body(b, f):
            then = f.add_block("then")
            other = f.add_block("other")
            merge = f.add_block("merge")
            p = b.gep_const(f.args[0], 0, ir.I64)
            v = b.load(p, align=8)
            cond = b.icmp("ugt", v, b.i64(100))
            b.cbr(cond, then, other)
            b.position_at_end(then)
            x = b.add(v, b.i64(1))
            b.br(merge)
            b.position_at_end(other)
            y = b.add(v, b.i64(2))
            b.br(merge)
            b.position_at_end(merge)
            phi = b.phi(ir.I64)
            phi.add_incoming(x, then)
            phi.add_incoming(y, other)
            b.ret(phi)

        ctx_hi = (200).to_bytes(8, "little") + bytes(56)
        ctx_lo = (50).to_bytes(8, "little") + bytes(56)
        _, hi = compile_and_run(body, ctx=ctx_hi)
        _, lo = compile_and_run(body, ctx=ctx_lo)
        assert (hi, lo) == (201, 52)

    def test_loop_with_phi(self):
        def body(b, f):
            header = f.add_block("header")
            loop_body = f.add_block("body")
            done = f.add_block("done")
            entry = b.block
            b.br(header)
            b.position_at_end(header)
            i_phi = b.phi(ir.I64)
            acc_phi = b.phi(ir.I64)
            cond = b.icmp("ult", i_phi, b.i64(10))
            b.cbr(cond, loop_body, done)
            b.position_at_end(loop_body)
            acc2 = b.add(acc_phi, i_phi)
            i2 = b.add(i_phi, b.i64(1))
            b.br(header)
            i_phi.add_incoming(b.i64(0), entry)
            i_phi.add_incoming(i2, loop_body)
            acc_phi.add_incoming(b.i64(0), entry)
            acc_phi.add_incoming(acc2, loop_body)
            b.position_at_end(done)
            b.ret(acc_phi)

        _, value = compile_and_run(body)
        assert value == 45

    def test_branch_offsets_valid(self):
        from repro.workloads.xdp import ALL_XDP, compile_workload

        for workload in ALL_XDP[:6]:
            program = compile_workload(workload)
            slots = program.slot_offsets()
            total = program.ni
            slot = 0
            for insn in program.insns:
                if insn.is_jump and not insn.is_call and not insn.is_exit:
                    target = slot + insn.slots + insn.off
                    assert 0 <= target <= total
                    assert target in slots or target == total
                slot += insn.slots


class TestEmission:
    """``emit`` resolves labels through a symbolic program now; its
    checks and their order stay the same."""

    def test_labels_resolve_to_slot_offsets(self):
        low = LowFunction("f")
        low.emit(ins.jump("jeq", 1, imm=0), target="end")
        low.label("mid")
        low.emit(ins.ld_imm64(0, 1 << 40))
        low.emit(ins.jump("ja"), target="mid")
        low.emit(ins.exit_())
        low.label("end")
        insns = emit(low).insns
        assert [insn.off for insn in insns] == [4, 0, -3, 0]

    def test_duplicate_label(self):
        low = LowFunction("f")
        low.emit(ins.mov64_imm(VREG_BASE, 1))  # found only after labels
        low.label("a")
        low.emit(ins.exit_())
        low.label("a")
        with pytest.raises(EmissionError, match="duplicate label 'a'"):
            emit(low)

    def test_undefined_label(self):
        low = LowFunction("f")
        low.emit(ins.jump("ja"), target="nowhere")
        low.emit(ins.exit_())
        with pytest.raises(EmissionError, match="undefined label 'nowhere'"):
            emit(low)

    def test_surviving_virtual_register(self):
        low = LowFunction("f")
        low.emit(ins.mov64_reg(op.R0, VREG_BASE + 3))
        low.emit(ins.exit_())
        with pytest.raises(EmissionError,
                           match="virtual register v19 survived allocation"):
            emit(low)

    def test_branch_offset_out_of_range(self):
        low = LowFunction("f")
        low.emit(ins.jump("ja"), target="far")
        for _ in range(1 << 15):
            low.emit(ins.mov64_imm(op.R0, 0))
        low.label("far")
        low.emit(ins.exit_())
        with pytest.raises(EmissionError,
                           match="branch offset 32768 out of 16-bit range"):
            emit(low)


class TestEachInstructionBuiltOnce:
    """Selection and allocation record an instruction's fields on its
    ``LowInsn``; label resolution builds the one ``Instruction`` the
    program keeps, and ``to_insns`` builds a jump again only when a
    cleanup deletion moved its target."""

    def test_constructions_over_the_xdp_set(self, monkeypatch):
        import repro.codegen as codegen
        from repro.core import SymbolicProgram
        from repro.frontend import compile_source
        from repro.isa import Instruction, ProgramType
        from repro.workloads.xdp import ALL_XDP, XDP_CTX_SIZE

        built = []
        phase = ["compile_function"]
        allocated = []
        init = Instruction.__init__

        def counted(self, opcode, dst=0, src=0, off=0, imm=0):
            built.append((phase[0], opcode, dst, src))
            init(self, opcode, dst, src, off, imm)

        def tagged(name, fn):
            def run(*args, **kwargs):
                outer, phase[0] = phase[0], name
                try:
                    return fn(*args, **kwargs)
                finally:
                    phase[0] = outer
            return run

        def resolve(low):
            allocated.append(len(list(low.insns())))
            return resolve_labels(low)

        resolve_labels = codegen.resolve_labels
        monkeypatch.setattr(Instruction, "__init__", counted)
        for name in ("select", "allocate", "_native_cleanup"):
            monkeypatch.setattr(codegen, name,
                                tagged(name, getattr(codegen, name)))
        monkeypatch.setattr(codegen, "resolve_labels",
                            tagged("resolve_labels", resolve))
        monkeypatch.setattr(SymbolicProgram, "to_insns",
                            tagged("to_insns", SymbolicProgram.to_insns))
        spill_load = op.BPF_LDX | op.BPF_DW | op.BPF_MEM
        spill_store = op.BPF_STX | op.BPF_DW | op.BPF_MEM
        for workload in ALL_XDP:
            module = compile_source(workload.source, workload.name)
            built.clear()
            allocated.clear()
            program = compile_function(
                module.get(workload.entry), module,
                prog_type=ProgramType.XDP, ctx_size=XDP_CTX_SIZE)
            name = workload.name
            assert all(dst < VREG_BASE and src < VREG_BASE
                       for _, _, dst, src in built), name
            phases = {p for p, *_ in built}
            assert phases <= {"allocate", "resolve_labels", "to_insns"}, name
            for where, opcode, dst, src in built:
                if where == "allocate":
                    assert (opcode == spill_load and src == op.FP) or \
                        (opcode == spill_store and dst == op.FP), name
            resolved = sum(p == "resolve_labels" for p, *_ in built)
            assert resolved == allocated[0], name
            jumps = sum(insn.is_jump and not insn.is_call
                        and not insn.is_exit for insn in program.insns)
            rebuilt = [opcode for where, opcode, *_ in built
                       if where == "to_insns"]
            assert all(op.IS_JUMP[code] for code in rebuilt), name
            assert len(rebuilt) <= jumps, name


# ------------------------------------------------------ dirty upper bits
class RecursiveDirtySelector:
    """``InstructionSelector._is_dirty`` as first written: a recursion
    that caches a pessimistic True for the value it is computing, so a
    phi cycle reads as dirty."""

    @staticmethod
    def is_dirty(self, value):
        if not self._is_narrow(value):
            return False
        if value in self._dirty_cache:
            return self._dirty_cache[value]
        self._dirty_cache[value] = True  # breaks phi cycles pessimistically
        result = RecursiveDirtySelector.compute_dirty(self, value)
        self._dirty_cache[value] = result
        return result

    @staticmethod
    def compute_dirty(self, value):
        from repro.ir import instructions as iri

        if isinstance(value, (ir.Constant, ir.Argument)):
            return False
        if isinstance(value, (iri.Load, iri.Call, iri.ICmp)):
            return False
        if isinstance(value, iri.Cast):
            if value.opcode == "zext":
                return False
            if value.opcode == "trunc":
                return True
            return self._is_dirty(value.value)
        if isinstance(value, iri.BinaryOp):
            if value.opcode == "and":
                return self._is_dirty(value.lhs) and self._is_dirty(value.rhs)
            if value.opcode in ("or", "xor"):
                return self._is_dirty(value.lhs) or self._is_dirty(value.rhs)
            if value.opcode in ("lshr", "udiv", "urem"):
                return False
            return True
        if isinstance(value, iri.Select):
            return self._is_dirty(value.operands[1]) or self._is_dirty(
                value.operands[2])
        if isinstance(value, iri.Phi):
            return any(self._is_dirty(v) for v, _ in value.incoming())
        return True


NARROW_LOOPS = """
u64 f(u8* ctx) {
    u32 acc = 0;
    u16 mix = *(u16*)(ctx + 2);
    u8 b = *(u8*)(ctx + 1);
    for (u32 i = 0; i < 8; i += 1) {
        acc = acc * 3 + b;
        if (acc > 100) { acc = acc ^ i; } else { mix = mix | (u16)acc; }
        u32 j = 0;
        while (j < i) { mix = (mix & (u16)j) | 1; j += 1; }
    }
    return acc + mix;
}
"""


def _dirty_answers(source, entry, selector_is_dirty=None):
    """Every (value, answer) the selector cached while lowering *entry*."""
    from repro.codegen import InstructionSelector
    from repro.frontend import compile_source

    module = compile_source(source)
    func = module.get(entry)
    selector = InstructionSelector(func, module)
    if selector_is_dirty is not None:
        selector._is_dirty = selector_is_dirty.__get__(selector)
    selector.run()
    where = {id(insn): (block.name, index) for block in func.blocks
             for index, insn in enumerate(block.instructions)}
    return sorted(
        (repr(where.get(id(value), (type(value).__name__, value.ref,
                                    str(value.type)))), answer)
        for value, answer in selector._dirty_cache.items())


def test_dirty_bits_match_the_recursion():
    from repro.fuzz.generator import generate
    from repro.workloads.xdp import ALL_XDP

    sources = [(w.source, w.entry) for w in ALL_XDP]
    sources.append((NARROW_LOOPS, "f"))
    fuzz = [generate("source", seed) for seed in range(120)]
    sources += [(case.text, case.name) for case in fuzz
                if "for (" in case.text]
    checked = 0
    for source, entry in sources:
        expected = _dirty_answers(source, entry,
                                  RecursiveDirtySelector.is_dirty)
        assert _dirty_answers(source, entry) == expected
        checked += len(expected)
    assert len(sources) > 60 and checked > 250
