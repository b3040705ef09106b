"""Tests for the profile-guided layout tier (repro.core.bytecode_passes.
layout) and its seams.

Covers condition inversion, CFG decomposition, branch straightening and
chain reordering on hand-built programs, profile collection (including
the predictor-reset isolation regression), the signed-16-bit relocation
bail-out, witness certification (and refutation of tampered witnesses),
the pipeline/cache integration of ``pgo=``, the layout-on vs
layout-off behavioral property over fuzz-generated programs, and the
tier harness's behaviour trace.
"""

import pytest

from repro.cache import CompilationCache, compose_key
from repro.core import MerlinPipeline
from repro.core.bytecode_passes.layout import (
    ExecutionProfile,
    PgoSpec,
    ProfileGuidedLayoutPass,
    collect_profile,
    invert_condition,
)
from repro.frontend import compile_source
from repro.hw import ProfilingBranchPredictor
from repro.isa import BpfProgram, MapSpec, ProgramType, assemble
from repro.isa import opcodes as op
from repro.isa.cfg import Cfg
from repro.isa.instruction import jump, jump32, mov64_imm
from repro.tv import WitnessRecorder
from repro.tv.regioncheck import validate_bytecode_witness
from repro.verifier import KERNELS
from repro.vm import Machine


def prog(source, name="p"):
    return BpfProgram(name, assemble(source))


#: the hot direction is the jump *target* — exactly what straightening
#: exists to fix (the 2-bit predictor boots weakly not-taken)
HOT_TAKEN_SRC = """
    r0 = *(u64 *)(r1 + 0)
    if r0 != 0 goto hot
    r0 = 1
    exit
hot:
    r0 += 7
    r0 *= 3
    exit
"""

#: unconditional jump over a never-executed block: reordering should
#: make the ja disappear and sink the cold block
JA_CHAIN_SRC = """
    r0 = *(u64 *)(r1 + 0)
    goto work
dead:
    r0 = 99
    exit
work:
    r0 += 1
    exit
"""


def hot_profile(program, slot, entries=8):
    """A profile that saw the conditional at *slot* always taken."""
    del program
    return ExecutionProfile(entries=entries, taken={slot: entries},
                            not_taken={slot: 0})


def run_value(program, first_word):
    ctx = first_word.to_bytes(8, "little") + bytes(56)
    machine = Machine(program)
    return machine.run(ctx=ctx).return_value, machine.counters


# ======================================================== inversion
class TestInvertCondition:
    PAIRS = [
        ("jeq", "jne"), ("jne", "jeq"),
        ("jgt", "jle"), ("jle", "jgt"),
        ("jge", "jlt"), ("jlt", "jge"),
        ("jsgt", "jsle"), ("jsle", "jsgt"),
        ("jsge", "jslt"), ("jslt", "jsge"),
    ]

    @pytest.mark.parametrize("name,inverse", PAIRS)
    def test_every_pair(self, name, inverse):
        insn = jump(name, dst=3, imm=17, off=5)
        flipped = invert_condition(insn)
        assert flipped is not None
        assert flipped.jmp_op == op.JMP_OP_BY_NAME[inverse]
        # class, operands and immediate carry over
        assert flipped.dst == insn.dst
        assert flipped.imm == insn.imm
        assert flipped.opcode & op.CLASS_MASK == insn.opcode & op.CLASS_MASK

    def test_double_inversion_is_identity(self):
        insn = jump("jgt", dst=2, imm=9, off=3)
        assert invert_condition(invert_condition(insn)) == insn

    def test_jmp32_class_preserved(self):
        insn = jump32("jeq", dst=1, imm=4, off=2)
        flipped = invert_condition(insn)
        assert flipped.opcode & op.CLASS_MASK == op.BPF_JMP32
        assert flipped.jmp_op == op.BPF_JNE

    def test_jset_has_no_complement(self):
        assert invert_condition(jump("jset", dst=1, imm=1, off=1)) is None


# ======================================================== CFG shape
class TestControlFlowBlocks:
    def test_straight_line_is_one_block(self):
        cfg = Cfg(prog("""
    r0 = 4
    r0 += 1
    exit
""").insns)
        assert len(cfg.first) == 1
        assert cfg.kind[0] == "exit"
        assert (cfg.first[0], cfg.last[0]) == (0, 2)

    def test_diamond(self):
        cfg = Cfg(prog(HOT_TAKEN_SRC).insns)
        # entry(cond) / cold fall-through(exit) / hot target(exit)
        assert cfg.kind == ["cond", "exit", "exit"]
        assert cfg.taken[0] == 2
        assert cfg.fall[0] == 1

    def test_ja_blocks_and_successors(self):
        cfg = Cfg(prog(JA_CHAIN_SRC).insns)
        assert cfg.kind == ["ja", "exit", "exit"]
        assert cfg.taken[0] == 2  # goto work


# ================================================= the pass itself
class TestStraightening:
    def test_hot_taken_branch_is_inverted(self):
        program = prog(HOT_TAKEN_SRC)
        assert program.insns[1].jmp_op == op.BPF_JNE
        layout = ProfileGuidedLayoutPass(hot_profile(program, slot=1))
        assert layout.run(program) >= 1
        # straightened: the condition flipped and the hot block now
        # falls through directly after the compare
        assert program.insns[1].jmp_op == op.BPF_JEQ

    def test_behavior_identical_and_misses_drop(self):
        before = prog(HOT_TAKEN_SRC)
        after = before.copy()
        layout = ProfileGuidedLayoutPass(hot_profile(before, slot=1))
        assert layout.run(after) >= 1
        miss_before = miss_after = 0
        for word in (0, 1, 5, 0xFFFF, 3):
            rv_b, counters_b = run_value(before, word)
            rv_a, counters_a = run_value(after, word)
            assert rv_b == rv_a
            miss_before += counters_b.branch_misses
            miss_after += counters_a.branch_misses
        # the hot (nonzero) inputs no longer pay the cold-start
        # mispredict; the rare cold input may pay instead
        assert miss_after < miss_before

    def test_cold_profile_is_a_noop(self):
        program = prog(HOT_TAKEN_SRC)
        snapshot = list(program.insns)
        # the hot direction already falls through: nothing to do
        profile = ExecutionProfile(entries=8, taken={1: 0},
                                   not_taken={1: 8})
        assert ProfileGuidedLayoutPass(profile).run(program) == 0
        assert program.insns == snapshot

    def test_empty_profile_is_a_noop(self):
        program = prog(HOT_TAKEN_SRC)
        snapshot = list(program.insns)
        assert ProfileGuidedLayoutPass(ExecutionProfile()).run(program) == 0
        assert program.insns == snapshot


class TestReordering:
    def test_hot_ja_is_eliminated_and_cold_sinks(self):
        program = prog(JA_CHAIN_SRC)
        ni_before = len(program.insns)
        profile = ExecutionProfile(entries=8)  # no conditionals at all
        layout = ProfileGuidedLayoutPass(profile)
        assert layout.run(program) >= 1
        # the goto disappeared: work is now the fall-through
        assert len(program.insns) == ni_before - 1
        plain_ja = [i for i in program.insns
                    if i.is_jump and not i.is_call and not i.is_exit
                    and i.jmp_op == op.BPF_JA]
        assert plain_ja == []
        for word in (0, 7, 123456):
            rv, _ = run_value(program, word)
            assert rv == word + 1  # dead block (r0 = 99) never runs

    def test_relocation_overflow_bails_untouched(self):
        # entry cond jumps over ~40k filler instructions; any layout
        # that moves the far block adjacent would leave the filler
        # block's fixup ja out of signed-16-bit range
        filler = 40_000
        insns = ([jump("jeq", dst=0, imm=0, off=filler)]
                 + [mov64_imm(0, 0)] * filler
                 + [jump("exit")])
        program = BpfProgram("far", insns)
        snapshot = list(program.insns)
        profile = ExecutionProfile(entries=4, taken={0: 4},
                                   not_taken={0: 0})
        assert ProfileGuidedLayoutPass(profile).run(program) == 0
        assert program.insns == snapshot


# ============================================== witnesses / TV seam
class TestLayoutWitnesses:
    def relay(self, source, slot=1):
        program = prog(source)
        layout = ProfileGuidedLayoutPass(hot_profile(program, slot=slot))
        recorder = WitnessRecorder()
        layout.recorder = recorder
        rewrites = layout.run(program)
        return program, rewrites, recorder.witnesses

    def test_every_rewrite_carries_a_certified_witness(self):
        _, rewrites, witnesses = self.relay(HOT_TAKEN_SRC)
        assert rewrites >= 1
        assert len(witnesses) == 1
        witness = witnesses[0]
        assert witness.kind == "layout"
        cert = validate_bytecode_witness(witness)
        assert cert.status == "proved"
        assert cert.certified

    def test_tampered_body_is_refuted(self):
        _, _, witnesses = self.relay(HOT_TAKEN_SRC)
        witness = witnesses[0]
        # corrupt a non-branch instruction in the claimed result
        for index, insn in enumerate(witness.after_insns):
            if not insn.is_jump and not insn.is_exit:
                witness.after_insns[index] = insn.with_(imm=insn.imm ^ 1)
                break
        cert = validate_bytecode_witness(witness)
        assert cert.status == "refuted"

    def test_retargeted_branch_is_refuted(self):
        _, _, witnesses = self.relay(HOT_TAKEN_SRC)
        witness = witnesses[0]
        # rewire the straightened conditional somewhere else entirely
        for index, insn in enumerate(witness.after_insns):
            if insn.is_jump and not insn.is_exit and insn.jmp_op != op.BPF_JA:
                witness.after_insns[index] = insn.with_(off=insn.off + 1)
                break
        cert = validate_bytecode_witness(witness)
        assert cert.status == "refuted"


# ===================================== profile collection (S1 seam)
class TestProfileCollection:
    def test_collect_profile_sees_the_hot_direction(self):
        program = prog(HOT_TAKEN_SRC)
        profile = collect_profile(program, spec=PgoSpec(tests=6, seed=3))
        assert profile.entries == 6
        total = sum(profile.taken.values()) + sum(profile.not_taken.values())
        assert total == 6  # one conditional per entry

    def test_predictor_state_leaks_across_machines_without_reset(self):
        """The regression the explicit reset() guards against: a shared
        predictor carries both tallies and 2-bit counter state from one
        Machine to the next."""
        program = prog(HOT_TAKEN_SRC)
        ctx = (7).to_bytes(8, "little") + bytes(56)
        predictor = ProfilingBranchPredictor()
        cold = Machine(program, branch=predictor)
        cold.run(ctx=ctx)
        tallies_after_one = dict(predictor.taken_counts)
        warm = Machine(program, branch=predictor)
        warm.run(ctx=ctx)
        # tallies accumulated across machines...
        assert sum(predictor.taken_counts.values()) > \
            sum(tallies_after_one.values())
        # ...the second machine inherited a trained predictor (no
        # mispredict penalty in its cycles)...
        assert warm.counters.cycles < cold.counters.cycles
        # ...and its mirrored miss counter reports the *shared*
        # cumulative stats — a miss this machine never paid
        assert warm.counters.branch_misses == cold.counters.branch_misses
        predictor.reset()
        assert predictor.taken_counts == {}
        assert predictor.not_taken_counts == {}
        fresh = Machine(program, branch=predictor)
        fresh.run(ctx=ctx)
        # reset restores cold-start behavior exactly
        assert fresh.counters.cycles == cold.counters.cycles
        assert fresh.counters.branch_misses == 1

    def test_back_to_back_collections_are_independent(self):
        """collect_profile resets the shared predictor, so profiling
        program A first must not change program B's profile."""
        a = prog(JA_CHAIN_SRC, name="a")
        b = prog(HOT_TAKEN_SRC, name="b")
        spec = PgoSpec(tests=5, seed=11)
        isolated = collect_profile(b, spec=spec)
        shared = ProfilingBranchPredictor()
        collect_profile(a, spec=spec, predictor=shared)
        chained = collect_profile(b, spec=spec, predictor=shared)
        assert chained.taken == isolated.taken
        assert chained.not_taken == isolated.not_taken
        assert chained.entries == isolated.entries


# ========================================== pipeline / cache seams
BRANCHY_C = """
u64 pick(u8* ctx) {
    u64 a = *(u64*)(ctx + 0);
    u64 acc = 1;
    if (a > 3) { acc = a * 5; }
    if (a > 300) { acc = acc + 9; }
    return acc;
}
"""


class TestPipelineIntegration:
    def test_optimize_program_pgo_validates_layout(self):
        program = prog(HOT_TAKEN_SRC)
        optimized, report = MerlinPipeline().optimize_program(
            program, validate=True, pgo=True)
        stats = [s for s in report.pass_stats if s.name == "layout"]
        assert stats and stats[0].rewrites >= 1
        assert stats[0].details["profiled_runs"] == PgoSpec().tests
        layout_certs = [c for c in report.certificates
                        if c.pass_name == "layout"]
        assert layout_certs and all(c.certified for c in layout_certs)

    def test_pgo_spec_variants_accepted(self):
        program = prog(HOT_TAKEN_SRC)
        pipeline = MerlinPipeline()
        for pgo in (True, {"tests": 4, "seed": 5}, PgoSpec(tests=4)):
            _, report = pipeline.optimize_program(program.copy(), pgo=pgo)
            assert any(s.name == "layout" for s in report.pass_stats)

    def test_compile_pgo_is_a_distinct_cache_entry(self):
        cache = CompilationCache()
        module = compile_source(BRANCHY_C)
        func = module.get("pick")
        pipeline = MerlinPipeline()

        def compile_once(pgo):
            return pipeline.compile(
                func, module, prog_type=ProgramType.TRACEPOINT,
                ctx_size=64, cache=cache, pgo=pgo)

        _, with_pgo = compile_once(True)
        _, without = compile_once(None)
        assert without.cached is False  # different key, not a hit
        assert with_pgo.cache_key != without.cache_key
        _, again = compile_once(True)
        assert again.cached is True
        assert again.cache_key == with_pgo.cache_key

    def test_compose_key_folds_the_pgo_fingerprint(self):
        base = dict(enabled=frozenset({"cc"}), kernel=KERNELS["6.5"])
        plain = compose_key("ir-text", **base)
        spec = PgoSpec()
        keyed = compose_key("ir-text", pgo=spec.fingerprint(), **base)
        other = compose_key("ir-text", pgo=PgoSpec(tests=9).fingerprint(),
                            **base)
        assert len({plain, keyed, other}) == 3

    def test_fingerprint_is_deterministic(self):
        assert PgoSpec().fingerprint() == PgoSpec().fingerprint()
        assert PgoSpec.from_dict({"tests": 3}).fingerprint() == \
            PgoSpec(tests=3).fingerprint()


# ======================================== layout-on vs layout-off (S4)
def _layout_property(count, seed_base):
    from repro.fuzz import check_layout, generate, observe_baseline
    from repro.fuzz.generator import LAYERS

    for index in range(count):
        layer = LAYERS[index % len(LAYERS)]
        case = generate(layer, seed_base + index)
        baseline = observe_baseline(case)
        divergence = check_layout(case, baseline)
        assert divergence is None, (
            f"layout changed behaviour for {layer} seed "
            f"{seed_base + index}: {divergence.detail}")


class TestLayoutProperty:
    def test_layout_preserves_behavior_smoke(self):
        _layout_property(24, seed_base=52_000)

    @pytest.mark.fuzz
    def test_layout_preserves_behavior_200(self):
        """ISSUE 7 S4: 200 fuzz-generated programs, layout-on vs
        layout-off bit-identical on the reference interpreter, every
        rewrite certified (check_layout enforces both)."""
        _layout_property(200, seed_base=91_000)


# ============================================ tier harness (bench-layout)
def _map_writer(value):
    """Stores *value* under key 0 of a hash map and returns 0."""
    return BpfProgram("w", assemble(f"""
        *(u64 *)(r10 - 8) = 0
        *(u64 *)(r10 - 16) = {value}
        r1 = map_fd 1 ll
        r2 = r10
        r2 += -8
        r3 = r10
        r3 += -16
        r4 = 0
        call 2
        r0 = 0
        exit
    """), maps={"m": MapSpec("m", "hash", 8, 8, 4)})


class TestTierHarness:
    def test_map_writes_change_the_trace(self):
        """Equal return values are not enough: a run that writes a
        different map value is a different behaviour."""
        from repro.eval.layoutperf import VariantCounters, _measure, _mismatch
        from repro.fuzz.oracle import TestCase

        tests = [TestCase(ctx=bytes(64), packet=None)]
        one = _measure(_map_writer(1), tests, 0, 1000, VariantCounters())
        two = _measure(_map_writer(2), tests, 0, 1000, VariantCounters())
        assert [obs.return_value for obs in one] == [0]
        assert [obs.return_value for obs in two] == [0]
        assert one != two
        assert _mismatch(3, one, two) == "program 3 run 0: state differs"
        again = _measure(_map_writer(1), tests, 0, 1000, VariantCounters())
        assert _mismatch(3, one, again) == ""
