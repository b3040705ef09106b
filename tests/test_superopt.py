"""The caching superoptimizer tier: canonicalization, search, memo
replay, site certification, and end-to-end behaviour preservation.

The tier's soundness story is layered and these tests attack each
layer: canonicalization must be a sound renaming (hypothesis round-
trips it), the search must be a pure function of (window, spec) so
memo replay is byte-identical to a cold search, and — the backstop —
every rewrite must re-certify at the apply site, so even a poisoned
memo entry can only waste a lookup, never change behaviour.
"""

import functools
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.cache import CompilationCache
from repro.cache.keys import key_for_window
from repro.core import BytecodeAnalysis, MerlinPipeline, SymbolicProgram
from repro.core.pass_manager import run_bytecode_passes
from repro.core.pipeline import run_tier, tier_spec
from repro.core.superopt import (
    MEMO_SCHEMA,
    RewriteMemoEntry,
    SuperoptSpec,
    SuperoptimizerPass,
    UncanonicalError,
    canonicalize_window,
    certify_rewrite,
    fold_constant_pair,
    instantiate,
    merge_store_imm,
    narrow_ld_imm64,
    search_window,
    validate_memo_entry,
    window_supported,
)
from repro.fuzz.differential import build_program, observe_baseline
from repro.fuzz.generator import LAYERS, generate
from repro.fuzz.oracle import generate_tests, observe_battery
from repro.isa import BpfProgram, assemble
from repro.isa import instruction as ins
from repro.verifier import DEFAULT_KERNEL, verify
from repro.workloads.xdp import ALL_XDP, BY_NAME, compile_workload

SPEC = SuperoptSpec()


def run_pass(program, spec=SPEC, memo=None):
    """Run the pass on a copy; returns (program, pass, witnesses)."""
    from repro.tv import WitnessRecorder

    copied = program.copy()
    superopt = SuperoptimizerPass(spec, memo=memo)
    recorder = WitnessRecorder()
    run_bytecode_passes(copied, [superopt], recorder)
    return copied, superopt, recorder.witnesses


class TestSpec:
    def test_round_trip(self):
        spec = SuperoptSpec(window=3, iterations=7, seed=99)
        assert SuperoptSpec.from_dict(spec.to_dict()) == spec

    def test_fingerprints(self):
        spec = SuperoptSpec(window=3, iterations=7, seed=99)
        assert "window=3" in spec.fingerprint()
        # the search fingerprint deliberately omits the window length:
        # a canonical window's search outcome does not depend on it
        assert "window" not in spec.search_fingerprint()

    def test_pipeline_normalization(self):
        norm = functools.partial(tier_spec, "superopt")
        assert norm(None) is None
        assert norm(False) is None
        assert norm(True) == SuperoptSpec()
        assert norm({"window": 2}) == SuperoptSpec(window=2)
        spec = SuperoptSpec(seed=5)
        assert norm(spec) is spec


class TestCanonicalization:
    def test_register_permutation_shares_memo_key(self):
        a = [ins.mov64_reg(1, 2), ins.alu64("add", 1, src=1)]
        b = [ins.mov64_reg(3, 5), ins.alu64("add", 3, src=3)]
        ca, _, _ = canonicalize_window(a)
        cb, _, _ = canonicalize_window(b)
        assert ca == cb
        assert key_for_window(ca) == key_for_window(cb)

    def test_stack_offset_shift_shares_memo_key(self):
        a = [ins.mov64_imm(1, 3), ins.store_reg(8, 10, -8, 1)]
        b = [ins.mov64_imm(4, 3), ins.store_reg(8, 10, -256, 4)]
        ca, _, da = canonicalize_window(a)
        cb, _, db = canonicalize_window(b)
        assert ca == cb
        assert da == {10: -8} and db == {10: -256}
        assert key_for_window(ca) == key_for_window(cb)

    def test_redefined_base_not_rebased(self):
        window = [ins.mov64_reg(1, 2), ins.load(8, 3, 1, 40)]
        canonical, _, deltas = canonicalize_window(window)
        # r1 is defined inside the window: rebasing its offset would
        # conflate different absolute addresses
        assert deltas == {}
        assert canonical[1].off == 40

    def test_unsupported_windows_rejected(self):
        assert not window_supported([ins.exit_()])
        assert not window_supported([ins.jump("ja", off=1)])
        assert not window_supported([ins.call(1)])
        assert not window_supported([ins.ld_imm64(1, 3, src=1)])  # map fd
        with pytest.raises(UncanonicalError):
            canonicalize_window([ins.exit_()])

    def test_rebased_offset_overflow_rejected(self):
        window = [ins.load(1, 2, 1, -(1 << 15)),
                  ins.load(1, 3, 1, (1 << 15) - 1)]
        with pytest.raises(UncanonicalError):
            canonicalize_window(window)

    def test_instantiate_rejects_foreign_register(self):
        window = [ins.mov64_imm(1, 3)]
        _, rename, deltas = canonicalize_window(window)
        with pytest.raises(UncanonicalError):
            instantiate([ins.mov64_reg(0, 7)], rename, deltas)

    @given(st.integers(0, 10_000), st.integers(1, 4))
    @settings(max_examples=50, deadline=None)
    def test_round_trip(self, seed, length):
        """instantiate(canonicalize(w)) == w for arbitrary supported
        windows: canonicalization is a lossless renaming."""
        rng = random.Random(seed)
        window = []
        for _ in range(length):
            roll = rng.random()
            dst = rng.randrange(0, 10)
            src = rng.randrange(0, 10)
            if roll < 0.3:
                window.append(ins.mov64_imm(dst, rng.randrange(0, 1 << 10)))
            elif roll < 0.5:
                window.append(ins.alu64(rng.choice(["add", "and", "xor"]),
                                        dst, src=src))
            elif roll < 0.7:
                window.append(ins.load(rng.choice([1, 2, 4, 8]), dst, src,
                                       rng.randrange(-64, 64)))
            else:
                window.append(ins.store_reg(8, 10,
                                            -8 * rng.randrange(1, 8), src))
        canonical, rename, deltas = canonicalize_window(window)
        assert instantiate(canonical, rename, deltas) == window
        # canonicalizing the canonical form is a fixed point
        again, _, _ = canonicalize_window(canonical)
        assert again == canonical


class TestSearch:
    def test_deterministic(self):
        canonical, _, _ = canonicalize_window(
            [ins.mov64_imm(0, 10), ins.alu64("add", 0, imm=5)])
        a = search_window(canonical, SPEC)
        b = search_window(canonical, SPEC)
        assert a == b

    def test_identity_add_dropped(self):
        canonical, _, _ = canonicalize_window([ins.alu64("add", 1, imm=0)])
        entry = search_window(canonical, SPEC)
        assert entry.found
        assert entry.rewrite == () and entry.clobbered == ()

    def test_ld_imm64_narrowed(self):
        canonical, _, _ = canonicalize_window([ins.ld_imm64(1, 5)])
        entry = search_window(canonical, SPEC)
        assert entry.found
        assert ins.ni(entry.rewrite) < 2

    def test_constant_pair_folds(self):
        folded = fold_constant_pair(ins.mov64_imm(1, 10),
                                    ins.alu64("add", 1, imm=5))
        assert folded == ins.mov64_imm(1, 15)
        assert fold_constant_pair(ins.mov64_imm(1, 10),
                                  ins.alu64("add", 2, imm=5)) is None

    def test_store_imm_pair_merges(self):
        merged = merge_store_imm(ins.store_imm(2, 10, -8, 1),
                                 ins.store_imm(2, 10, -6, 2))
        assert merged == ins.store_imm(4, 10, -8, 0x0002_0001)
        # misaligned double-width result is refused (verifier alignment)
        assert merge_store_imm(ins.store_imm(2, 10, -6, 1),
                               ins.store_imm(2, 10, -4, 2)) is None
        # a combined value that does not sign-extend from s32 is refused
        assert merge_store_imm(ins.store_imm(4, 10, -8, 1),
                               ins.store_imm(4, 10, -4, 2)) is None
        canonical, _, _ = canonicalize_window(
            [ins.store_imm(2, 10, -8, 1), ins.store_imm(2, 10, -6, 2)])
        entry = search_window(canonical, SPEC)
        assert entry.found
        assert entry.clobbered == ()
        assert len(entry.rewrite) == 1 and entry.rewrite[0].is_store_imm

    def test_narrow_ld_imm64_range(self):
        assert narrow_ld_imm64(ins.ld_imm64(1, -7)) == ins.mov64_imm(1, -7)
        assert narrow_ld_imm64(ins.ld_imm64(1, 1 << 40)) is None

    def test_negative_result_memoized(self):
        canonical, _, _ = canonicalize_window(
            [ins.store_reg(8, 10, -8, 1)])
        entry = search_window(canonical, SPEC)
        assert not entry.found
        assert entry.rewrite is None

    def test_rewrites_certify(self):
        """Every positive search outcome re-certifies standalone."""
        windows = [
            [ins.alu64("add", 1, imm=0)],
            [ins.ld_imm64(2, 5)],
            [ins.mov64_imm(1, 10), ins.alu64("add", 1, imm=5)],
            [ins.store_imm(2, 10, -8, 1), ins.store_imm(2, 10, -6, 2)],
        ]
        for window in windows:
            canonical, _, _ = canonicalize_window(window)
            entry = search_window(canonical, SPEC)
            assert entry.found, window
            clobbers = certify_rewrite(canonical, entry.rewrite,
                                       seed=SPEC.seed)
            assert clobbers is not None, window


@pytest.fixture(scope="module")
def xdp2():
    return compile_workload(BY_NAME["xdp2"])


class TestPass:
    def test_shrinks_and_verifies(self, xdp2):
        merlin, _ = MerlinPipeline().optimize_program(xdp2)
        superopted, superopt, witnesses = run_pass(merlin)
        assert superopted.ni <= merlin.ni
        assert verify(superopted, DEFAULT_KERNEL).ok
        assert superopt.counters["applied"] == len(witnesses)

    def test_all_witnesses_certified(self, xdp2):
        from repro.tv.regioncheck import validate_bytecode_witness

        merlin, _ = MerlinPipeline().optimize_program(xdp2)
        _, superopt, witnesses = run_pass(merlin)
        assert superopt.counters["applied"] > 0
        assert len(witnesses) == superopt.counters["applied"]
        for witness in witnesses:
            assert validate_bytecode_witness(witness).certified

    def test_behavior_identical(self, xdp2):
        superopted, _, _ = run_pass(xdp2)
        tests = generate_tests(xdp2, count=6, seed=11)
        before = observe_battery(xdp2, tests, seed=11)
        after = observe_battery(superopted, tests, seed=11)
        for a, b in zip(before, after):
            assert a.fault == b.fault
            assert a.return_value == b.return_value
            assert a.state == b.state

    def test_pipeline_compile_wiring(self):
        from repro import compile_bpf, optimize

        source = """
        u64 f(u8* ctx) {
            u64 a = *(u64*)(ctx + 0);
            return a + 1 + 2 + 3;
        }
        """
        module = compile_bpf(source)
        plain, _ = optimize(module, "f", ctx_size=64)
        tuned, report = optimize(module, "f", ctx_size=64, superopt=True)
        names = [stat.name for stat in report.pass_stats]
        assert "superopt" in names
        stat = report.pass_stats[names.index("superopt")]
        assert stat.details["windows"] > 0
        assert tuned.ni <= plain.ni


class TestSharedAnalysis:
    """The tier keeps one analysis current with ``refresh()`` after each
    applied window; a new analysis after each window is the
    reference."""

    @staticmethod
    def rebuild_after_each_window(program, memo):
        """The superopt tier over *program* in place, converting it on
        its own and building a new :class:`BytecodeAnalysis` after
        every applied window; returns the pass's counters."""
        superopt = SuperoptimizerPass(SPEC, memo=memo)
        sym = SymbolicProgram.from_program(program)
        analysis = BytecodeAnalysis(sym)
        pos = 0
        while pos < len(analysis.live):
            if superopt._try_window(sym, analysis, pos):
                analysis = BytecodeAnalysis(sym)
                continue
            pos += 1
        program.insns = sym.to_insns()
        return superopt.counters

    def test_refresh_matches_a_rebuild_after_each_window(self):
        # the tier's input, as in a compile: Merlin's output
        programs = sorted((compile_workload(w, optimize=True)
                           for w in ALL_XDP),
                          key=lambda p: (p.ni, p.name))[:4]
        programs += [build_program(generate("source", seed),
                                   MerlinPipeline().enabled)
                     for seed in range(20)]
        reference_memo, memo = CompilationCache(), CompilationCache()
        applied = 0
        for program in programs:
            expected = program.copy()
            counters = self.rebuild_after_each_window(expected,
                                                      reference_memo)
            tuned = program.copy()
            stats = run_tier("superopt", tuned, SPEC, memo=memo)
            assert tuned.encode() == expected.encode(), program.name
            assert stats.details == counters, program.name
            applied += counters["applied"]
        assert applied  # windows were applied, so refresh() ran


class TestMemoReplay:
    def test_warm_replay_skips_search(self, xdp2):
        memo = CompilationCache()
        cold, cold_pass, _ = run_pass(xdp2, memo=memo)
        assert cold_pass.counters["searches"] > 0
        warm, warm_pass, _ = run_pass(xdp2, memo=memo)
        # every window replays from the memo: zero searches, and the
        # output is byte-identical to the cold search
        assert warm_pass.counters["searches"] == 0
        assert warm_pass.counters["memo_hits"] > 0
        assert warm.insns == cold.insns

    def test_memo_replays_across_programs(self):
        memo = CompilationCache()
        a = BpfProgram("a", assemble(
            "r1 = 10\nr1 += 5\nr0 = r1\nexit"))
        b = BpfProgram("b", assemble(
            "r3 = 10\nr3 += 5\nr0 = r3\nexit"))  # same shape, new regs
        _, pass_a, _ = run_pass(a, memo=memo)
        _, pass_b, _ = run_pass(b, memo=memo)
        assert pass_a.counters["searches"] > 0
        assert pass_b.counters["searches"] == 0
        assert pass_b.counters["memo_hits"] > 0

    def test_disk_memo_shared_between_instances(self, tmp_path, xdp2):
        cold_cache = CompilationCache(directory=str(tmp_path))
        cold, _, _ = run_pass(xdp2, memo=cold_cache)
        # a fresh cache handle on the same directory (a new process in
        # real deployments) replays without searching
        warm_cache = CompilationCache(directory=str(tmp_path))
        warm, warm_pass, _ = run_pass(xdp2, memo=warm_cache)
        assert warm_pass.counters["searches"] == 0
        assert warm.insns == cold.insns


class TestAdversarialMemo:
    def test_truncated_disk_entry_falls_back_to_search(self, tmp_path,
                                                       xdp2):
        import os

        cache = CompilationCache(directory=str(tmp_path))
        reference, _, _ = run_pass(xdp2, memo=cache)
        for root, _dirs, files in os.walk(tmp_path):
            for name in files:
                path = os.path.join(root, name)
                with open(path, "rb") as handle:
                    blob = handle.read()
                with open(path, "wb") as handle:
                    handle.write(blob[:max(1, len(blob) // 2)])
        fresh = CompilationCache(directory=str(tmp_path))
        out, superopt, _ = run_pass(xdp2, memo=fresh)
        assert fresh.stats.read_errors > 0
        assert superopt.counters["searches"] > 0
        assert out.insns == reference.insns

    def test_wrong_type_entry_rejected(self, xdp2):
        memo = CompilationCache()
        reference, _, _ = run_pass(xdp2, memo=memo)
        # overwrite every memoized outcome with a wrong-typed object
        for key in list(memo._memory):
            memo.put_object(key, "garbage")
        out, superopt, _ = run_pass(xdp2, memo=memo)
        # every poisoned key is rejected once, re-searched, and the
        # repaired entry written back (hits after that are legitimate)
        assert superopt.counters["memo_invalid"] >= 1
        assert superopt.counters["searches"] >= \
            superopt.counters["memo_invalid"]
        assert out.insns == reference.insns

    def test_poisoned_rewrite_rejected_at_site(self, xdp2):
        """A structurally valid memo entry whose rewrite is semantic
        garbage: site certification refuses it and behaviour is the
        no-memo reference, bit for bit."""
        memo = CompilationCache()
        reference, reference_pass, _ = run_pass(xdp2, memo=memo)
        poisoned = 0
        for key in list(memo._memory):
            entry = memo.get_object(key)
            if isinstance(entry, RewriteMemoEntry) and len(
                    entry.canonical) >= 1:
                memo.put_object(key, RewriteMemoEntry(
                    MEMO_SCHEMA, entry.canonical,
                    (ins.mov64_imm(0, 0x7ea5),), (), entry.searched,
                    entry.search))
                poisoned += 1
        assert poisoned > 0
        out, superopt, _ = run_pass(xdp2, memo=memo)
        assert superopt.counters["site_rejects"] > 0
        tests = generate_tests(xdp2, count=6, seed=3)
        a = observe_battery(xdp2, tests, seed=3)
        b = observe_battery(out, tests, seed=3)
        for lhs, rhs in zip(a, b):
            assert lhs.fault == rhs.fault
            assert lhs.return_value == rhs.return_value
            assert lhs.state == rhs.state

    def test_validate_memo_entry_screens(self):
        canonical, _, _ = canonicalize_window([ins.alu64("add", 1, imm=0)])
        fingerprint = SPEC.search_fingerprint()
        good = RewriteMemoEntry(MEMO_SCHEMA, canonical, (), (), 1,
                                fingerprint)
        assert validate_memo_entry(good, canonical, fingerprint)
        assert not validate_memo_entry("junk", canonical, fingerprint)
        assert not validate_memo_entry(
            RewriteMemoEntry(MEMO_SCHEMA + 1, canonical, (), (), 1,
                             fingerprint), canonical, fingerprint)
        assert not validate_memo_entry(
            RewriteMemoEntry(MEMO_SCHEMA, canonical, (), (), 1, "other"),
            canonical, fingerprint)
        other, _, _ = canonicalize_window([ins.mov64_imm(0, 1)])
        assert not validate_memo_entry(good, other, fingerprint)
        assert not validate_memo_entry(
            RewriteMemoEntry(MEMO_SCHEMA, canonical, ("junk",), (), 1,
                             fingerprint), canonical, fingerprint)
        assert not validate_memo_entry(
            RewriteMemoEntry(MEMO_SCHEMA, canonical,
                             (ins.mov64_imm(0, 1),), (10,), 1,
                             fingerprint), canonical, fingerprint)


class TestPropertySweep:
    """The generated-program sweep: superopt output must match baseline
    behaviour on the observation oracle, with
    every rewrite certified, and the shared warm memo must replay to
    byte-identical programs (cached == fresh).

    The budget defaults to a fast-tier slice; the CI ``superopt`` job
    sets ``REPRO_SWEEP_BUDGET=200`` for the full fixed-seed
    certification sweep."""

    SEED = 77

    @staticmethod
    def budget() -> int:
        import os

        return int(os.environ.get("REPRO_SWEEP_BUDGET", "40"))

    def test_sweep(self):
        from repro.fuzz.oracle import first_divergence
        from repro.tv.regioncheck import validate_bytecode_witness

        budget = self.budget()
        memo = CompilationCache()
        checked = 0
        memo_hits = 0
        for index in range(budget):
            layer = LAYERS[index % len(LAYERS)]
            case = generate(layer, self.SEED * 1_000_003 + index)
            try:
                baseline = observe_baseline(case, DEFAULT_KERNEL, 3)
            except Exception:
                continue  # toolchain rejected the program outright
            checked += 1

            # cold search: behaviour preserved and 100% of applied
            # rewrites carry a certified witness
            cold, cold_pass, witnesses = run_pass(baseline.program)
            assert len(witnesses) == cold_pass.counters["applied"]
            for witness in witnesses:
                cert = validate_bytecode_witness(witness)
                assert cert.certified, (index, cert.detail)
            before = observe_battery(baseline.program, baseline.tests,
                                     seed=baseline.oracle_seed)
            after = observe_battery(cold, baseline.tests,
                                    seed=baseline.oracle_seed)
            assert first_divergence(before, after) is None, index

            # cached == fresh: a memo shared across the whole sweep
            # must reproduce the fresh pass bit for bit
            cached, cached_pass, _ = run_pass(baseline.program, memo=memo)
            assert cached.insns == cold.insns, index
            memo_hits += cached_pass.counters["memo_hits"]
        assert checked >= budget * 3 // 4
        # generated programs share window shapes: the sweep-wide memo
        # must actually replay (warm lookups that skipped the search)
        assert memo_hits > 0
