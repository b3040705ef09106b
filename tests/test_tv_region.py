"""Bytecode-tier witness validation: real rewrites, tampered claims,
and the planted-bug self-test the validator must catch."""

import pytest

from repro.core import MerlinPipeline
from repro.core.bytecode_passes.symbolic import SymbolicProgram
from repro.isa import BpfProgram, assemble
from repro.isa import instruction as ins
from repro.tv import (
    RewriteWitness,
    TranslationValidationError,
    WitnessRecorder,
)
from repro.tv.regioncheck import validate_bytecode_witness

pytestmark = pytest.mark.tv


def _program(text: str, mcpu: str = "v2") -> BpfProgram:
    return BpfProgram("t", assemble(text), ctx_size=64, mcpu=mcpu)


def _certs(text: str, enabled, mcpu: str = "v2"):
    pipeline = MerlinPipeline(enabled=enabled)
    _optimized, report = pipeline.optimize_program(
        _program(text, mcpu), validate="report")
    return report.certificates


class TestRealRewritesCertify:
    def test_code_compaction_proved(self):
        certs = _certs("r0 <<= 32\nr0 >>= 32\nexit", {"cc"})
        assert [c.pass_name for c in certs] == ["cc"]
        assert certs[0].status == "proved"
        assert certs[0].method == "symbolic"

    def test_store_imm_fold_proved(self):
        certs = _certs(
            "r1 = 7\n*(u64 *)(r10 - 8) = r1\nr0 = 0\nexit", {"cpdce"})
        assert certs, "no witnesses emitted"
        assert all(c.certified for c in certs)
        assert any(c.kind == "region" for c in certs)

    def test_superword_merge_proved(self):
        certs = _certs(
            "*(u32 *)(r10 - 16) = 7\n*(u32 *)(r10 - 12) = 0\n"
            "r0 = *(u64 *)(r10 - 16)\nexit", {"slm"})
        assert [c.pass_name for c in certs] == ["slm"]
        assert certs[0].status == "proved"

    def test_peephole_masked_shift_proved(self):
        certs = _certs(
            "r3 = 0xffffff00 ll\nr8 &= r3\nr8 >>= 8\nr0 = r8\nexit", {"po"})
        assert [c.pass_name for c in certs] == ["peephole"]
        assert certs[0].status == "proved"
        assert certs[0].kind == "region"

    def test_jump_thread_structural(self):
        certs = _certs("r0 = 0\ngoto +0\nexit", {"po"})
        assert any(c.kind == "jump-thread" and c.status == "proved"
                   for c in certs)

    def test_dead_def_structural(self):
        certs = _certs("r5 = 9\nr0 = 0\nexit", {"cpdce"})
        assert any(c.kind == "dead-def" and c.status == "proved"
                   for c in certs)


class TestPlantedBugSelfTest:
    """The ISSUE's acceptance bug: SLM merging at base+1."""

    TEXT = ("*(u32 *)(r10 - 16) = 7\n"
            "*(u32 *)(r10 - 12) = 0\n"
            "r0 = *(u64 *)(r10 - 16)\n"
            "exit")

    def test_validator_catches_planted_offset_bug(self, monkeypatch):
        monkeypatch.setattr(
            "repro.core.bytecode_passes.superword.PLANTED_OFFSET_BUG", True)
        pipeline = MerlinPipeline(enabled={"slm"})
        with pytest.raises(TranslationValidationError) as excinfo:
            pipeline.optimize_program(_program(self.TEXT), validate=True)
        err = excinfo.value
        assert err.pass_name == "slm"
        assert err.tier == "bytecode"
        assert err.point == "insn 0 (slot 0)"
        # the counterexample names the faulting stack offset and shows
        # the value the buggy rewrite lost
        assert err.counterexample["location"] == "mem[r10-0x10]"
        assert err.counterexample["before"] != err.counterexample["after"]
        assert "slm" in str(err) and "insn 0" in str(err)

    def test_report_mode_records_refutation(self, monkeypatch):
        monkeypatch.setattr(
            "repro.core.bytecode_passes.superword.PLANTED_OFFSET_BUG", True)
        pipeline = MerlinPipeline(enabled={"slm"})
        _optimized, report = pipeline.optimize_program(
            _program(self.TEXT), validate="report")
        statuses = [c.status for c in report.certificates]
        assert "refuted" in statuses

    def test_same_program_certifies_without_bug(self):
        certs = _certs(self.TEXT, {"slm"})
        assert certs and all(c.certified for c in certs)


class TestTamperedWitnesses:
    """Hand-built witnesses with false claims must be refuted."""

    def _snapshot(self, text: str):
        sym = SymbolicProgram.from_program(_program(text))
        return tuple((i.insn, i.target, i.deleted) for i in sym.insns)

    def test_live_register_claimed_clobbered(self):
        snap = self._snapshot("r1 = 7\nr0 = r1\nexit")
        witness = RewriteWitness(
            pass_name="evil", tier="bytecode", kind="region",
            first=0, last=0,
            before_insns=[ins.mov64_imm(1, 7)], after_insns=[],
            clobbered=(1,), snapshot=snap)
        cert = validate_bytecode_witness(witness)
        assert cert.status == "refuted"
        assert "r1" in cert.detail

    def test_wrong_replacement_refuted_with_counterexample(self):
        snap = self._snapshot("r1 += 1\nexit")
        witness = RewriteWitness(
            pass_name="evil", tier="bytecode", kind="region",
            first=0, last=0,
            before_insns=[ins.alu64("add", 1, imm=1)],
            after_insns=[ins.alu64("add", 1, imm=2)],
            snapshot=snap)
        cert = validate_bytecode_witness(witness)
        assert cert.status == "refuted"
        assert cert.counterexample is not None

    def test_deleting_conditional_jump_refuted(self):
        snap = self._snapshot("if r1 == 0 goto +1\nr0 = 1\nexit")
        witness = RewriteWitness(
            pass_name="evil", tier="bytecode", kind="jump-thread",
            first=0, last=0, snapshot=snap)
        cert = validate_bytecode_witness(witness)
        assert cert.status == "refuted"

    def test_live_def_deletion_refuted(self):
        snap = self._snapshot("r1 = 7\nr0 = r1\nexit")
        witness = RewriteWitness(
            pass_name="evil", tier="bytecode", kind="dead-def",
            first=0, last=0, snapshot=snap)
        cert = validate_bytecode_witness(witness)
        assert cert.status == "refuted"


class TestRecorderPlumbing:
    def test_no_recorder_means_no_overhead_or_witnesses(self):
        pipeline = MerlinPipeline(enabled={"cc"})
        program = _program("r0 <<= 32\nr0 >>= 32\nexit")
        optimized, report = pipeline.optimize_program(program)
        assert report.certificates == []
        assert report.rewrites_of("cc") == 1

    def test_recorder_collects_witnesses(self):
        from repro.core.bytecode_passes.compaction import CodeCompactionPass
        from repro.core.pass_manager import run_bytecode_passes

        program = _program("r0 <<= 32\nr0 >>= 32\nexit")
        rec = WitnessRecorder()
        run_bytecode_passes(program, [CodeCompactionPass()], rec)
        assert len(rec) == 1
        witness = rec.witnesses[0]
        assert witness.kind == "region"
        assert witness.pass_name == "cc"
        assert len(witness.before_insns) == 2
        assert len(witness.after_insns) == 1
