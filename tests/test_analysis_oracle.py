"""The bitmask dependency analysis against the set-based algorithm it
replaced.

``_SetAnalysis`` below is the earlier implementation of
:class:`repro.core.BytecodeAnalysis`: per-instruction register sets from
``uses()``/``defs()``, set-algebra liveness, and a frozenset per
position.  Over fuzz-generated and suite programs, the new analysis must
give the same ``reg_dead_after`` for every live index and register, the
same ``dead_defs``, ``straightline`` and ``is_branch_target`` — both
freshly built and after random deletions and replacements that reach it
through :meth:`BytecodeAnalysis.refresh`.  ``newly_dead`` must name
exactly the defs a full re-solve finds dead after the previous round's
are deleted, and the native cleanup built on it must delete what the
round-by-round loop it replaced deleted.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Set

import pytest

from repro.codegen import _native_cleanup, compile_function
from repro.core import BytecodeAnalysis, SymbolicProgram, insn_defs, insn_uses
from repro.frontend import compile_source
from repro.fuzz.generator import generate
from repro.isa import BpfProgram, ProgramType, assemble
from repro.isa.cfg import JA, KIND
from repro.isa import instruction as ins
from repro.isa import opcodes as op
from repro.workloads.suites import TRACE_CTX_SIZE, generate_suite


@dataclass
class _Block:
    first: int
    last: int
    succs: List[int] = field(default_factory=list)
    live_in: Set[int] = field(default_factory=set)
    live_out: Set[int] = field(default_factory=set)


class _SetAnalysis:
    """The set-based liveness analysis, kept as the oracle."""

    def __init__(self, sym: SymbolicProgram):
        self.sym = sym
        self.live = sym.live_indices()
        self.pos_of: Dict[int, int] = {idx: p for p, idx in enumerate(self.live)}
        self.targets = sym.branch_targets()
        self._blocks = self._build_blocks()
        self._solve()
        self._live_after = self._per_insn_liveness()

    def _resolve_target_pos(self, target: int) -> Optional[int]:
        idx = target
        while idx < len(self.sym.insns) and self.sym.insns[idx].deleted:
            idx += 1
        return self.pos_of.get(idx)

    def _build_blocks(self) -> List[_Block]:
        n = len(self.live)
        leaders: Set[int] = {0} if n else set()
        for target in self.targets:
            pos = self._resolve_target_pos(target)
            if pos is not None:
                leaders.add(pos)
        for p, idx in enumerate(self.live):
            insn = self.sym.insns[idx].insn
            if (insn.is_jump and not insn.is_call) or insn.is_exit:
                if p + 1 < n:
                    leaders.add(p + 1)
        ordered = sorted(leaders)
        block_of_pos = {}
        blocks: List[_Block] = []
        bounds = ordered + [n]
        for bi, start in enumerate(ordered):
            blocks.append(_Block(first=start, last=bounds[bi + 1] - 1))
            block_of_pos[start] = bi
        for block in blocks:
            sym = self.sym.insns[self.live[block.last]]
            insn = sym.insn
            if insn.is_exit:
                continue
            if insn.is_jump and not insn.is_call:
                if sym.target is not None:
                    tpos = self._resolve_target_pos(sym.target)
                    if tpos is not None:
                        block.succs.append(block_of_pos[tpos])
                if insn.jmp_op != op.BPF_JA and block.last + 1 < n:
                    block.succs.append(block_of_pos[block.last + 1])
            elif block.last + 1 < n:
                block.succs.append(block_of_pos[block.last + 1])
        return blocks

    def _solve(self) -> None:
        changed = True
        while changed:
            changed = False
            for block in reversed(self._blocks):
                out: Set[int] = set()
                for si in block.succs:
                    out |= self._blocks[si].live_in
                new_in = set(out)
                for p in range(block.last, block.first - 1, -1):
                    insn = self.sym.insns[self.live[p]].insn
                    new_in -= insn_defs(insn)
                    new_in |= insn_uses(insn)
                if out != block.live_out or new_in != block.live_in:
                    block.live_out = out
                    block.live_in = new_in
                    changed = True

    def _per_insn_liveness(self) -> List[FrozenSet[int]]:
        result: List[Optional[FrozenSet[int]]] = [None] * len(self.live)
        for block in self._blocks:
            live = set(block.live_out)
            for p in range(block.last, block.first - 1, -1):
                result[p] = frozenset(live)
                insn = self.sym.insns[self.live[p]].insn
                live -= insn_defs(insn)
                live |= insn_uses(insn)
        return [r if r is not None else frozenset() for r in result]

    def reg_dead_after(self, index: int, reg: int) -> bool:
        return reg not in self._live_after[self.pos_of[index]]

    def is_branch_target(self, index: int) -> bool:
        return index in self.targets

    def straightline(self, first: int, last: int) -> bool:
        p1, p2 = self.pos_of.get(first), self.pos_of.get(last)
        if p1 is None or p2 is None or p2 < p1:
            return False
        for p in range(p1, p2 + 1):
            idx = self.live[p]
            if p > p1 and self.is_branch_target(idx):
                return False
            insn = self.sym.insns[idx].insn
            if p < p2 and (insn.is_jump or insn.is_exit):
                return False
        return True

    def dead_defs(self) -> List[int]:
        dead: List[int] = []
        for p, idx in enumerate(self.live):
            insn = self.sym.insns[idx].insn
            if insn.is_memory or insn.is_call or insn.is_jump or insn.is_exit:
                continue
            if insn.is_alu or insn.is_ld_imm64:
                if (insn.is_alu and insn.alu_op == op.BPF_MOV
                        and not insn.uses_imm and insn.dst == insn.src
                        and insn.is_alu64):
                    dead.append(idx)
                    continue
                defs = insn.defs()
                if defs and all(reg not in self._live_after[p] for reg in defs):
                    dead.append(idx)
        return dead


# ---------------------------------------------------------------- inputs
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


def _suite_programs(per_suite: int) -> List[BpfProgram]:
    programs = []
    for suite in ("sysdig", "tetragon", "tracee"):
        for prog in generate_suite(suite, scale=0.05)[:per_suite]:
            module = compile_source(prog.source, prog.name)
            programs.append(compile_function(
                module.get(prog.entry), module,
                prog_type=ProgramType.TRACEPOINT, mcpu="v3",
                ctx_size=TRACE_CTX_SIZE, cleanup=False))
    return programs


# ------------------------------------------------------------ comparison
def _assert_agree(analysis: BytecodeAnalysis, sym: SymbolicProgram,
                  rng: random.Random) -> None:
    oracle = _SetAnalysis(sym)
    assert analysis.live == oracle.live
    for index in oracle.live:
        for reg in range(op.NUM_REGS):
            assert analysis.reg_dead_after(index, reg) == \
                oracle.reg_dead_after(index, reg), (index, reg)
    for index in range(len(sym.insns) + 1):
        assert analysis.is_branch_target(index) == \
            oracle.is_branch_target(index), index
    assert analysis.dead_defs() == oracle.dead_defs()
    # every short window, plus random long spans and deleted endpoints
    n = len(sym.insns)
    pairs = [(first, first + span) for first in range(n)
             for span in range(6)]
    pairs += [(rng.randrange(n), rng.randrange(n)) for _ in range(50)]
    for first, last in pairs:
        assert analysis.straightline(first, last) == \
            oracle.straightline(first, last), (first, last)
    for index in range(n):
        if sym.insns[index].deleted:
            with pytest.raises(KeyError):
                analysis.reg_dead_after(index, 0)


_STRAIGHT = (
    lambda rng: ins.mov64_imm(rng.randrange(10), rng.randrange(100)),
    lambda rng: ins.alu64("add", rng.randrange(10), src=rng.randrange(11)),
    lambda rng: ins.alu32("mov", rng.randrange(10), src=rng.randrange(10)),
    lambda rng: ins.load(8, rng.randrange(10), op.R10, -8),
    lambda rng: ins.store_imm(4, op.R10, -16, rng.randrange(100)),
    lambda rng: ins.store_reg(8, op.R10, -8, rng.randrange(10)),
    lambda rng: ins.ld_imm64(rng.randrange(10), 1 << 40),
    lambda rng: ins.call(1),
    lambda rng: ins.atomic(8, op.BPF_CMPXCHG, op.R10, -8, rng.randrange(10)),
)


def _mutate(sym: SymbolicProgram, rng: random.Random) -> None:
    """One random deletion or replacement, rarely a control-flow change
    or an insertion (the rebuild path)."""
    live = sym.live_indices()
    if len(live) < 2:
        return
    index = rng.choice(live)
    roll = rng.random()
    if roll < 0.55:
        sym.delete(index)
    elif roll < 0.9:
        if not sym.insns[index].insn.is_jump:
            sym.replace(index, rng.choice(_STRAIGHT)(rng))
    elif roll < 0.95:
        sym.replace(index, ins.jump("jeq", rng.randrange(10), imm=0),
                    target=rng.randrange(len(sym.insns)))
    else:
        sym.insert_before(index, rng.choice(_STRAIGHT)(rng))


def _check_with_mutations(programs: List[BpfProgram], seed: int) -> None:
    rng = random.Random(seed)
    for program in programs:
        sym = SymbolicProgram.from_program(program)
        analysis = BytecodeAnalysis(sym)
        _assert_agree(analysis, sym, rng)
        for _ in range(rng.randrange(2, 5)):
            for _ in range(rng.randrange(1, 4)):
                _mutate(sym, rng)
            analysis.refresh()
            _assert_agree(analysis, sym, rng)


@pytest.fixture(scope="module")
def fuzz_programs():
    return _fuzz_programs(12)


@pytest.fixture(scope="module")
def suite_programs():
    return _suite_programs(3)


def test_fresh_build_agrees_on_fuzz_programs(fuzz_programs):
    rng = random.Random(0)
    for program in fuzz_programs:
        sym = SymbolicProgram.from_program(program)
        _assert_agree(BytecodeAnalysis(sym), sym, rng)


def test_fresh_build_agrees_on_suite_programs(suite_programs):
    rng = random.Random(1)
    for program in suite_programs:
        sym = SymbolicProgram.from_program(program)
        _assert_agree(BytecodeAnalysis(sym), sym, rng)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_refresh_agrees_after_random_edits_on_fuzz_programs(fuzz_programs,
                                                            seed):
    _check_with_mutations(fuzz_programs, seed)


def test_refresh_agrees_after_random_edits_on_suite_programs(suite_programs):
    _check_with_mutations(suite_programs, 3)


def test_deleting_every_instruction_one_by_one():
    program = BpfProgram("t", assemble("""
        r1 = 1
        if r1 == 0 goto skip
        r2 = r1
        goto out
    skip:
        r2 = 2
    out:
        r0 = r2
        exit
    """))
    sym = SymbolicProgram.from_program(program)
    analysis = BytecodeAnalysis(sym)
    rng = random.Random(4)
    for index in rng.sample(range(len(sym.insns)), len(sym.insns) - 1):
        sym.delete(index)
        analysis.refresh()
        _assert_agree(analysis, sym, rng)


# ------------------------------------------------------- dead-def rounds
def _check_dead_def_rounds(programs: List[BpfProgram], seed: int) -> None:
    """Delete dead defs round by round, each round found by
    ``newly_dead``; every round must equal a full re-solve's answer, and
    the analysis must stay exact for every other query."""
    rng = random.Random(seed)
    for program in programs:
        sym = SymbolicProgram.from_program(program)
        analysis = BytecodeAnalysis(sym)
        for _ in range(rng.randrange(0, 3)):
            _mutate(sym, rng)
        analysis.refresh()
        dead = analysis.dead_defs()
        while dead:
            for index in dead:
                sym.delete(index)
            dead = analysis.newly_dead(dead)
            assert dead == _SetAnalysis(sym).dead_defs(), program.name
            _assert_agree(analysis, sym, rng)


def test_newly_dead_matches_a_full_solve_on_fuzz_programs(fuzz_programs):
    _check_dead_def_rounds(fuzz_programs, 5)


def test_newly_dead_matches_a_full_solve_on_suite_programs(suite_programs):
    _check_dead_def_rounds(suite_programs, 6)


def _register_traffic(rng: random.Random, length: int = 30) -> BpfProgram:
    """A random program of moves and arithmetic over r0-r4 (self-moves
    included), stack spills, calls, short unconditional hops, and
    forward and backward branches, so dead-def chains cross joins and
    loops."""
    insns = []
    for i in range(length):
        roll = rng.random()
        dst, src = rng.randrange(5), rng.randrange(5)
        if roll < 0.3:
            insns.append(ins.mov64_reg(dst, src))
        elif roll < 0.45:
            insns.append(ins.alu64("add", dst, src=src))
        elif roll < 0.55:
            insns.append(ins.mov64_imm(dst, rng.randrange(9)))
        elif roll < 0.62:
            insns.append(ins.store_reg(8, op.R10, -8, src))
        elif roll < 0.68:
            insns.append(ins.load(8, dst, op.R10, -8))
        elif roll < 0.72:
            insns.append(ins.call(1))
        elif roll < 0.8:  # short hops: chains of jumps to the next
            insns.append(ins.jump("ja", off=rng.randrange(
                min(3, length - i))))
        elif roll < 0.9:
            insns.append(ins.jump("jeq", src, imm=0,
                                  off=rng.randrange(length - i)))
        else:
            insns.append(ins.jump("jne", src, imm=0,
                                  off=-rng.randrange(1, i + 2)))
    insns.append(ins.mov64_reg(op.R0, rng.randrange(5)))
    insns.append(ins.exit_())
    return BpfProgram(f"regs{length}", insns)


def test_newly_dead_matches_a_full_solve_on_random_control_flow():
    rng = random.Random(8)
    _check_dead_def_rounds([_register_traffic(rng) for _ in range(400)], 9)


def _reference_cleanup(sym: SymbolicProgram) -> None:
    """The native cleanup as a loop to the fixpoint: every round solves
    liveness again, deletes every dead def, then scans forward for jumps
    to the next instruction."""
    changed = True
    while changed:
        changed = False
        for index in _SetAnalysis(sym).dead_defs():
            sym.delete(index)
            changed = True
        for index in sym.live_indices():
            item = sym.insns[index]
            if KIND[item.insn.opcode] == JA and item.target is not None \
                    and sym.resolve(item.target) == sym.next_live(index):
                sym.delete(index)
                changed = True


def test_cleanup_deletes_what_the_fixpoint_loop_deletes(fuzz_programs,
                                                        suite_programs):
    rng = random.Random(10)
    randoms = [_register_traffic(rng) for _ in range(400)]
    for program in fuzz_programs + suite_programs + randoms:
        expected = SymbolicProgram.from_program(program)
        _reference_cleanup(expected)
        sym = SymbolicProgram.from_program(program)
        _native_cleanup(sym)
        assert [item.deleted for item in sym.insns] == \
            [item.deleted for item in expected.insns], program.name
        assert sym.to_insns() == expected.to_insns(), program.name
