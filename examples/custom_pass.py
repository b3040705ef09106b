#!/usr/bin/env python3
"""Extending Merlin: write your own bytecode pass.

Merlin's bytecode tier is built on two reusable pieces:

* :class:`SymbolicProgram` — an index-relocated program view where you
  can delete/replace instructions and every branch offset is fixed up
  automatically;
* :class:`BytecodeAnalysis` — CFG + liveness ("is this register dead
  after instruction i?", "is anything jumping between i and j?").

A pass is a rewrite of one shared symbolic program:
``run(program, sym, analysis)`` edits ``sym`` and returns its rewrite
count.  :func:`run_bytecode_passes` converts the program once, hands
every pass the same ``sym`` and the same analysis, and encodes once.

This example adds a classic strength reduction the paper leaves as
future work: multiplication/division by powers of two become shifts.

Run:  python examples/custom_pass.py
"""

from repro.core import BytecodeAnalysis, SymbolicProgram
from repro.core.pass_manager import BytecodePass, run_bytecode_passes
from repro.isa import BpfProgram, ProgramType, assemble, disassemble
from repro.isa import instruction as ins
from repro.isa import opcodes as op
from repro.verifier import verify
from repro.vm import Machine


class MulDivShiftPass(BytecodePass):
    """r *= 2^k  ->  r <<= k   and   r /= 2^k  ->  r >>= k."""

    name = "mul-shift"

    def run(self, program: BpfProgram, sym: SymbolicProgram,
            analysis: BytecodeAnalysis) -> int:
        rewrites = 0
        for index in sym.live_indices():
            insn = sym.insns[index].insn
            if not (insn.is_alu64 and insn.uses_imm and insn.imm > 0):
                continue
            if insn.imm & (insn.imm - 1):
                continue  # not a power of two
            shift = insn.imm.bit_length() - 1
            if insn.alu_op == op.BPF_MUL:
                sym.replace(index, ins.alu64("lsh", insn.dst, imm=shift))
                rewrites += 1
            elif insn.alu_op == op.BPF_DIV:
                sym.replace(index, ins.alu64("rsh", insn.dst, imm=shift))
                rewrites += 1
        return rewrites


def main() -> None:
    program = BpfProgram("demo", assemble("""
        r1 = *(u64 *)(r1 + 0)
        r1 *= 8
        r1 /= 4
        r2 = 3
        r1 *= r2
        r0 = r1
        exit
    """), prog_type=ProgramType.TRACEPOINT, ctx_size=16)

    print("before:")
    print(disassemble(program.insns))

    ctx = (11).to_bytes(8, "little") + bytes(8)
    before_result = Machine(program).run(ctx=ctx)

    stats, = run_bytecode_passes(program, [MulDivShiftPass()])
    print(f"\napplied {stats.rewrites} rewrites in "
          f"{stats.time_seconds * 1e6:.0f}us")
    print("\nafter:")
    print(disassemble(program.insns))

    after_result = Machine(program).run(ctx=ctx)
    assert before_result.return_value == after_result.return_value
    print(f"\nsemantics preserved: r0 = {after_result.return_value}, "
          f"cycles {before_result.counters.cycles} -> "
          f"{after_result.counters.cycles}")
    print(f"still verifies: {verify(program).ok}")

    # liveness queries are available for smarter patterns
    analysis = BytecodeAnalysis(SymbolicProgram.from_program(program))
    print(f"r2 dead after last use: "
          f"{analysis.reg_dead_after(program.insns.index(program.insns[-2]), 2)}")


if __name__ == "__main__":
    main()
