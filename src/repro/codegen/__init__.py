"""IR -> eBPF backend (the reproduction's ``llc``)."""

from typing import Optional

from .. import ir
from ..isa import BpfProgram, ProgramType
from .emitter import EmissionError, emit
from .isel import InstructionSelector, SelectionError, select
from .lowfunc import Label, LowFunction, LowInsn, StackOverflowError, VREG_BASE, is_vreg
from .regalloc import AllocationError, LinearScanAllocator, allocate


def compile_function(
    func: ir.Function,
    module: Optional[ir.Module] = None,
    prog_type: ProgramType = ProgramType.XDP,
    mcpu: str = "v2",
    ctx_size: int = 64,
    cleanup: bool = True,
) -> BpfProgram:
    """Compile one IR function to a loadable eBPF program.

    This is the "native pipeline" (clang -O2 + llc) path; run the result
    through :class:`repro.core.MerlinPipeline` for the paper's
    optimizations.  ``cleanup`` applies the copy-coalescing-equivalent
    sweep (self-moves, dead defs, jumps-to-next) a production register
    allocator performs — without it the baseline would be unfairly
    naive and Merlin's wins overstated.
    """
    low = select(func, module)
    allocate(low)
    maps = dict(module.maps) if module is not None else {}
    program = emit(low, prog_type=prog_type, maps=maps, mcpu=mcpu,
                   ctx_size=ctx_size)
    if cleanup:
        _native_cleanup(program)
    return program


def _native_cleanup(program: BpfProgram) -> None:
    """Allocator-grade cleanup: drop dead defs, self-moves, and
    unconditional jumps to the next instruction."""
    from ..core.bytecode_passes.analysis import BytecodeAnalysis
    from ..core.bytecode_passes.symbolic import SymbolicProgram
    from ..isa import opcodes as op

    sym = SymbolicProgram.from_program(program)
    analysis = BytecodeAnalysis(sym)
    changed = True
    while changed:
        changed = False
        analysis.refresh()
        for index in analysis.dead_defs():
            sym.delete(index)
            changed = True
        for index in sym.live_indices():
            item = sym.insns[index]
            insn = item.insn
            if insn.is_jump and insn.jmp_op == op.BPF_JA and \
                    not insn.is_exit and item.target is not None:
                resolved = item.target
                while resolved < len(sym.insns) and sym.insns[resolved].deleted:
                    resolved += 1
                if resolved == sym.next_live(index):
                    sym.delete(index)
                    changed = True
    program.insns = sym.to_insns()


__all__ = [
    "compile_function",
    "EmissionError",
    "emit",
    "InstructionSelector",
    "SelectionError",
    "select",
    "Label",
    "LowFunction",
    "LowInsn",
    "StackOverflowError",
    "VREG_BASE",
    "is_vreg",
    "AllocationError",
    "LinearScanAllocator",
    "allocate",
]
