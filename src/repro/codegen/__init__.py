"""IR -> eBPF backend (the reproduction's ``llc``)."""

from typing import TYPE_CHECKING, Optional

from .. import ir
from ..isa import BpfProgram, ProgramType
from .emitter import EmissionError, emit, resolve_labels
from .isel import InstructionSelector, SelectionError, select
from .lowfunc import Label, LowFunction, LowInsn, StackOverflowError, VREG_BASE, is_vreg
from .regalloc import LinearScanAllocator, allocate

if TYPE_CHECKING:  # pragma: no cover - repro.core imports codegen
    from ..core.bytecode_passes.symbolic import SymbolicProgram


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
    sym = resolve_labels(low)
    if cleanup:
        _native_cleanup(sym)
    return BpfProgram(
        name=low.name,
        insns=sym.to_insns(),
        prog_type=prog_type,
        maps=dict(module.maps) if module is not None else {},
        mcpu=mcpu,
        ctx_size=ctx_size,
    )


def _native_cleanup(sym: "SymbolicProgram") -> None:
    """Allocator-grade cleanup of the symbolic program *sym*: drop dead
    defs, self-moves, and unconditional jumps to the next instruction.

    Deleting a dead def or such a jump never makes another instruction
    live or a jump's target farther, so what is deleted does not depend
    on the order: the dead defs go round by round, then the jumps.  The
    bytecode passes CP/DCE and peephole run the same two sweeps."""
    from ..core.bytecode_passes.analysis import BytecodeAnalysis

    BytecodeAnalysis(sym).delete_dead_defs(sym.delete)
    sym.delete_jumps_to_next(sym.delete)


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
    "LinearScanAllocator",
    "allocate",
]
