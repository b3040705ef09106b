"""Merlin: the paper's multi-tier eBPF optimization framework."""

from .bytecode_passes.analysis import BytecodeAnalysis, insn_defs, insn_uses
from .bytecode_passes.compaction import CodeCompactionPass
from .bytecode_passes.peephole import PeepholePass
from .bytecode_passes.store_imm import StoreImmediatePass
from .bytecode_passes.superword import SuperwordMergePass
from .bytecode_passes.symbolic import RelocationError, SymbolicProgram, SymInsn
from .ir_passes.alignment import AlignmentInferencePass, average_alignment
from .ir_passes.constprop import ConstantPropagationPass
from .ir_passes.dce import DeadCodeEliminationPass
from .ir_passes.macro_fusion import MacroOpFusionPass
from .ir_passes.superword import SuperwordMergeIRPass
from .batch import BatchReport, CompileJob, compile_many
from .pass_manager import BytecodePass, IRPass, PassStats
from .pipeline import (
    ALL_OPTIMIZERS,
    MerlinPipeline,
    MerlinReport,
    OPTIMIZER_NAMES,
)
from .superopt import SuperoptSpec, SuperoptimizerPass

__all__ = [
    "BytecodeAnalysis",
    "insn_defs",
    "insn_uses",
    "CodeCompactionPass",
    "PeepholePass",
    "StoreImmediatePass",
    "SuperwordMergePass",
    "RelocationError",
    "SymbolicProgram",
    "SymInsn",
    "AlignmentInferencePass",
    "average_alignment",
    "ConstantPropagationPass",
    "DeadCodeEliminationPass",
    "MacroOpFusionPass",
    "SuperwordMergeIRPass",
    "BatchReport",
    "CompileJob",
    "compile_many",
    "BytecodePass",
    "IRPass",
    "PassStats",
    "ALL_OPTIMIZERS",
    "MerlinPipeline",
    "MerlinReport",
    "OPTIMIZER_NAMES",
    "SuperoptSpec",
    "SuperoptimizerPass",
]
