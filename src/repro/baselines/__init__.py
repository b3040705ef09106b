"""Baselines Merlin is evaluated against (K2)."""

from ..fuzz.oracle import TestCase, equivalent, generate_tests, observable_state
from .search import (
    anneal_temperature,
    collapse_shift_pair,
    collapse_store_imm,
    iteration_budget,
    match_load_merge,
    mutate_program,
    program_cost,
)
from .k2 import (
    K2Config,
    K2Optimizer,
    K2Result,
    K2_PRACTICAL_SIZE,
    K2_SUPPORTED_HELPERS,
    k2_optimize,
)

__all__ = [
    "TestCase",
    "equivalent",
    "generate_tests",
    "observable_state",
    "K2Config",
    "K2Optimizer",
    "K2Result",
    "K2_PRACTICAL_SIZE",
    "K2_SUPPORTED_HELPERS",
    "k2_optimize",
    "anneal_temperature",
    "collapse_shift_pair",
    "collapse_store_imm",
    "iteration_budget",
    "match_load_merge",
    "mutate_program",
    "program_cost",
]
