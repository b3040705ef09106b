"""Differential fuzzing for the Merlin optimizer.

Generates random-but-valid programs at three layers (mini-C source, IR
text, raw assembly), runs each under the unoptimized baseline and every
enabled-pass configuration, and compares all observable behaviour with
the shared oracle.  On divergence: bisect to the guilty pass, shrink
with delta debugging, and emit a ready-to-commit regression test.

Entry points: :func:`run_campaign` (the whole loop, what ``repro fuzz``
calls), :func:`diff_case`/:func:`replay` (one program), and
:func:`planted_superword_bug` (fault injection for the self-test).
"""

from contextlib import contextmanager

from .bisect import BisectResult, bisect_divergence
from .corpus import reproducer_name, write_reproducer
from .differential import (
    PASS_CONFIGS,
    SUPEROPT_CONFIG,
    BaselineRecord,
    Divergence,
    build_program,
    check_config,
    check_layout,
    check_superopt,
    diff_case,
    observe_baseline,
    pass_sequence,
    replay,
)
from .engine import FuzzFinding, FuzzReport, check_roundtrip, run_campaign
from .generator import LAYERS, GeneratedProgram, count_statements, generate
from .minimize import ddmin, minimize_divergence
from .oracle import (
    Observation,
    TestCase,
    equivalent,
    first_divergence,
    generate_tests,
    observable_state,
    observe_battery,
    populate_maps,
    run_observed,
)


@contextmanager
def planted_superword_bug():
    """Temporarily plant an off-by-one in superword merge offsets.

    The fuzzer self-test uses this to prove the whole pipeline —
    detection, bisection, minimization — catches a genuine miscompile.
    """
    from ..core.bytecode_passes import superword

    previous = superword.PLANTED_OFFSET_BUG
    superword.PLANTED_OFFSET_BUG = True
    try:
        yield
    finally:
        superword.PLANTED_OFFSET_BUG = previous


__all__ = [
    "BaselineRecord",
    "BisectResult",
    "Divergence",
    "FuzzFinding",
    "FuzzReport",
    "GeneratedProgram",
    "LAYERS",
    "Observation",
    "PASS_CONFIGS",
    "SUPEROPT_CONFIG",
    "TestCase",
    "bisect_divergence",
    "build_program",
    "check_config",
    "check_layout",
    "check_roundtrip",
    "check_superopt",
    "count_statements",
    "ddmin",
    "diff_case",
    "equivalent",
    "first_divergence",
    "generate",
    "generate_tests",
    "minimize_divergence",
    "observable_state",
    "observe_baseline",
    "observe_battery",
    "pass_sequence",
    "planted_superword_bug",
    "populate_maps",
    "replay",
    "reproducer_name",
    "run_campaign",
    "run_observed",
    "write_reproducer",
]
