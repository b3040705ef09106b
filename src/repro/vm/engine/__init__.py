"""repro.vm.engine — the method-JIT execution engine for the VM.

``Machine(program, engine="jit")`` compiles the whole program through
:mod:`.regions` into one generated-Python function (loops become
``while``, conditionals become ``if``/``else``, helpers and map ops
inline behind guards) and deoptimizes onto the reference interpreter
when a guard fails.  It is bit-identical to the reference — same return
values, counters, fault messages, and memory/map effects.  Code objects
are cached process-wide, keyed by bytecode content.
"""

from .jit import (
    JIT_CACHE_CAPACITY,
    JitCacheStats,
    JitExecution,
    JitProgram,
    bind_jit,
    check_budget_fault,
    clear_jit_cache,
    compile_jit_program,
    jit_cache_stats,
)
from .regions import Relooper, StructureError

#: the JIT code cache is the engine's only content-keyed cache; the
#: older name reports its counters
decode_cache_stats = jit_cache_stats

__all__ = [
    "JIT_CACHE_CAPACITY",
    "JitCacheStats",
    "JitExecution",
    "JitProgram",
    "Relooper",
    "StructureError",
    "bind_jit",
    "check_budget_fault",
    "clear_jit_cache",
    "compile_jit_program",
    "decode_cache_stats",
    "jit_cache_stats",
]
