"""Per-layer tracing from outside the program.

``Tracer.install()`` wraps each layer's public functions and classes at
the names their callers use, without editing ``src/``: module
attributes for functions imported by name (``repro.frontend.
compile_source``, ``repro.core.pipeline.compile_function``), methods on
the class for classes (``BytecodeAnalysis.__init__``, ``Machine.run``,
``CompilationCache.get_object``, each pass's ``run``).  A wrapper
records its call count and *self* time: its own elapsed time minus the
elapsed time of wrappers nested inside it.  Counts the program already
keeps (``PassStats``, ``VerificationResult``, ``CacheStats``, ``RunResult``
counters, the serve ``stats`` op) are read by the workloads, not
re-derived here.

Wrappers only record while ``active`` is set, so the untimed output
checks after a run do not pollute the layer totals.
"""

from __future__ import annotations

import functools
import threading
import time
from collections import Counter, defaultdict
from typing import Callable, Dict, List, Optional

_perf = time.perf_counter


class _ModuleProxy:
    """Stands in for a module object inside one importing module, so a
    function can be traced for that caller only."""

    def __init__(self, module, overrides: Dict[str, Callable]):
        self._module = module
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._module, name)


class Tracer:
    def __init__(self) -> None:
        self.active = False
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.total_self_s = 0.0
        self.residuals_s: List[float] = []
        self.op_total_s = 0.0
        #: per-thread stacks of child-time accumulators (the serve
        #: daemon runs wrapped code on its loop and dispatch threads)
        self._local = threading.local()
        self._patches: List[tuple] = []

    def _stack(self) -> List[float]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    # ------------------------------------------------------------ wrappers
    def timed(self, layer: str, fn: Callable,
              on_result: Optional[Callable] = None) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer._stack()
            stack.append(0.0)
            start = _perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = _perf() - start
                own = elapsed - stack.pop()
                tracer.self_s[layer] += own
                tracer.total_self_s += own
                tracer.calls[layer] += 1
                if stack:
                    stack[-1] += elapsed
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def counted(self, name: str, fn: Callable) -> Callable:
        counts = self.counts
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.active:
                counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]
                              if isinstance(owner, type)
                              else getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def patch(self, owner, attr: str, layer: str,
              on_result: Optional[Callable] = None) -> None:
        self._patch(owner, attr, self.timed(layer, getattr(owner, attr),
                                            on_result))

    # ------------------------------------------------------------- targets
    def install(self) -> "Tracer":
        import repro.core.pipeline as pipeline_mod
        import repro.frontend as frontend
        import repro.ir as ir
        import repro.verifier as verifier
        from repro.cache import CompilationCache
        from repro.core import (AlignmentInferencePass, BytecodeAnalysis,
                                CodeCompactionPass, ConstantPropagationPass,
                                DeadCodeEliminationPass, MacroOpFusionPass,
                                MerlinPipeline, PeepholePass,
                                StoreImmediatePass, SuperoptimizerPass,
                                SuperwordMergeIRPass, SuperwordMergePass)
        from repro.isa import Instruction
        from repro.vm import Machine

        counts = self.counts
        self.patch(frontend, "compile_source", "frontend")
        self._patch(pipeline_mod, "ir", _ModuleProxy(ir, {
            "parse_function": self.timed("ir.clone", ir.parse_function),
            "print_function": self.timed("ir.clone", ir.print_function),
        }))
        for cls in (ConstantPropagationPass, DeadCodeEliminationPass,
                    AlignmentInferencePass, MacroOpFusionPass,
                    SuperwordMergeIRPass):
            self.patch(cls, "run", f"ir_passes.{cls.name}")

        def emitted(program) -> None:
            counts["codegen.insns_out"] += program.ni

        self.patch(pipeline_mod, "compile_function", "codegen", emitted)
        for cls in (StoreImmediatePass, SuperwordMergePass,
                    CodeCompactionPass, PeepholePass):
            self.patch(cls, "run", f"bytecode_passes.{cls.name}")
        self.patch(BytecodeAnalysis, "__init__", "bytecode_passes.analysis")
        for attr in ("uses", "defs"):
            self._patch(Instruction, attr,
                        self.counted("isa.uses_defs.calls",
                                     getattr(Instruction, attr)))
        self.patch(SuperoptimizerPass, "run", "superopt")
        self.patch(MerlinPipeline, "_apply_layout", "layout")
        self.patch(MerlinPipeline, "_certify", "tv")
        self.patch(verifier, "verify", "verifier")
        self.patch(CompilationCache, "get_object", "cache.get")
        self.patch(CompilationCache, "put_object", "cache.put")
        self.patch(Machine, "__init__", "vm.bind")

        def ran(result) -> None:
            delta = result.counters
            counts["hw.runs"] += 1
            counts["vm.insns"] += delta.instructions
            counts["hw.cache_misses"] += delta.cache_misses
            counts["hw.branch_misses"] += delta.branch_misses

        self.patch(Machine, "run", "vm.run", ran)
        return self

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ----------------------------------------------------------------- ops
    def op_start(self) -> float:
        return self.total_self_s

    def op_end(self, started_self: float, op_seconds: float) -> None:
        """Record one op's residual: its time minus the layer self time
        spent inside it (time no wrapper accounts for)."""
        if self.active:
            self.op_total_s += op_seconds
            self.residuals_s.append(
                op_seconds - (self.total_self_s - started_self))

    # -------------------------------------------------------------- report
    def layer_metrics(self) -> Dict[str, float]:
        """Flat per-layer metrics: ``<layer>.s`` and ``<layer>.calls``
        for every wrapped layer, plus the counts gathered on the way."""
        out: Dict[str, float] = {}
        for layer in sorted(set(self.self_s) | set(self.calls)):
            out[f"{layer}.s"] = self.self_s[layer]
            out[f"{layer}.calls"] = self.calls[layer]
        out.update(self.counts)
        return out
