"""repro — reproduction of "Merlin: Multi-tier Optimization of eBPF Code
for Performance and Compactness" (ASPLOS 2024).

The package is a full eBPF toolchain in Python plus the paper's
optimizer:

- :mod:`repro.frontend` — mini-C to SSA IR ("clang")
- :mod:`repro.ir` — the SSA IR ("LLVM IR")
- :mod:`repro.codegen` — IR to eBPF bytecode ("llc")
- :mod:`repro.core` — **Merlin**: IR + bytecode optimization tiers
- :mod:`repro.isa` — eBPF instructions, assembler, disassembler, and
  the one definition of eBPF arithmetic (:mod:`repro.isa.semantics`)
- :mod:`repro.verifier` — kernel verifier model (NPI, states, pruning)
- :mod:`repro.vm` — eBPF interpreter with cycle/cache/branch models
- :mod:`repro.hw` — cache / branch-predictor / perf-counter models
- :mod:`repro.baselines` — the K2 stochastic-search baseline
- :mod:`repro.workloads` — XDP programs and Sysdig/Tetragon/Tracee-style
  suites
- :mod:`repro.eval` — harnesses regenerating every paper table/figure
- :mod:`repro.fuzz` — differential fuzzer for the optimizer (generate,
  diff, bisect to the guilty pass, minimize)

Quickstart::

    from repro import compile_bpf, optimize, run_xdp

    module = compile_bpf(open("prog.c").read())
    program, report = optimize(module, "xdp_main")
    print(report.ni_reduction)
"""

from typing import Optional, Tuple

from . import codegen, core, frontend, hw, ir, isa, verifier, vm
from .core import MerlinPipeline, MerlinReport
from .frontend import compile_source as compile_bpf
from .isa import BpfProgram, ProgramType
from .verifier import KERNELS, verify
from .vm import Machine

__version__ = "1.0.0"

#: our xdp_md context layout is 24 bytes (u64 data/data_end + 2 u32s)
XDP_CTX_SIZE = 24


def compile_baseline(
    module: ir.Module,
    function: Optional[str] = None,
    prog_type: ProgramType = ProgramType.XDP,
    mcpu: str = "v2",
    ctx_size: int = XDP_CTX_SIZE,
) -> BpfProgram:
    """Compile one function with the native pipeline (no Merlin)."""
    func = module.get(function) if function else next(iter(module))
    return codegen.compile_function(func, module, prog_type=prog_type,
                                    mcpu=mcpu, ctx_size=ctx_size)


def optimize(
    module: ir.Module,
    function: Optional[str] = None,
    prog_type: ProgramType = ProgramType.XDP,
    mcpu: str = "v2",
    ctx_size: int = XDP_CTX_SIZE,
    pgo=None,
    superopt=None,
    **pipeline_kwargs,
) -> Tuple[BpfProgram, MerlinReport]:
    """Compile one function through the full Merlin pipeline.

    The pipeline compiles from a private clone, so *module* comes back
    unchanged and repeated calls yield identical reports.  ``pgo``
    enables the profile-guided layout tier (``True`` for the default
    spec, or a :class:`repro.core.bytecode_passes.layout.PgoSpec`);
    ``superopt`` enables the caching superoptimizer tier (``True`` for
    the default spec, or a :class:`repro.core.superopt.SuperoptSpec`).
    """
    func = module.get(function) if function else next(iter(module))
    pipeline = MerlinPipeline(**pipeline_kwargs)
    return pipeline.compile(func, module, prog_type=prog_type, mcpu=mcpu,
                            ctx_size=ctx_size, pgo=pgo, superopt=superopt)


def run_xdp(program: BpfProgram, packet: bytes, machine: Optional[Machine] = None):
    """Run an XDP program over one packet; returns the RunResult."""
    m = machine if machine is not None else Machine(program)
    return m.run(packet=packet)


__all__ = [
    "codegen",
    "core",
    "frontend",
    "hw",
    "ir",
    "isa",
    "verifier",
    "vm",
    "MerlinPipeline",
    "MerlinReport",
    "compile_bpf",
    "BpfProgram",
    "ProgramType",
    "KERNELS",
    "verify",
    "Machine",
    "XDP_CTX_SIZE",
    "compile_baseline",
    "optimize",
    "run_xdp",
]
