"""Content-addressed cache keys for compilation results.

A key digests everything that determines the output of
:meth:`MerlinPipeline.compile`:

* the **canonical IR text** of the function being compiled (the same
  textual form ``repro.fuzz`` round-trips through), plus the module's
  map declarations and sibling functions when a module is supplied —
  codegen reads both;
* the **enabled optimizer set** (sorted short names);
* the **kernel configuration** (every field: the gate decisions, limits
  and verifier cost model all feed the result);
* **mcpu**, **program type**, **ctx size**, and
  whether **translation validation** ran (a validated entry carries
  per-pass certificates in its report; an unvalidated one does not, so
  the two must never share an entry);
* the **profile-guided layout spec** when PGO is requested — the
  deterministic :class:`~repro.core.bytecode_passes.layout.PgoSpec`
  fingerprint (workload size, runs, seed, budget), not the collected
  counts: the spec fully determines the profile for a given program, so
  keying the spec keys the layout;
* the **superoptimizer spec** when the superopt tier is requested — the
  :class:`~repro.core.superopt.SuperoptSpec` fingerprint (window,
  search budget, seed): the tier is deterministic for a given spec, so
  keying the spec keys the rewrites.

The same store also holds the superoptimizer's *rewrite memo* under a
separate key namespace (:func:`key_for_window`): entries keyed by the
canonicalized window content plus the search-relevant spec parts, so
one discovery is shared by every program — and every serve worker —
that contains the same window shape.

Keys are hex SHA-256 digests, so they are safe as file names for the
on-disk store.  ``SCHEMA_VERSION`` is folded in; bump it whenever the
serialized entry format or pipeline semantics change incompatibly.
"""

from __future__ import annotations

import dataclasses
import hashlib
from typing import FrozenSet, Iterable, Optional

from .. import ir
from ..ir.printer import print_function, print_module
from ..isa import ProgramType
from ..verifier import KernelConfig

#: bump to invalidate every previously written cache entry
SCHEMA_VERSION = 4


def canonical_text(func: ir.Function, module: Optional[ir.Module] = None) -> str:
    """The text-canonical form of a compilation input.

    With a module, the whole module is rendered (maps and sibling
    functions can both affect codegen) and the entry point is recorded;
    without one, the function's own textual IR stands alone.
    """
    if module is not None:
        return f"entry @{func.name}\n{print_module(module)}"
    return print_function(func)


def kernel_fingerprint(kernel: KernelConfig) -> str:
    """Every field of the kernel config, in declaration order."""
    return ",".join(
        f"{f.name}={getattr(kernel, f.name)}"
        for f in dataclasses.fields(kernel)
    )


def compose_key(
    ir_text: str,
    enabled: Iterable[str],
    kernel: KernelConfig,
    prog_type: ProgramType = ProgramType.XDP,
    mcpu: str = "v2",
    ctx_size: int = 64,
    validate: bool = False,
    pgo: Optional[str] = None,
    superopt: Optional[str] = None,
) -> str:
    """SHA-256 hex digest over the full compilation configuration.

    *pgo* is the :meth:`PgoSpec.fingerprint` string when profile-guided
    layout runs, or ``None``; the two configurations must never share
    an entry (layout reorders the emitted instruction stream).
    *superopt* is likewise the :meth:`SuperoptSpec.fingerprint` string
    when the superopt tier runs (it rewrites the instruction stream).
    """
    parts = (
        f"schema={SCHEMA_VERSION}",
        f"passes={','.join(sorted(enabled))}",
        f"kernel={kernel_fingerprint(kernel)}",
        f"prog_type={prog_type.value}",
        f"mcpu={mcpu}",
        f"ctx_size={ctx_size}",
        # the pipeline no longer verifies (the option went); the part
        # stays so every key, which tests/test_golden_compile.py pins,
        # is unchanged
        "verify_after=0",
        f"validate={int(validate)}",
        f"pgo={pgo if pgo is not None else '-'}",
        f"superopt={superopt if superopt is not None else '-'}",
        "ir:",
        ir_text,
    )
    return hashlib.sha256("\n".join(parts).encode()).hexdigest()


def key_for_window(insns, search: str = "") -> str:
    """Content key for a *canonicalized* superoptimizer window — the
    rewrite-memo namespace.

    The digest covers the canonical instruction encoding (registers
    renamed, offsets rebased by :func:`repro.core.superopt
    .canonicalize_window`) plus *search*, the spec's search-relevant
    fingerprint: entries found under different search budgets or seeds
    must not answer for one another, or ``cached == fresh`` breaks.
    """
    digest = hashlib.sha256()
    digest.update(f"schema={SCHEMA_VERSION};superopt-memo;{search};".encode())
    for insn in insns:
        digest.update(insn.encode())
    return digest.hexdigest()


def key_for_function(
    func: ir.Function,
    module: Optional[ir.Module] = None,
    *,
    enabled: FrozenSet[str],
    kernel: KernelConfig,
    prog_type: ProgramType = ProgramType.XDP,
    mcpu: str = "v2",
    ctx_size: int = 64,
    validate: bool = False,
    pgo: Optional[str] = None,
    superopt: Optional[str] = None,
) -> str:
    """Key an IR function directly (renders its canonical text first)."""
    return compose_key(canonical_text(func, module), enabled, kernel,
                       prog_type=prog_type, mcpu=mcpu, ctx_size=ctx_size,
                       validate=validate, pgo=pgo, superopt=superopt)
