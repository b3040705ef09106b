"""Caching windowed superoptimizer tier (EPSO-style).

A third optimization tier that runs after Merlin's hand-written
bytecode passes: slide a short window over the optimized program,
search for a strictly smaller instruction sequence computing the same
thing, and certify every applied rewrite with a standard ``region``
witness through :mod:`repro.tv`.

What makes the tier practical is the *rewrite memo*: windows are
canonicalized — registers renamed to first-use order (r10 pinned),
offsets rebased per never-redefined base register — so the same
discovery made on one program replays on every other program (and
every serve worker) that contains the same shape, without re-running
the search.  Entries live in the content-addressed compilation cache
under their own key namespace (:func:`repro.cache.keys.key_for_window`).

Soundness does not depend on the memo or on canonicalization at all:
a memo entry is only a *hint*.  Every rewrite — fresh or replayed — is
re-certified at the apply site on the actual instantiated instructions
(:func:`certify_rewrite`): the window and its replacement are run
through the validator's symbolic state, every differing register must
be provably-dead after the window, r10 and every written memory byte
must prove equal (``proved`` status only; ``checked`` is not good
enough here).  A poisoned or stale memo entry therefore costs a wasted
lookup, never a miscompile.  Warm replay skips the *search*, not the
cheap site certification — the ``memo_hits``/``searches`` counters let
tests assert exactly that.

The search itself is two-phase and fully deterministic for a given
(canonical window, spec): an enumerative pass over a small rewrite
library (single-instruction drops, ``ld_imm64`` narrowing, constant
folding, store merges, and the pair collapses and load merge of
:mod:`repro.core.bytecode_passes.matchers`, which K2's moves apply
too), then an optional MCMC walk reusing the K2 proposal/cost
machinery (:mod:`repro.baselines.search`, imported when a walk runs)
with the RNG seeded from the spec seed plus the canonical window
content.  Determinism is what makes
``cached == fresh`` hold bit-for-bit.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from ..isa import BpfProgram, Instruction
from ..isa import instruction as ins
from ..isa import opcodes as op
from ..isa.semantics import alu, fits_imm32, signed
from ..tv.expr import prove_equal
from ..tv.state import SymState, Unsupported, initial_byte, run_region
from .bytecode_passes.analysis import BytecodeAnalysis
from .bytecode_passes.matchers import (collapse_shift_pair, collapse_store_imm,
                                       match_load_merge)
from .bytecode_passes.superword import merged_immediate
from .bytecode_passes.symbolic import SymbolicProgram
from .pass_manager import BytecodePass

_U64 = (1 << 64) - 1

#: rewrite-memo entry layout revision; entries with any other value are
#: treated as invalid and fall back to a fresh search
MEMO_SCHEMA = 1

#: counter names the pass exposes (and tests assert on)
COUNTERS = ("windows", "searches", "memo_hits", "memo_misses",
            "memo_invalid", "site_rejects", "applied")


class UncanonicalError(ValueError):
    """The window cannot be canonicalized (or a memoized rewrite cannot
    be instantiated at this site)."""


# --------------------------------------------------------------------- spec
@dataclass(frozen=True)
class SuperoptSpec:
    """Parameters of the superoptimizer tier.

    Frozen so requests and cache keys stay hashable.  ``window`` is the
    maximum window length in instructions; ``iterations`` the MCMC
    proposal budget per window (0 disables the stochastic phase, the
    enumerative library still runs); ``seed`` feeds both the prover
    sampling and the per-window MCMC RNG.
    """

    window: int = 4
    iterations: int = 32
    seed: int = 2024

    def fingerprint(self) -> str:
        """Stable identity for compilation-cache keys."""
        return (f"window={self.window},iterations={self.iterations},"
                f"seed={self.seed}")

    def search_fingerprint(self) -> str:
        """The parts that change what ``search_window`` can discover —
        folded into rewrite-memo keys so entries produced under
        different search budgets never mix."""
        return f"iterations={self.iterations},seed={self.seed}"

    @classmethod
    def from_dict(cls, data: dict) -> "SuperoptSpec":
        return cls(window=data.get("window", cls.window),
                   iterations=data.get("iterations", cls.iterations),
                   seed=data.get("seed", cls.seed))

    def to_dict(self) -> dict:
        return {"window": self.window, "iterations": self.iterations,
                "seed": self.seed}


# ----------------------------------------------------------- canonical form
def _reg_fields(insn: Instruction) -> Tuple[str, ...]:
    """The instruction fields that actually name registers.  Everything
    else (the ``src`` of an immediate-operand ALU op, say) is encoding
    noise that canonicalization zeroes."""
    if insn.is_ld_imm64:
        return ("dst",)
    if insn.is_alu:
        if insn.alu_op in (op.BPF_NEG, op.BPF_END):
            return ("dst",)
        return ("dst",) if insn.uses_imm else ("dst", "src")
    if insn.is_load:
        return ("dst", "src")
    if insn.is_atomic:
        return ("dst", "src")
    if insn.is_store:
        return ("dst",) if insn.is_store_imm else ("dst", "src")
    return ("dst", "src")


def window_supported(window: Sequence[Instruction]) -> bool:
    """Windows the tier considers: straightline computation only.  No
    control flow, no map-fd ``ld_imm64`` (program-local relocation), no
    cmpxchg (r0 side channel the window rename does not model)."""
    for insn in window:
        if insn.is_jump or insn.is_call or insn.is_exit:
            return False
        if insn.is_ld_imm64 and insn.src != 0:
            return False
        if insn.is_atomic and insn.imm == op.BPF_CMPXCHG:
            return False
    return True


def canonicalize_window(
    window: Sequence[Instruction],
) -> Tuple[Tuple[Instruction, ...], Dict[int, int], Dict[int, int]]:
    """Rename a window into its canonical form.

    Registers are renamed to first-visit order over the meaningful
    register fields (r10, the frame pointer, maps to itself); memory
    offsets are rebased to zero per base register, but only when that
    base is never redefined inside the window (r10 always qualifies,
    which is what lets stack idioms at different frame offsets share
    one memo entry).

    Returns ``(canonical, rename, deltas)`` where ``rename`` maps site
    register -> canonical register and ``deltas`` maps canonical base
    register -> the offset that :func:`instantiate` must add back.
    """
    insns = list(window)
    if not window_supported(insns):
        raise UncanonicalError("window contains unsupported instructions")
    rename: Dict[int, int] = {10: 10}
    for insn in insns:
        for name in _reg_fields(insn):
            reg = getattr(insn, name)
            if reg not in rename:
                rename[reg] = len(rename) - 1  # r10 pinned; others 0,1,...
    defined = set()
    for insn in insns:
        defined.update(insn.defs())
    rebase: Dict[int, int] = {}
    for insn in insns:
        if insn.is_memory:
            base = insn.src if insn.is_load else insn.dst
            if base in defined:
                continue
            rebase[base] = min(rebase.get(base, insn.off), insn.off)
    canonical: List[Instruction] = []
    for insn in insns:
        fields: Dict[str, int] = {}
        names = _reg_fields(insn)
        for name in names:
            fields[name] = rename[getattr(insn, name)]
        if "src" not in names and insn.src:
            fields["src"] = 0
        if insn.is_memory:
            base = insn.src if insn.is_load else insn.dst
            if base in rebase:
                off = insn.off - rebase[base]
                if not -(1 << 15) <= off < (1 << 15):
                    raise UncanonicalError(
                        f"rebased offset {off} out of s16 range")
                fields["off"] = off
        canonical.append(insn.with_(**fields))
    deltas = {rename[base]: delta for base, delta in rebase.items()}
    return tuple(canonical), rename, deltas


def instantiate(rewrite: Sequence[Instruction], rename: Dict[int, int],
                deltas: Dict[int, int]) -> List[Instruction]:
    """Map a canonical-space rewrite back into site registers/offsets —
    the inverse of :func:`canonicalize_window` for the rename domain."""
    inverse = {canon: site for site, canon in rename.items()}
    out: List[Instruction] = []
    for insn in rewrite:
        fields: Dict[str, int] = {}
        names = _reg_fields(insn)
        for name in names:
            canon = getattr(insn, name)
            if canon not in inverse:
                raise UncanonicalError(
                    f"rewrite names r{canon} outside the window rename")
            fields[name] = inverse[canon]
        if insn.is_memory:
            base = insn.src if insn.is_load else insn.dst
            if base in deltas:
                fields["off"] = insn.off + deltas[base]
        out.append(insn.with_(**fields))
    return out


def _window_registers(window: Sequence[Instruction]) -> FrozenSet[int]:
    regs = {10}
    for insn in window:
        for name in _reg_fields(insn):
            regs.add(getattr(insn, name))
    return frozenset(regs)


# ------------------------------------------------------------ certification
def _diff_states(before: SymState, after: SymState,
                 seed: int) -> Optional[Tuple[int, ...]]:
    """Compare two symbolic end states.

    Returns the (sorted) clobber set — registers whose values provably
    may differ — or None when the states cannot be certified
    equivalent.  Equality must be *proved* (``checked`` does not
    count): r10 and every written memory byte must match, any other
    differing register becomes a clobber the caller must show dead.
    """
    clobbered: List[int] = []
    for reg in range(11):
        lhs, rhs = before.regs[reg], after.regs[reg]
        if lhs == rhs:
            continue
        status, _, _ = prove_equal(lhs, rhs, seed=seed)
        if status == "proved":
            continue
        if reg == 10:
            return None
        clobbered.append(reg)
    keys = set(before.memory) | set(after.memory)
    for base, off in keys:
        lhs = before.memory.get((base, off), initial_byte(base, off))
        rhs = after.memory.get((base, off), initial_byte(base, off))
        if lhs == rhs:
            continue
        status, _, _ = prove_equal(lhs, rhs, seed=seed)
        if status != "proved":
            return None
    return tuple(clobbered)


def certify_rewrite(window: Sequence[Instruction],
                    replacement: Sequence[Instruction],
                    seed: int = 0) -> Optional[Tuple[int, ...]]:
    """Site-level certification: run both sequences through the
    validator's symbolic state and return the clobber set, or None when
    the replacement cannot be certified.  This runs on the *actual*
    instructions about to be spliced in, which is why memo entries can
    never poison a program."""
    try:
        before = run_region(list(window))
        after = run_region(list(replacement))
    except Unsupported:
        return None
    return _diff_states(before, after, seed)


def _candidate_clobbers(candidate: Sequence[Instruction], before: SymState,
                        allowed: FrozenSet[int],
                        seed: int) -> Optional[Tuple[int, ...]]:
    """Evaluate one search candidate against the window's end state.
    Rejects candidates that could not be instantiated or verified at an
    apply site (foreign registers, control flow, misaligned r10
    access)."""
    for insn in candidate:
        if insn.is_jump or insn.is_call or insn.is_exit:
            return None
        if insn.is_ld_imm64 and insn.src != 0:
            return None
        for name in _reg_fields(insn):
            if getattr(insn, name) not in allowed:
                return None
        if insn.is_memory:
            base = insn.src if insn.is_load else insn.dst
            if base == 10 and insn.off % insn.size_bytes:
                return None  # would trip the verifier's stack alignment
    try:
        after = run_region(list(candidate))
    except Unsupported:
        return None
    return _diff_states(before, after, seed)


# ------------------------------------------------------------------- search
_FOLDABLE = (op.BPF_ADD, op.BPF_SUB, op.BPF_MUL, op.BPF_AND, op.BPF_OR,
             op.BPF_XOR, op.BPF_LSH, op.BPF_RSH, op.BPF_ARSH, op.BPF_MOV)


def _as_s32(value: int) -> Optional[int]:
    """The signed value whose 64-bit sign extension is *value*, if it
    fits in an s32 immediate."""
    value = signed(value, 64)
    return value if fits_imm32(value) else None


def narrow_ld_imm64(insn: Instruction) -> Optional[Instruction]:
    """``ld_imm64 r, C`` -> ``mov64 r, C`` when C sign-extends from
    s32: same value, half the encoding slots."""
    if not (insn.is_ld_imm64 and insn.src == 0):
        return None
    imm = _as_s32(insn.imm & _U64)
    if imm is None:
        return None
    return ins.mov64_imm(insn.dst, imm)


def fold_constant_pair(a: Instruction, b: Instruction) -> Optional[Instruction]:
    """``mov64 r, C ; alu64 r, K``  ->  ``mov64 r, (C op K)`` when the
    folded constant still fits an s32 immediate."""
    if not (a.is_alu64 and a.alu_op == op.BPF_MOV and a.uses_imm):
        return None
    if not (b.is_alu64 and b.uses_imm and b.dst == a.dst
            and b.alu_op in _FOLDABLE):
        return None
    imm = _as_s32(alu(b.alu_op, a.imm & _U64, b.imm & _U64, 64))
    if imm is None:
        return None
    return ins.mov64_imm(a.dst, imm)


def merge_store_imm(a: Instruction, b: Instruction) -> Optional[Instruction]:
    """Two adjacent same-width immediate stores -> one double-width
    immediate store (little-endian byte concatenation), kept aligned so
    the merged access stays verifier-clean on the stack."""
    if not (a.is_store_imm and b.is_store_imm and a.dst == b.dst):
        return None
    size = a.size_bytes
    if size != b.size_bytes or size >= 8 or b.off != a.off + size:
        return None
    if a.off % (2 * size):
        return None
    imm = merged_immediate(a.imm, b.imm, size)
    if imm is None:
        return None
    return ins.store_imm(2 * size, a.dst, a.off, imm)


def _enumerate_candidates(window: Tuple[Instruction, ...]):
    """The deterministic rewrite library, in a fixed order."""
    n = len(window)
    for i in range(n):  # single-instruction drops
        yield window[:i] + window[i + 1:]
    for i, insn in enumerate(window):
        narrowed = narrow_ld_imm64(insn)
        if narrowed is not None:
            yield window[:i] + (narrowed,) + window[i + 1:]
    for i in range(n - 1):
        for matcher in (collapse_store_imm, collapse_shift_pair,
                        fold_constant_pair, merge_store_imm):
            merged = matcher(window[i], window[i + 1])
            if merged is not None:
                yield window[:i] + (merged,) + window[i + 2:]
    for i in range(n - 3):
        merged = match_load_merge(*window[i:i + 4])
        if merged is not None:
            yield window[:i] + (merged,) + window[i + 4:]


def _window_seed(seed: int, window: Sequence[Instruction]) -> int:
    digest = hashlib.sha256(f"superopt:{seed}:".encode())
    for insn in window:
        digest.update(insn.encode())
    return int.from_bytes(digest.digest()[:8], "big")


def _mcmc_candidates(window: Tuple[Instruction, ...], spec: SuperoptSpec):
    """MCMC phase: drive the K2 proposal/cost machinery over the window
    as a miniature program.  Deterministic: the RNG is seeded from the
    spec seed plus the canonical window content."""
    from ..baselines import search

    current = BpfProgram("superopt.window", list(window))
    current_cost = search.program_cost(current)
    rng = random.Random(_window_seed(spec.seed, window))
    for step in range(spec.iterations):
        temperature = search.anneal_temperature(4.0, step, spec.iterations)
        candidate = search.mutate_program(current, rng)
        if candidate is None:
            continue
        cost = search.program_cost(candidate)
        accepted = yield tuple(candidate.insns)
        if not accepted:
            continue
        delta = cost - current_cost
        if delta <= 0 or rng.random() < math.exp(-delta / temperature):
            current, current_cost = candidate, cost


# --------------------------------------------------------------- memo entry
@dataclass(frozen=True)
class RewriteMemoEntry:
    """One memoized search outcome for a canonical window.

    ``rewrite is None`` records a *negative* result — the search ran
    and found nothing — so cold windows are only ever searched once
    per cache tree, whichever process shares it.  ``clobbered`` is advisory (the clobbers the search
    observed in canonical space); the apply site recomputes its own.
    """

    schema: int
    canonical: Tuple[Instruction, ...]
    rewrite: Optional[Tuple[Instruction, ...]]
    clobbered: Tuple[int, ...]
    searched: int
    search: str  # SuperoptSpec.search_fingerprint() that produced it

    @property
    def found(self) -> bool:
        return self.rewrite is not None


def validate_memo_entry(entry: object,
                        canonical: Sequence[Instruction],
                        search: str) -> bool:
    """Structural screen for memo entries read back from disk.  This is
    defense-in-depth against poisoned or stale stores — the apply-site
    certification is what actually guarantees soundness."""
    if not isinstance(entry, RewriteMemoEntry):
        return False
    if entry.schema != MEMO_SCHEMA or entry.search != search:
        return False
    try:
        if tuple(entry.canonical) != tuple(canonical):
            return False
        if entry.rewrite is not None:
            if not all(isinstance(i, Instruction) for i in entry.rewrite):
                return False
            if not all(isinstance(r, int) and 0 <= r < 10
                       for r in entry.clobbered):
                return False
    except TypeError:
        return False
    return True


def search_window(canonical: Sequence[Instruction],
                  spec: SuperoptSpec) -> RewriteMemoEntry:
    """Search one canonical window for a strictly smaller equivalent.

    A pure function of ``(canonical, spec)`` — both phases are
    deterministic — which is what makes memo replay byte-identical to a
    fresh search.  The best candidate minimizes ``(ni, clobber count)``
    and must beat the window's own NI.
    """
    canonical = tuple(canonical)
    fingerprint = spec.search_fingerprint()
    try:
        before = run_region(list(canonical))
    except Unsupported:
        return RewriteMemoEntry(MEMO_SCHEMA, canonical, None, (), 0,
                                fingerprint)
    allowed = _window_registers(canonical)
    best: Optional[Tuple[Tuple[Instruction, ...], Tuple[int, ...]]] = None
    best_key = (ins.ni(canonical), len(allowed) + 1)
    searched = 0
    for candidate in _enumerate_candidates(canonical):
        searched += 1
        clobbers = _candidate_clobbers(candidate, before, allowed, spec.seed)
        if clobbers is None:
            continue
        key = (ins.ni(candidate), len(clobbers))
        if key < best_key:
            best, best_key = (tuple(candidate), clobbers), key
    if spec.iterations > 0:
        walk = _mcmc_candidates(canonical, spec)
        try:
            candidate = next(walk)
            while True:
                searched += 1
                clobbers = _candidate_clobbers(candidate, before, allowed,
                                               spec.seed)
                if clobbers is not None:
                    key = (ins.ni(candidate), len(clobbers))
                    if key < best_key:
                        best, best_key = (tuple(candidate), clobbers), key
                candidate = walk.send(clobbers is not None)
        except StopIteration:
            pass
    if best is None:
        return RewriteMemoEntry(MEMO_SCHEMA, canonical, None, (), searched,
                                fingerprint)
    return RewriteMemoEntry(MEMO_SCHEMA, canonical, best[0], best[1],
                            searched, fingerprint)


# --------------------------------------------------------------------- pass
class SuperoptimizerPass(BytecodePass):
    """The windowed superoptimizer as a standard bytecode pass.

    ``memo`` is any object with the :class:`repro.cache.store
    .CompilationCache` object interface (``get_object``/``put_object``)
    or None for search-only operation.  Counters (:data:`COUNTERS`)
    expose the memo behaviour for tests and the serve payload.
    """

    name = "superopt"

    def __init__(self, spec: Optional[SuperoptSpec] = None, memo=None):
        self.spec = spec if spec is not None else SuperoptSpec()
        self.memo = memo
        self.counters: Dict[str, int] = {key: 0 for key in COUNTERS}

    # ------------------------------------------------------------- memo
    def _memo_key(self, canonical: Tuple[Instruction, ...]) -> str:
        from ..cache.keys import key_for_window

        return key_for_window(canonical, self.spec.search_fingerprint())

    def _lookup_or_search(
            self, canonical: Tuple[Instruction, ...]) -> RewriteMemoEntry:
        fingerprint = self.spec.search_fingerprint()
        key = None
        if self.memo is not None:
            key = self._memo_key(canonical)
            entry = self.memo.get_object(key)
            if entry is None:
                self.counters["memo_misses"] += 1
            elif validate_memo_entry(entry, canonical, fingerprint):
                self.counters["memo_hits"] += 1
                return entry
            else:
                self.counters["memo_invalid"] += 1
        entry = search_window(canonical, self.spec)
        self.counters["searches"] += 1
        if self.memo is not None:
            self.memo.put_object(key, entry)
        return entry

    # -------------------------------------------------------------- run
    def run(self, program: BpfProgram, sym: SymbolicProgram,
            analysis: BytecodeAnalysis) -> int:
        rewrites = 0
        pos = 0
        while pos < len(analysis.live):
            if self._try_window(sym, analysis, pos):
                rewrites += 1
                # indices at/after pos changed; positions before did not
                analysis.refresh()
                continue  # retry the same position: rewrites can cascade
            pos += 1
        return rewrites

    def _try_window(self, sym: SymbolicProgram, analysis: BytecodeAnalysis,
                    pos: int) -> bool:
        live = analysis.live
        longest = min(self.spec.window, len(live) - pos)
        for length in range(longest, 0, -1):
            first, last = live[pos], live[pos + length - 1]
            if not analysis.straightline(first, last):
                continue
            window = [sym.insns[live[pos + k]].insn for k in range(length)]
            if not window_supported(window):
                continue
            try:
                canonical, rename, deltas = canonicalize_window(window)
            except UncanonicalError:
                continue
            self.counters["windows"] += 1
            entry = self._lookup_or_search(canonical)
            if entry.rewrite is None:
                continue
            try:
                replacement = instantiate(entry.rewrite, rename, deltas)
            except UncanonicalError:
                continue
            if ins.ni(replacement) >= ins.ni(window):
                continue
            clobbers = certify_rewrite(window, replacement,
                                       seed=self.spec.seed)
            if clobbers is None or 10 in clobbers:
                self.counters["site_rejects"] += 1
                continue
            try:
                dead = all(analysis.reg_dead_after(last, reg)
                           for reg in clobbers)
            except KeyError:
                dead = False
            if not dead:
                self.counters["site_rejects"] += 1
                continue
            snapshot = self._snapshot(sym)
            for k in range(length):
                index = live[pos + k]
                if k < len(replacement):
                    sym.replace(index, replacement[k])
                else:
                    sym.delete(index)
            self._witness_region(
                sym, snapshot, first, last, clobbered=clobbers,
                note=f"superopt window {length}->{len(replacement)} insns")
            self.counters["applied"] += 1
            return True
        return False
