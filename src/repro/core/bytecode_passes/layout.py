"""Profile-guided code layout (BOLT-style) for eBPF bytecode.

Merlin's six passes optimize for compactness; this tier feeds the
simulator's *runtime* models back into the code.  A program is run on a
workload battery under a :class:`repro.hw.ProfilingBranchPredictor`,
which tallies per-site taken / not-taken counts with zero change to the
predicted/mirrored counters.  From those tallies (plus flow
conservation — the same reconstruction BOLT performs from LBR samples)
the pass derives a weighted CFG and applies the three classic layout
transforms:

* **branch straightening** — invert a conditional when its hot
  direction is the jump target, so the common case falls through.  The
  2-bit predictor boots weakly *not-taken*, so every mostly-taken site
  pays a warm-up mispredict on each fresh machine; straightening makes
  the hot direction the predicted-from-cold one.
* **chain-based block reordering** (greedy ext-TSP flavour) — merge
  blocks into chains along the hottest edges so hot successors become
  fall-throughs and hot unconditional jumps disappear entirely.
* **hot/cold splitting** — never-executed chains sink to the end of
  the program, keeping the hot path dense.

Re-emission goes through :class:`SymbolicProgram`, so every branch is
relocated by logical target, and the pass bails out (leaving the
program untouched) if any relocated offset would overflow the signed
16-bit ``off`` field.  Every applied layout emits a single ``layout``
witness carrying the full before-snapshot and the final instruction
list; :mod:`repro.tv.regioncheck` certifies it by a lock-step
bisimulation in which unconditional jumps are transparent and
conditionals must match up to inversion with swapped successors.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ...isa import BpfProgram, Instruction
from ...isa import opcodes as op
from ...isa.cfg import COND, EXIT, FALL, JA, KIND, Cfg
from ...isa.instruction import jump
from ..pass_manager import BytecodePass
from .symbolic import SymInsn, SymbolicProgram

#: conditional jump inversions (JSET has no complement opcode)
_INVERSE_COND = {
    op.BPF_JEQ: op.BPF_JNE, op.BPF_JNE: op.BPF_JEQ,
    op.BPF_JGT: op.BPF_JLE, op.BPF_JLE: op.BPF_JGT,
    op.BPF_JGE: op.BPF_JLT, op.BPF_JLT: op.BPF_JGE,
    op.BPF_JSGT: op.BPF_JSLE, op.BPF_JSLE: op.BPF_JSGT,
    op.BPF_JSGE: op.BPF_JSLT, op.BPF_JSLT: op.BPF_JSGE,
}

_S16_MIN, _S16_MAX = -(1 << 15), (1 << 15) - 1


def invert_condition(insn: Instruction) -> Optional[Instruction]:
    """The complementary conditional jump, or None when there is none
    (``jset``).  Class (JMP/JMP32), operands and immediate carry over;
    the caller rewires the target."""
    inverse = _INVERSE_COND.get(insn.jmp_op)
    if inverse is None:
        return None
    return insn.with_(opcode=(insn.opcode & ~op.JMP_OP_MASK) | inverse)


# ---------------------------------------------------------------------------
# profiles
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class PgoSpec:
    """A deterministic profile-collection recipe.

    The spec — not the collected counts — is what requests carry and
    what :mod:`repro.cache` keys fold in: two compiles of the same
    source under the same spec replay the same training battery and
    produce the same layout, so a cached entry is exact.
    """

    tests: int = 6       # workload inputs per training battery
    runs: int = 1        # battery repetitions
    seed: int = 2024     # input-generation / map-seeding seed
    max_insns: int = 200_000

    def fingerprint(self) -> str:
        """Stable digest text for cache keys and request echoes."""
        return (f"tests={self.tests},runs={self.runs},seed={self.seed},"
                f"max_insns={self.max_insns}")

    @classmethod
    def from_dict(cls, obj: dict) -> "PgoSpec":
        return cls(tests=obj.get("tests", 6), runs=obj.get("runs", 1),
                   seed=obj.get("seed", 2024),
                   max_insns=obj.get("max_insns", 200_000))

    def to_dict(self) -> dict:
        return {"tests": self.tests, "runs": self.runs, "seed": self.seed,
                "max_insns": self.max_insns}


@dataclass
class ExecutionProfile:
    """What profiling observed: per-site conditional-branch tallies.

    ``taken``/``not_taken`` are keyed by *slot* pc (what the VM reports
    to the predictor).  ``entries`` counts completed entries into the
    program — the entry block's execution count for flow propagation.
    """

    entries: int = 0
    taken: Dict[int, int] = field(default_factory=dict)
    not_taken: Dict[int, int] = field(default_factory=dict)
    faults: int = 0

    @property
    def empty(self) -> bool:
        return not self.taken and not self.not_taken and not self.entries


def collect_profile(program: BpfProgram,
                    spec: Optional[PgoSpec] = None,
                    tests: Optional[Sequence] = None,
                    predictor=None) -> ExecutionProfile:
    """Run *program* on a training battery and return its profile.

    The battery mirrors the differential oracle's conventions (same
    input generator, same map-coverage cycle), so a profile collected
    here describes the same workload the oracle and the benchmarks
    measure.  Each test runs on a **fresh** machine — profiles describe
    cold-start behavior, which is exactly what the layout pass
    optimizes — but the profiling predictor is shared across the
    battery and explicitly ``reset()`` first, so back-to-back
    collections over different programs never leak tallies or predictor
    state into each other.  The battery is a handful of one-shot runs,
    so it runs on the reference interpreter, which has no bind cost.
    """
    # lazy: repro.vm transitively imports repro.cache/core; keeping the
    # import out of module scope keeps this module cycle-free
    from ...hw import ProfilingBranchPredictor
    from ...vm import Machine
    from ...fuzz.oracle import (COVERAGE_CYCLE, RUNTIME_FAULTS,
                                generate_tests, populate_maps)

    spec = spec or PgoSpec()
    if tests is None:
        tests = generate_tests(program, count=spec.tests, seed=spec.seed)
    if predictor is None:
        predictor = ProfilingBranchPredictor()
    predictor.reset()

    profile = ExecutionProfile()
    for _ in range(max(spec.runs, 1)):
        for index, test in enumerate(tests):
            machine = Machine(program, branch=predictor, seed=spec.seed,
                              max_insns=spec.max_insns)
            coverage = COVERAGE_CYCLE[index % len(COVERAGE_CYCLE)]
            if coverage:
                populate_maps(machine, coverage, spec.seed + index)
            try:
                machine.run(ctx=test.ctx, packet=test.packet)
            except RUNTIME_FAULTS:
                profile.faults += 1
            profile.entries += 1
    profile.taken = dict(predictor.taken_counts)
    profile.not_taken = dict(predictor.not_taken_counts)
    return profile


# ---------------------------------------------------------------------------
# weighted CFG
# ---------------------------------------------------------------------------
@dataclass
class _Edge:
    src: int
    dst: int
    weight: Optional[int]
    kind: str  # "taken" | "fall" | "ja"


def _cfg_edges(cfg: Cfg, profile: ExecutionProfile,
               slot_of: List[int]) -> List[_Edge]:
    """The edges between blocks.  A conditional edge carries its
    profiled weight; an unconditional one (``ja`` or fall-through) gets
    its source block's count from :func:`_block_counts`."""
    edges: List[_Edge] = []
    end_id = len(cfg.first)
    for bid, kind in enumerate(cfg.kind):
        if kind == COND:
            slot = slot_of[cfg.last[bid]]
            arms = ((cfg.taken[bid], profile.taken.get(slot, 0), "taken"),
                    (cfg.fall[bid], profile.not_taken.get(slot, 0), "fall"))
        elif kind == JA:
            arms = ((cfg.taken[bid], None, JA),)
        elif kind == FALL:
            arms = ((cfg.fall[bid], None, FALL),)
        else:
            continue
        edges += [_Edge(bid, dst, weight, arm) for dst, weight, arm in arms
                  if 0 <= dst < end_id]
    return edges


def _block_counts(nblocks: int, edges: List[_Edge],
                  profile: ExecutionProfile) -> List[int]:
    """Per-block execution counts by flow conservation; fills in the
    weight of every unconditional edge.

    Conditional edges carry exact profiled weights; unconditional edges
    (``ja`` and plain fall-through) carry their source block's count, so
    counts propagate iteratively.  Cycles made *only* of unconditional
    edges cannot terminate and thus never execute in a completed run, so
    the bounded iteration converges on everything a profile can
    describe; faulted runs make counts mildly approximate, which only
    steers ordering heuristics.
    """
    cond_in: List[int] = [0] * nblocks
    uncond_preds: List[List[int]] = [[] for _ in range(nblocks)]
    for edge in edges:
        if edge.weight is None:
            uncond_preds[edge.dst].append(edge.src)
        else:
            cond_in[edge.dst] += edge.weight

    counts = [0] * nblocks
    for _ in range(nblocks + 1):
        changed = False
        for bid in range(nblocks):
            total = cond_in[bid] + (profile.entries if bid == 0 else 0)
            total += sum(counts[p] for p in uncond_preds[bid])
            if total != counts[bid]:
                counts[bid] = total
                changed = True
        if not changed:
            break
    for edge in edges:
        if edge.weight is None:
            edge.weight = counts[edge.src]
    return counts


# ---------------------------------------------------------------------------
# chain ordering
# ---------------------------------------------------------------------------
def _edge_gain(edge: _Edge, mispredict_penalty: int,
               line_bytes: int) -> float:
    """Estimated cycles saved per profile window if ``edge.dst`` is laid
    out directly after ``edge.src``, scored against the hw models:

    * a ``ja`` whose target becomes adjacent disappears — one
      instruction-cycle per traversal;
    * a conditional whose *hot* direction becomes the fall-through is
      straightened, saving the predictor's cold-start mispredict (the
      2-bit counter boots weakly not-taken) at ``mispredict_penalty``
      cycles — charged once, since a trained predictor tracks either
      polarity equally;
    * adjacency also packs the pair into fewer cache lines; the icache
      is not simulated by :class:`repro.hw.CacheModel`, so this term
      only breaks ties.
    """
    gain = float(edge.weight)
    if edge.kind == JA:
        gain += float(edge.weight)
    elif edge.kind == "taken" and edge.weight:
        # straightening needs an invertible condition; emission
        # re-checks and degrades to cond+ja when there is none
        gain += float(mispredict_penalty)
    gain += 8.0 / max(line_bytes, 1)
    return gain


def _chain_order(edges: List[_Edge], counts: List[int],
                 mispredict_penalty: int, line_bytes: int) -> List[int]:
    """Greedy chain merging (Pettis–Hansen seeded, ext-TSP scored):
    every block starts alone; edges are visited by descending gain and
    merge chains tail-to-head; the entry chain leads, hot chains follow
    by weight, never-executed chains sink to the end (hot/cold split).
    """
    end_id = len(counts)
    chain_of = list(range(end_id))
    chains: Dict[int, List[int]] = {bid: [bid] for bid in range(end_id)}

    ranked = sorted(
        (e for e in edges if e.src != e.dst and e.weight > 0),
        key=lambda e: (-_edge_gain(e, mispredict_penalty, line_bytes),
                       e.src, e.dst))
    for edge in ranked:
        ca, cb = chain_of[edge.src], chain_of[edge.dst]
        if ca == cb or edge.dst == 0:
            continue  # entry block must stay first
        if chains[ca][-1] != edge.src or chains[cb][0] != edge.dst:
            continue  # only tail-to-head merges keep both chains intact
        chains[ca].extend(chains[cb])
        for bid in chains[cb]:
            chain_of[bid] = ca
        del chains[cb]

    def chain_weight(members: List[int]) -> int:
        return sum(counts[bid] for bid in members)

    entry_chain = chain_of[0]
    rest = [cid for cid in chains if cid != entry_chain]
    hot = [cid for cid in rest if chain_weight(chains[cid]) > 0]
    cold = [cid for cid in rest if chain_weight(chains[cid]) == 0]
    hot.sort(key=lambda cid: (-chain_weight(chains[cid]), chains[cid][0]))
    cold.sort(key=lambda cid: chains[cid][0])

    order: List[int] = []
    for cid in [entry_chain] + hot + cold:
        order.extend(chains[cid])
    return order


# ---------------------------------------------------------------------------
# the pass
# ---------------------------------------------------------------------------
class ProfileGuidedLayoutPass(BytecodePass):
    """Re-lay a program out along its profiled hot paths.

    Behavior-preserving by construction: block bodies are moved
    verbatim, terminators are only inverted (with swapped successors)
    or exchanged for / relieved of an explicit ``ja``, and the whole
    rewrite is re-relocated through :class:`SymbolicProgram`.  Perf
    *counters* legitimately change — that is the point — so the fuzz
    layout axis compares return value, state and faults but not
    counters.
    """

    name = "layout"

    def __init__(self, profile: ExecutionProfile):
        self.profile = profile

    def run(self, program: BpfProgram) -> int:
        if self.profile.empty or len(program.insns) < 2:
            return 0
        sym = SymbolicProgram.from_program(program)
        cfg = Cfg(program.insns)
        if len(cfg.first) < 2:
            return 0
        edges = _cfg_edges(cfg, self.profile, program.slot_offsets())
        counts = _block_counts(len(cfg.first), edges, self.profile)
        # score merges against the simulator's actual models
        from ...hw import BranchPredictor, CacheModel

        penalty = BranchPredictor().mispredict_penalty
        line_bytes = CacheModel().line_bytes
        order = _chain_order(edges, counts, penalty, line_bytes)

        emitted = self._emit(cfg, order)
        if emitted is None:
            return 0
        new_insns, moved, inverted = emitted
        if new_insns == list(program.insns):
            return 0
        snapshot = self._snapshot(sym)
        program.insns = new_insns
        self._witness_layout(
            snapshot, new_insns,
            note=f"{moved} block(s) moved, {inverted} branch(es) "
                 f"straightened")
        return max(moved + inverted, 1)

    # ------------------------------------------------------------ emission
    def _emit(self, cfg: Cfg, order: List[int]
              ) -> Optional[Tuple[List[Instruction], int, int]]:
        """Emit blocks in *order*; returns ``(insns, moved, inverted)``
        or None when a relocated offset cannot be encoded."""
        end_id = len(cfg.first)
        moved = sum(1 for pos, bid in enumerate(order) if pos != bid)
        inverted = 0

        # (instruction, successor block id or None) in layout order
        out: List[Tuple[Instruction, Optional[int]]] = []
        block_start: Dict[int, int] = {}
        for pos, bid in enumerate(order):
            kind, taken, fall = cfg.kind[bid], cfg.taken[bid], cfg.fall[bid]
            nxt = order[pos + 1] if pos + 1 < len(order) else end_id
            block_start[bid] = len(out)
            body = cfg.insns[cfg.first[bid]:cfg.last[bid] + 1]
            if kind == EXIT:
                out.extend((insn, None) for insn in body)
            elif kind == JA:
                out.extend((insn, None) for insn in body[:-1])
                if taken != nxt:
                    out.append((body[-1], taken))
            elif kind == COND:
                out.extend((insn, None) for insn in body[:-1])
                cond = body[-1]
                if fall == nxt or taken == fall:
                    out.append((cond, taken))
                    if taken == fall and fall != nxt:
                        out.append((jump("ja"), fall))
                else:
                    flipped = invert_condition(cond)
                    if taken == nxt and flipped is not None:
                        out.append((flipped, fall))
                        inverted += 1
                    else:
                        out.append((cond, taken))
                        out.append((jump("ja"), fall))
            else:  # FALL
                out.extend((insn, None) for insn in body)
                if fall != nxt:
                    out.append((jump("ja"), fall))

        total = len(out)
        resolved = SymbolicProgram([
            SymInsn(insn,
                    None if succ is None
                    else (total if succ == end_id else block_start[succ]))
            for insn, succ in out
        ])
        insns = resolved.to_insns()
        for insn in insns:
            if (KIND[insn.opcode] in (JA, COND)
                    and not _S16_MIN <= insn.off <= _S16_MAX):
                return None  # branch out of signed-16-bit range: bail
        return insns, moved, inverted
