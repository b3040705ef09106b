"""Shared stochastic-search machinery for bytecode rewriting.

This module holds the proposal moves, cost model and annealing
schedule that :mod:`repro.baselines.k2` built for the K2 baseline,
factored out so other search clients — notably the superoptimizer
tier's MCMC phase (:mod:`repro.core.superopt`) — can drive the same
engine without inheriting K2's program-level harness.  The pure
matchers its moves apply live beside the bytecode passes
(:mod:`repro.core.bytecode_passes.matchers`).

The extraction is bit-identical on purpose: every function preserves
the exact RNG call sequence of the original ``K2Optimizer`` methods,
and ``test_k2.py`` pins the search outcome for fixed seeds to keep it
that way.
"""

from __future__ import annotations

import random
from typing import List, Optional

from ..core.bytecode_passes.matchers import (collapse_shift_pair,
                                             collapse_store_imm,
                                             match_load_merge)
from ..core.bytecode_passes.symbolic import SymbolicProgram
from ..isa import BpfProgram, Instruction
from ..isa.helpers import HELPER_NAMES
from ..vm import cost as vmcost


# ----------------------------------------------------------------- proposals
def deletable(insn: Instruction) -> bool:
    return not (insn.is_jump or insn.is_exit or insn.is_call)


def delete_random(sym: SymbolicProgram, live: List[int],
                  rng: random.Random) -> None:
    candidates = [i for i in live if deletable(sym.insns[i].insn)]
    if not candidates:
        raise ValueError("nothing deletable")
    sym.delete(rng.choice(candidates))


def simplify_pair(sym: SymbolicProgram, live: List[int],
                  rng: random.Random) -> None:
    """Collapse a mov+store or shl/shr pair at a random location —
    the 'library' moves K2's synthesis can discover."""
    start = rng.randrange(len(live) - 1)
    for i in range(start, len(live) - 1):
        first = sym.insns[live[i]].insn
        second = sym.insns[live[i + 1]].insn
        merged = collapse_store_imm(first, second)
        if merged is not None:
            sym.delete(live[i])
            sym.replace(live[i + 1], merged)
            return
        merged = collapse_shift_pair(first, second)
        if merged is not None:
            sym.replace(live[i], merged)
            sym.delete(live[i + 1])
            return
    raise ValueError("no pair found")


def merge_loads(sym: SymbolicProgram, live: List[int],
                rng: random.Random) -> None:
    """Propose merging a byte-assembly window into one wide load —
    the kind of rewrite K2's synthesis discovers.  Correctness is
    left to the equivalence oracle (the dead helper register must
    really be dead for the candidate to survive testing)."""
    start = rng.randrange(max(len(live) - 3, 1))
    for i in range(start, len(live) - 3):
        merged = match_load_merge(sym.insns[live[i]].insn,
                                  sym.insns[live[i + 1]].insn,
                                  sym.insns[live[i + 2]].insn,
                                  sym.insns[live[i + 3]].insn)
        if merged is None:
            continue
        sym.replace(live[i], merged)
        sym.delete(live[i + 1])
        sym.delete(live[i + 2])
        sym.delete(live[i + 3])
        return
    raise ValueError("no mergeable load window")


def tweak_operand(sym: SymbolicProgram, live: List[int],
                  rng: random.Random) -> None:
    index = rng.choice(live)
    insn = sym.insns[index].insn
    if insn.is_alu and insn.uses_imm:
        delta = rng.choice([-1, 1])
        sym.replace(index, insn.with_(imm=insn.imm + delta),
                    sym.insns[index].target)
    elif insn.is_alu and not insn.uses_imm:
        sym.replace(index, insn.with_(src=rng.randrange(10)),
                    sym.insns[index].target)
    else:
        raise ValueError("cannot tweak")


def swap_adjacent(sym: SymbolicProgram, live: List[int],
                  rng: random.Random) -> None:
    i = rng.randrange(len(live) - 1)
    a, b = sym.insns[live[i]], sym.insns[live[i + 1]]
    if a.insn.is_jump or b.insn.is_jump or a.insn.is_exit or b.insn.is_exit:
        raise ValueError("cannot swap control flow")
    sym.insns[live[i]], sym.insns[live[i + 1]] = b, a


def mutate_program(program: BpfProgram,
                   rng: random.Random) -> Optional[BpfProgram]:
    """One proposal step: pick a move by the K2 mixture weights and
    apply it, or None when the program is too small / the move fails.

    The dispatch thresholds and per-move RNG consumption are pinned by
    the K2 regression tests — do not reorder."""
    sym = SymbolicProgram.from_program(program)
    live = sym.live_indices()
    if len(live) <= 2:
        return None
    choice = rng.random()
    try:
        if choice < 0.35:
            delete_random(sym, live, rng)
        elif choice < 0.55:
            simplify_pair(sym, live, rng)
        elif choice < 0.80:
            merge_loads(sym, live, rng)
        elif choice < 0.92:
            tweak_operand(sym, live, rng)
        else:
            swap_adjacent(sym, live, rng)
        return program.copy(insns=sym.to_insns())
    except Exception:
        return None


# ---------------------------------------------------------------- cost model
def program_cost(program: BpfProgram, ni_weight: float = 1.0,
                 perf_weight: float = 0.02) -> float:
    """K2's search objective: instruction count mixed with an estimated
    latency from the VM cost model."""
    perf = sum(
        vmcost.base_cost(insn)
        + (4 if insn.is_memory else 0)
        + (vmcost.HELPER_COST.get(
            HELPER_NAMES.get(insn.imm, ""), vmcost.DEFAULT_HELPER_COST)
           if insn.is_call else 0)
        for insn in program.insns
    )
    return ni_weight * program.ni + perf_weight * perf


def iteration_budget(iterations: int, ni: int,
                     size_rolloff: float = 60.0) -> int:
    """Effective proposals shrink as programs grow (see K2Config)."""
    effective = iterations * size_rolloff / (size_rolloff + ni)
    return max(150, int(effective))


def anneal_temperature(initial: float, step: int, budget: int) -> float:
    """K2's linear cooling schedule with a 0.05 floor."""
    return initial * (1.0 - step / max(budget, 1)) + 0.05
