"""Seeded program draws: the inputs every workload is built from.

Suite programs are drawn with the benchmark seed from the canonical
``repro.workloads.generate_suite`` populations (sysdig, tetragon,
tracee, with the generator's own default seed, as the paper harnesses
use them), by loop presence and size rank (see :func:`suite_draw`), so
every seed yields the same profile with different programs: totals and
medians over the draw move with the program under test, not with the
luck of the draw.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from common import interleave, rng_for

SUITES = ("sysdig", "tetragon", "tracee")


@dataclass(frozen=True)
class Prog:
    """One program as a caller hands it to the toolchain."""

    name: str
    source: str
    entry: str
    prog_type: str      # repro.isa.ProgramType value
    mcpu: str
    ctx_size: int
    group: str          # "xdp" or the suite name
    #: compile with the superoptimizer, PGO layout and TV tiers
    tiers: bool = False

    def request(self) -> dict:
        """The ``repro serve`` compile request for this program."""
        return {"name": self.name, "source": self.source,
                "entry": self.entry, "prog_type": self.prog_type,
                "mcpu": self.mcpu, "ctx_size": self.ctx_size}


def xdp_programs() -> List[Prog]:
    """The 19 curated XDP programs (paper Table 1), in their listed order."""
    from repro.workloads import ALL_XDP, XDP_CTX_SIZE

    return [Prog(w.name, w.source, w.entry, "xdp", "v2", XDP_CTX_SIZE, "xdp")
            for w in ALL_XDP]


def suite_draw(seed: int, purpose: str, per_suite: int, scale: float,
               max_target_ni: Optional[int] = None) -> List[Prog]:
    """*per_suite* programs from each suite, interleaved across suites.

    Programs with a loop cost 10-50x more verifier work and run time
    than those without, so each suite's draw holds a fixed number of
    them (its profile's loop share of *per_suite*); within the loop and
    the loop-free group, one program is drawn from the middle half of
    each equal size-rank bin."""
    from repro.workloads import PROFILES, TRACE_CTX_SIZE, generate_suite

    groups = []
    for suite in SUITES:
        population = generate_suite(suite, scale=scale)
        population.sort(key=lambda p: (p.target_ni, p.name))
        if max_target_ni is not None:
            population = [p for p in population
                          if p.target_ni <= max_target_ni]
        looped = [p for p in population if "for (" in p.source]
        plain = [p for p in population if "for (" not in p.source]
        n_loop = round(per_suite * PROFILES[suite].loop_probability)
        rng = rng_for(seed, f"{purpose}:{suite}:pick")
        picks = [Prog(f"{purpose}:{p.name}", p.source, p.entry, "tracepoint",
                      "v3", TRACE_CTX_SIZE, suite)
                 for p in (_rank_picks(looped, n_loop, rng)
                           + _rank_picks(plain, per_suite - n_loop, rng))]
        rng.shuffle(picks)
        groups.append(picks)
    return interleave(groups, rng_for(seed, f"{purpose}:order"))


def _rank_picks(population: list, count: int, rng) -> list:
    if len(population) < count:
        raise ValueError(f"{len(population)} programs, need {count}")
    picks = []
    for b in range(count):
        lo = b * len(population) // count
        hi = (b + 1) * len(population) // count
        quarter = (hi - lo) // 4
        picks.append(population[rng.randrange(lo + quarter,
                                              max(lo + quarter + 1,
                                                  hi - quarter))])
    return picks
