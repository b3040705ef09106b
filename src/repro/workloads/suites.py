"""Synthetic Sysdig / Tetragon / Tracee-style program suites.

The paper evaluates three eBPF-based security systems (Table 1):

===========  =====  ========  ========  ========  ====
suite        count  largest   smallest  average   mcpu
===========  =====  ========  ========  ========  ====
Sysdig       168    33765     180       1094      v3
Tetragon     186    15673     21        3405      v3
Tracee       129    16633     29        2654      v2
===========  =====  ========  ========  ========  ====

We cannot ship those systems, so each suite is a seeded generator that
produces tracepoint/kprobe-style programs with the *statistical mix of
optimizable patterns* that drives the paper's per-suite results:

* **Sysdig** programs marshal large syscall-event payloads field by
  field into output buffers.  The struct offsets are naturally aligned,
  but clang only asserts ``align 1`` (packed kernel structs), so the
  baseline decomposes every copy byte-by-byte — exactly the slack DAO
  recovers, giving the suite its ~60% average NI reduction.
* **Tetragon** and **Tracee** programs are dominated by policy checks
  and branching, and what marshalling they do reads *genuinely
  misaligned* packed fields that no pass can widen, so their NI
  reductions stay in single digits.

``scale`` shrinks both program count and sizes proportionally so tests
and quick benchmarks stay fast; ``scale=1.0`` reproduces Table 1's
population (documented in EXPERIMENTS.md).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ..frontend import compile_source
from ..isa import BpfProgram, ProgramType

TRACE_CTX_SIZE = 512


@dataclass(frozen=True)
class SuiteProfile:
    name: str
    count: int
    smallest: int  # target NI of the smallest program
    average: int
    largest: int
    mcpu: str
    #: fraction of marshalling copies at naturally-aligned offsets
    #: (DAO-recoverable); the rest are genuinely misaligned
    aligned_fraction: float
    #: relative weight of marshalling vs control-flow filler
    marshal_weight: float
    #: probability a program contains a bounded string-copy loop
    loop_probability: float


SYSDIG = SuiteProfile(
    name="sysdig", count=168, smallest=180, average=1094, largest=33765,
    mcpu="v3", aligned_fraction=0.95, marshal_weight=0.90,
    loop_probability=0.25,
)
TETRAGON = SuiteProfile(
    name="tetragon", count=186, smallest=21, average=3405, largest=15673,
    mcpu="v3", aligned_fraction=0.10, marshal_weight=0.30,
    loop_probability=0.45,
)
TRACEE = SuiteProfile(
    name="tracee", count=129, smallest=29, average=2654, largest=16633,
    mcpu="v2", aligned_fraction=0.08, marshal_weight=0.28,
    loop_probability=0.40,
)

PROFILES: Dict[str, SuiteProfile] = {
    "sysdig": SYSDIG,
    "tetragon": TETRAGON,
    "tracee": TRACEE,
}

_HOOKS = (
    "sys_enter_open", "sys_exit_open", "sys_enter_execve", "sys_exit_execve",
    "sys_enter_connect", "sys_exit_connect", "sys_enter_write",
    "sys_exit_write", "sys_enter_read", "sys_exit_read", "sys_enter_close",
    "sched_process_exit", "sys_enter_clone", "sys_exit_clone",
    "sys_enter_unlink", "sys_enter_chmod", "sys_enter_mmap", "sys_enter_bpf",
)


@dataclass
class SuiteProgram:
    name: str
    source: str
    entry: str
    hook: str
    target_ni: int


def _size_samples(profile: SuiteProfile, count: int, scale: float,
                  rng: random.Random) -> List[int]:
    """Draw sizes whose min/avg/max roughly match the profile."""
    smallest = max(8, int(profile.smallest * scale))
    average = max(smallest + 4, int(profile.average * scale))
    largest = max(average + 8, int(profile.largest * scale))
    sizes = [smallest, largest]
    # lognormal between the extremes, calibrated around the mean
    mu = math.log(average)
    sigma = max(0.3, math.log(largest / average) / 2.5)
    while len(sizes) < count:
        value = int(rng.lognormvariate(mu, sigma))
        sizes.append(min(max(value, smallest), largest))
    rng.shuffle(sizes)
    return sizes[:count]


class SuiteGenerator:
    """Generates one suite's worth of mini-C tracepoint programs."""

    #: baseline NI cost of one u64 marshal copy: byte-decomposed load
    #: (~22 insns) plus byte-decomposed store (~22), measured empirically
    MARSHAL_UNIT_COST = 40
    FILTER_UNIT_COST = 7
    LOOP_COST = 90
    BASE_COST = 40

    def __init__(self, profile: SuiteProfile, seed: int = 2024,
                 scale: float = 1.0, count: Optional[int] = None):
        self.profile = profile
        # zlib.crc32 is stable across processes (str hash is randomized)
        import zlib

        self.rng = random.Random(seed ^ zlib.crc32(profile.name.encode()))
        self.scale = scale
        self.count = count if count is not None else max(
            2, int(profile.count * min(scale * 4, 1.0))
        )

    # ------------------------------------------------------------------
    def generate(self) -> List[SuiteProgram]:
        sizes = _size_samples(self.profile, self.count, self.scale, self.rng)
        return [
            self._program(index, target)
            for index, target in enumerate(sizes)
        ]

    # ------------------------------------------------------------------
    def _program(self, index: int, target_ni: int) -> SuiteProgram:
        profile = self.profile
        rng = self.rng
        hook = rng.choice(_HOOKS)
        name = f"{profile.name}_{hook}_{index}"
        entry = f"trace_{index}"

        budget = max(target_ni - self.BASE_COST, 8)
        marshal_budget = int(budget * profile.marshal_weight)
        filler_budget = budget - marshal_budget
        copies = max(1, marshal_budget // self.MARSHAL_UNIT_COST)
        filters = max(1, filler_budget // self.FILTER_UNIT_COST)
        has_loop = rng.random() < profile.loop_probability
        if has_loop:
            filters = max(1, filters - self.LOOP_COST // self.FILTER_UNIT_COST)

        parts: List[str] = [f"""
map percpu_array {name}_stats(u32, u64, 16);
map hash {name}_state(u64, u64, 4096);
map percpu_array {name}_events(u32, u64, 1);

u64 {entry}(u8* ctx) {{
    u64 pid_tgid = get_current_pid_tgid();
    u32 pid = (u32)pid_tgid;
    u64 uid_gid = get_current_uid_gid();
    if (pid == 0) {{ return 0; }}
"""]
        parts.append(self._filter_block(filters))
        parts.append(self._marshal_block(copies, f"{name}_events"))
        if has_loop:
            parts.append(self._loop_block())
        parts.append(f"""
    u64 state_key = pid_tgid ^ (uid_gid << 7);
    u64* seen = map_lookup({name}_state, &state_key);
    if (seen != 0) {{
        *seen += 1;
    }} else {{
        u64 one = 1;
        map_update({name}_state, &state_key, &one, BPF_ANY);
    }}
    u32 stat_key = pid & 0xf;
    u64* stat = map_lookup({name}_stats, &stat_key);
    if (stat != 0) {{ *stat += 1; }}
    return 0;
}}
""")
        return SuiteProgram(name=name, source="".join(parts), entry=entry,
                            hook=hook, target_ni=target_ni)

    # ------------------------------------------------------------------
    def _filter_block(self, filters: int) -> str:
        """Policy-style compare/branch chains (Tetragon/Tracee filler).

        Field reads use the aligned ``ctx_load_*`` builtins: these model
        known-layout tracepoint struct accesses, which clang already
        emits optimally — Merlin gains nothing here, exactly why the
        branch-heavy suites see single-digit NI reductions.
        """
        rng = self.rng
        lines = ["    u64 verdict = 0;\n"]
        for i in range(filters):
            off = rng.randrange(0, 56) * 8
            constant = rng.randrange(1, 1 << 16)
            op_choice = rng.random()
            if op_choice < 0.4:
                lines.append(
                    f"    if (ctx_load_u64(ctx, {off}) == {constant}) "
                    f"{{ verdict += {i + 1}; }}\n"
                )
            elif op_choice < 0.7:
                lines.append(
                    f"    if ((ctx_load_u64(ctx, {off}) & {constant}) != 0) "
                    f"{{ verdict |= {1 << (i % 63)}; }}\n"
                )
            else:
                lines.append(
                    f"    if (ctx_load_u32(ctx, {off}) > {constant}) "
                    f"{{ verdict ^= {constant}; }}\n"
                )
        lines.append("    if (verdict == 0xdeadbeefcafe) { return 0; }\n")
        return "".join(lines)

    def _marshal_block(self, copies: int, events_map: str) -> str:
        """Field-by-field event marshalling into 64-byte output chunks."""
        rng = self.rng
        profile = self.profile
        event_type = rng.randrange(1, 512)
        header = (
            f"    *(u16*)(buf + 0) = {event_type};\n"
            "    *(u16*)(buf + 2) = 0;\n"
            "    *(u32*)(buf + 4) = 0;\n"
        )
        lines = ["    u8 buf[64];\n", header]
        buf_off = 8
        for i in range(copies):
            size = rng.choice((8, 8, 8, 4, 4, 2))
            tname = {8: "u64", 4: "u32", 2: "u16"}[size]
            aligned = rng.random() < profile.aligned_fraction
            if aligned:
                # packed-struct field at a naturally aligned offset:
                # clang asserts align 1, DAO can prove the real alignment
                ctx_off = rng.randrange(0, (TRACE_CTX_SIZE - 8) // size) * size
                buf_off = (buf_off + size - 1) // size * size
            else:
                # genuinely misaligned packed field: DAO cannot widen it
                ctx_off = rng.randrange(0, TRACE_CTX_SIZE - 9) | 1
                if buf_off % size == 0:
                    buf_off += 1  # tight packing leaves the copy unaligned
            if buf_off + size > 64:
                lines.append(
                    f"    perf_event_output(ctx, {events_map}, 0, buf, 64);\n"
                )
                lines.append(header)
                buf_off = 8 if aligned else 9
            lines.append(
                f"    *({tname}*)(buf + {buf_off}) = "
                f"*({tname}*)(ctx + {ctx_off});\n"
            )
            buf_off += size
        lines.append(
            f"    perf_event_output(ctx, {events_map}, 0, buf, 64);\n"
        )
        return "".join(lines)

    def _loop_block(self) -> str:
        """Bounded hashing loop plus a comm capture (path/arg digesting)."""
        return """
    u8 comm[16];
    get_current_comm(comm, 16);
    u64 acc = ctx_load_u64(ctx, 8);
    for (u64 i = 0; i < 16; i += 1) {
        acc = (acc ^ (acc >> 13)) * 0x100000001b3 + i;
        acc = acc ^ (acc << 7);
    }
    if ((acc & 0xff) == 0x5a) { verdict += 1; }
"""


def generate_suite(name: str, seed: int = 2024, scale: float = 1.0,
                   count: Optional[int] = None) -> List[SuiteProgram]:
    """Generate the programs of one suite ("sysdig"/"tetragon"/"tracee")."""
    profile = PROFILES[name]
    generator = SuiteGenerator(profile, seed=seed, scale=scale, count=count)
    return generator.generate()


def compile_suite_program(program: SuiteProgram, optimize: bool = False,
                          mcpu: Optional[str] = None) -> BpfProgram:
    """Compile one suite program (optionally through Merlin)."""
    module = compile_source(program.source, program.name)
    func = module.get(program.entry)
    suite_mcpu = mcpu if mcpu is not None else "v3"
    if optimize:
        from ..core import MerlinPipeline

        compiled, _ = MerlinPipeline().compile(
            func, module, prog_type=ProgramType.TRACEPOINT,
            mcpu=suite_mcpu, ctx_size=TRACE_CTX_SIZE)
        return compiled
    from ..codegen import compile_function

    return compile_function(func, module, prog_type=ProgramType.TRACEPOINT,
                            mcpu=suite_mcpu, ctx_size=TRACE_CTX_SIZE)


def suite_jobs(programs: Sequence[SuiteProgram],
               mcpu: Optional[str] = None) -> List["CompileJob"]:
    """Turn generated suite programs into batch-compiler jobs."""
    from ..core import CompileJob

    suite_mcpu = mcpu if mcpu is not None else "v3"
    return [
        CompileJob(name=p.name, source=p.source, entry=p.entry,
                   prog_type=ProgramType.TRACEPOINT, mcpu=suite_mcpu,
                   ctx_size=TRACE_CTX_SIZE)
        for p in programs
    ]
