"""Whole-program method JIT: one generated-Python function per program.

Selected with ``Machine(program, engine="jit")``.  Where the reference
interpreter re-classifies every instruction on every visit, this tier
compiles the *entire* program through :mod:`.regions`: conditionals
become real ``if``/``else``, loops become ``while`` statements with the
instruction-budget check hoisted to run entries, helper calls and map
operations are inlined as direct calls into the machine's bound
runtime objects, and counter/cost accounting is batched per fused run.

On top of the structured control flow, three whole-function
optimizations give the tier its speed:

* **Register localization** — guest registers live in Python locals
  (``_v0`` .. ``_v10``) for the entire function; the ``regs`` list is
  read once in the prologue and written back only at exit and bail
  points, so straight-line code is pure ``LOAD_FAST`` traffic.
* **Accounting batching** — the instruction budget, cycle count and
  branch tally accumulate in locals (``_bud``, ``_cyc``, ``_br``); the
  instruction count is not tracked separately at all — instructions
  executed equal budget consumed, so each flush charges the distance
  from a budget watermark (``_lbud``).  Accumulators are *flushed* to
  the machine's real counters exactly at the points where they become
  observable: any fault raise,
  any helper call that can fault or read the clock, atomics, exit, and
  deoptimization.  Between those points the counters object is never
  touched.
* **Cache-model inlining** — the single-line hot path of
  :meth:`repro.hw.cache.CacheModel.access` is emitted inline at every
  fused-run memory operation (geometry read from the bound model, so
  non-default caches stay exact); line-straddling accesses fall back
  to the model call.

Bit-identity with the reference interpreter is preserved by
validate-then-commit plus *deoptimization* onto that interpreter:

* **Fused runs** (maximal straight-line stretches of ALU / memop /
  ``ld_imm64``) execute in two phases.  Phase 1 resolves every memory
  address side-effect-free; stack-rooted memops (base r10, which the
  JIT proves the program never writes) have whole-execution-constant
  addresses, so their bounds validation collapses to the memo lookup.
  If a region faults — the packet shrank, a map value moved, any guard
  the entry-state validation expresses fails — the function *bails*:
  it raises the internal ``_Bail`` signal with **nothing executed**,
  the epilogue writes registers, budget and counters back, and the
  caller resumes the reference interpreter (``Machine._execute``) at
  that exact slot with the budget already consumed, reproducing the
  reference fault or continuing bit-identically.  A run whose
  remaining budget can't cover it bails the same way, so budget
  exhaustion lands on the exact reference slot even mid-region.
  Phase 2 commits in program order and cannot fault.
* **Guard-specialized helper calls**: a map helper whose fd argument
  is proven by a dominating same-block ``ld_imm64 r1 = map_fd N`` is
  inlined as a direct ``BpfMap`` method call behind the runtime guard
  ``_v1 == N``; guard failure bails to the interpreter *before* any
  accounting.  Clock/task/random helpers inline without guards;
  everything else calls ``HelperRuntime.call`` exactly like the
  reference interpreter.
* Every deopt cause increments a per-machine bail counter
  (``budget`` / ``memory`` / ``guard`` / ``other``), surfaced through
  ``Machine.stats``.

Compiled code objects are cached content-keyed: a process-wide LRU on
:func:`repro.cache.keys.key_for_bytecode` with hit/miss counters
(:func:`jit_cache_stats`).  Programs the structurer or CPython cannot
handle (pathological nesting beyond the static block limit, oversized
functions) run on the reference interpreter in full, recorded in the
cache entry's ``fallback_reason``.
"""

from __future__ import annotations

import struct
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ...cache.keys import key_for_bytecode
from ...isa import BpfProgram, Instruction
from ...isa import opcodes as op
from ...isa.cfg import EXIT, FALL, JA, Cfg
from ...isa.helpers import BPF_PSEUDO_MAP_FD, HELPER_IDS, HELPER_NAMES
from ...hw.branch import BranchPredictor
from .. import cost
from ..interpreter import _BUDGET_MSG, VmFault
from ..memory import MemoryFault
from .regions import Relooper, StructureError

_U64 = (1 << 64) - 1
_U32 = (1 << 32) - 1

#: programs larger than this skip JIT compilation outright
JIT_MAX_SLOTS = 8192

#: bail-cause indices in the per-machine bail counter list
BAIL_BUDGET = 0
BAIL_MEMORY = 1
BAIL_GUARD = 2
BAIL_OTHER = 3
BAIL_CAUSES = ("budget", "memory", "guard", "other")

#: re-raise compile errors instead of falling back (tests flip this so
#: codegen bugs surface instead of silently degrading to the reference
#: interpreter)
STRICT = False

_MAP_HELPERS = {
    HELPER_IDS["map_lookup_elem"]: "lookup",
    HELPER_IDS["map_update_elem"]: "update",
    HELPER_IDS["map_delete_elem"]: "delete",
}


class _Bail(Exception):
    """Internal deopt signal: unwind to the function epilogue, which
    flushes accumulated state and returns the bail pc to the caller."""

    def __init__(self, pc: int) -> None:
        self.pc = pc


def _indent(lines: Sequence[str]) -> List[str]:
    return ["    " + line for line in lines]


def check_budget_fault(exc: VmFault, executed: int, max_insns: int) -> None:
    """Runtime guard against batched-accounting drift: a budget-exhaustion
    fault is only correct if exactly ``max_insns`` instructions were
    counted when it fired — the reference interpreter counts one at a
    time, so any batching scheme that loses or double-counts would land
    the fault on the wrong slot with a different counter total."""
    if str(exc) == _BUDGET_MSG and executed != max_insns:
        raise AssertionError(
            f"budget accounting drift: counted {executed} instructions "
            f"at exhaustion, expected {max_insns}") from exc


# ------------------------------------------------- instruction source codegen
_PACKERS = {
    1: struct.Struct("<B"),
    2: struct.Struct("<H"),
    4: struct.Struct("<I"),
    8: struct.Struct("<Q"),
}


def _bswap(value: int, width: int, to_be: bool) -> int:
    """The reference interpreter's ``_bswap``, parameterised."""
    data = (value & ((1 << width) - 1)).to_bytes(width // 8, "little")
    return int.from_bytes(data, "big" if to_be else "little")


#: module globals of every compiled program function
_JIT_GLOBALS: Dict[str, object] = {"_bswap": _bswap}
for _size, _st in _PACKERS.items():
    _JIT_GLOBALS[f"_pk{_size}"] = _st.pack_into
    _JIT_GLOBALS[f"_up{_size}"] = _st.unpack_from


def _is_alu(insn: Instruction) -> bool:
    return (insn.opcode & op.CLASS_MASK) in (op.BPF_ALU, op.BPF_ALU64)


def _is_load(insn: Instruction) -> bool:
    return (insn.opcode & op.CLASS_MASK) == op.BPF_LDX


def _is_store(insn: Instruction) -> bool:
    cls = insn.opcode & op.CLASS_MASK
    if cls == op.BPF_ST:
        return True
    return cls == op.BPF_STX and (insn.opcode & op.MODE_MASK) != op.BPF_ATOMIC


def _is_memop(insn: Instruction) -> bool:
    return _is_load(insn) or _is_store(insn)


def _is_ld64(insn: Instruction) -> bool:
    return (insn.opcode & op.CLASS_MASK) == op.BPF_LD and insn.is_ld_imm64


def _base_reg(insn: Instruction) -> int:
    return insn.src if _is_load(insn) else insn.dst


def _fusable(insn: Instruction) -> bool:
    """Can *insn* live inside a fused run: ALU, plain load/store, or
    ``ld_imm64`` (a pure constant definition)?"""
    if _is_alu(insn):
        aop = insn.opcode & op.ALU_OP_MASK
        if aop not in cost.ALU_COST:
            return False  # reference raises; keep it on the slow path
        if aop == op.BPF_END and insn.imm not in (16, 32, 64):
            return False
        return True
    if _is_memop(insn):
        return insn.size_bytes in _PACKERS
    return _is_ld64(insn)


def _alu_reads(insn: Instruction) -> Tuple[int, ...]:
    """Registers an ALU instruction reads (value semantics)."""
    aop = insn.opcode & op.ALU_OP_MASK
    if aop == op.BPF_MOV:
        return () if insn.uses_imm else (insn.src,)
    if aop in (op.BPF_NEG, op.BPF_END):
        return (insn.dst,)
    if insn.uses_imm:
        return (insn.dst,)
    return (insn.dst, insn.src)


def _alu_source(insn: Instruction, name: Callable[[int], str]) -> List[str]:
    """Source statements replicating the reference ``_alu`` for *insn*,
    reading/writing the locals produced by *name*."""
    is32 = (insn.opcode & op.CLASS_MASK) == op.BPF_ALU
    aop = insn.opcode & op.ALU_OP_MASK
    mask = _U32 if is32 else _U64
    bits = 32 if is32 else 64
    wrap = 1 << bits
    d = name(insn.dst)
    value = f"({d} & {_U32:#x})" if is32 else d
    if insn.uses_imm:
        k: Optional[int] = insn.imm & mask
        operand = f"{k:#x}"
    else:
        k = None
        s = name(insn.src)
        operand = f"({s} & {_U32:#x})" if is32 else s

    if aop == op.BPF_MOV:
        return [f"{d} = {operand}"]
    if aop == op.BPF_ADD:
        return [f"{d} = ({value} + {operand}) & {mask:#x}"]
    if aop == op.BPF_SUB:
        return [f"{d} = ({value} - {operand}) & {mask:#x}"]
    if aop == op.BPF_MUL:
        return [f"{d} = ({value} * {operand}) & {mask:#x}"]
    if aop == op.BPF_OR:
        return [f"{d} = {value} | {operand}"]
    if aop == op.BPF_AND:
        return [f"{d} = {value} & {operand}"]
    if aop == op.BPF_XOR:
        return [f"{d} = {value} ^ {operand}"]
    if aop == op.BPF_DIV:
        if k is not None:
            return [f"{d} = {value} // {k:#x}" if k else f"{d} = 0"]
        return [f"_t = {operand}", f"{d} = {value} // _t if _t else 0"]
    if aop == op.BPF_MOD:
        if k is not None:
            return [f"{d} = {value} % {k:#x}" if k else f"{d} = {value}"]
        return [f"_t = {operand}", f"{d} = {value} % _t if _t else {value}"]
    if aop in (op.BPF_LSH, op.BPF_RSH, op.BPF_ARSH):
        if k is not None:
            shift = f"{k % bits}"
        else:
            shift = f"({operand} % {bits})"
        if aop == op.BPF_LSH:
            return [f"{d} = ({value} << {shift}) & {mask:#x}"]
        if aop == op.BPF_RSH:
            return [f"{d} = {value} >> {shift}"]
        return [
            f"_t = {value}",
            f"{d} = (((_t - {wrap:#x}) >> {shift}) & {mask:#x}) "
            f"if _t >> {bits - 1} else (_t >> {shift})",
        ]
    if aop == op.BPF_NEG:
        return [f"{d} = -{value} & {mask:#x}"]
    if aop == op.BPF_END:
        to_be = (insn.opcode & op.SRC_MASK) == op.BPF_X
        return [f"{d} = _bswap({value}, {insn.imm}, {to_be}) & {mask:#x}"]
    raise AssertionError(f"unfusable ALU op {aop:#x}")  # pragma: no cover


def _addr_expr(local: str, off: int) -> str:
    if off == 0:
        return local
    return f"({local} + {off}) & {_U64:#x}"


def _writes_reg(insn: Instruction, reg: int) -> bool:
    """Can *insn* modify register *reg*?  Used to prove r10 constant
    for the whole execution (eBPF never writes the frame pointer, but
    the VM itself does not forbid it, so the JIT checks)."""
    cls = insn.opcode & op.CLASS_MASK
    if cls in (op.BPF_ALU, op.BPF_ALU64, op.BPF_LDX):
        return insn.dst == reg
    if cls == op.BPF_LD:
        return insn.dst == reg
    if cls in (op.BPF_JMP, op.BPF_JMP32):
        if (insn.opcode & op.JMP_OP_MASK) == op.BPF_CALL:
            return reg == op.R0  # helpers write r0 only in this VM
        return False
    if insn.is_atomic:
        return bool(insn.imm & op.BPF_FETCH) and insn.src == reg
    return False


# ------------------------------------------------------------------ emitter
class _Emitter:
    """Instruction-semantics half of the JIT: turns CFG blocks into
    source lines for the relooper, replicating the reference
    interpreter's order of events exactly."""

    def __init__(self, program: BpfProgram) -> None:
        cfg = self.cfg = Cfg(program.insns)
        self.n_slots = program.ni
        self.slot_of = slot_of = program.slot_offsets()
        #: reachable blocks by label: the slot of their first instruction
        self.block_at = {slot_of[cfg.first[b]]: b for b in cfg.reachable()}
        self.succs = {
            label: tuple(slot_of[cfg.first[s]] for s in cfg.succs[b])
            for label, b in self.block_at.items()}
        self.map_specs = [spec for spec in program.maps.values()]
        self.memo_count = 0
        self.map_fds: Dict[int, str] = {}  # fd -> binder-local name
        self.guarded_sites = 0
        self.inline_helpers = 0
        self.r10_const = not any(
            _writes_reg(insn, op.R10) for insn in program.insns)

    # ------------------------------------------------------------- plumbing
    def _flush(self) -> List[str]:
        """Make the machine's counters and cache/branch statistics
        exact: accumulated counts become observable past this point.
        Instructions executed equal the budget consumed, so the
        instruction count is the distance from the last-flush budget
        watermark ``_lbud`` — no per-instruction counter needed."""
        return [
            "counters.instructions += _lbud - _bud",
            "_lbud = _bud",
            "counters.cycles += _cyc + _hl * _mru",
            "_cyc = 0",
            "_ref += _mru",
            "_mru = 0",
            "counters.branches += _br",
            "_br = 0",
            "_cs.references += _ref",
            "_ref = 0",
            "_cs.misses += _mis",
            "_mis = 0",
            "_bs.branches += _bb",
            "_bb = 0",
        ]

    def fault_lines(self, msg: str) -> List[str]:
        return self._flush() + [f"raise VmFault({msg!r})"]

    def jump_fault_lines(self, label: int) -> List[str]:
        """The reference engine's fault for dispatching to a slot that
        starts no instruction."""
        if 0 <= label < self.n_slots:
            return self.fault_lines(
                f"jump into the middle of ld_imm64 at slot {label}")
        return self.fault_lines(f"pc {label} out of program bounds")

    def _acct(self) -> List[str]:
        """Budget + instruction count for one non-fused instruction,
        replicating every single-instruction binder's prologue (the
        budget fault flushes first so counters are exact at the
        reference's exhaustion slot)."""
        return [
            "_bud -= 1",
            "if _bud < 0:",
            "    _bud += 1",  # the faulting instruction is not counted
        ] + _indent(self._flush()) + [
            "    raise VmFault(_BUDGET_MSG)",
        ]

    def _acct_real(self) -> List[str]:
        """Accounting against the real counters, for segments that were
        just flushed (helper calls, atomics) and may fault mid-way.
        The watermark follows the budget so the instruction is not
        double-counted by the next flush."""
        return [
            "_bud -= 1",
            "if _bud < 0:",
            "    raise VmFault(_BUDGET_MSG)",
            "counters.instructions += 1",
            "_lbud = _bud",
        ]

    def _vercheck(self) -> List[str]:
        """Invalidate every region memo when the region table moved —
        the whole-program analogue of the per-binder version stamp."""
        return [
            "if ver[0] != memory.version:",
            "    ver[0] = memory.version",
            "    memo[:] = _empty",
        ]

    def _model_lines(self) -> List[str]:
        """The cache model's full single-line path (expects ``_ln``),
        inlined — see :meth:`CacheModel.access`: same order of events,
        geometry from the bound model's attributes."""
        return [
            "_pln = _ln",
            "_ref += 1",
            "_e = _sets[_ln % _ns]",
            "_tg = _ln // _ns",
            "if _e and _e[-1] == _tg:",
            "    _cyc += _hl",
            "elif _tg in _e:",
            "    _e.remove(_tg)",
            "    _e.append(_tg)",
            "    _cyc += _hl",
            "else:",
            "    _mis += 1",
            "    _e.append(_tg)",
            "    _cyc += _hl + _mp",
            "    if len(_e) > _wy:",
            "        _e.pop(0)",
        ]

    def _access_lines(self, addr: str, size: int) -> List[str]:
        """Inline cache charge for a dynamic-address access.

        ``_pln`` chains consecutive accesses: the model is
        deterministic, so an access to the line the *previous* modelled
        access touched is a guaranteed MRU hit — two adds, no set
        traffic.  Every non-inlined cache path (``access()`` fallbacks,
        helper-call touches, atomics) resets ``_pln``, so the shortcut
        only fires when the MRU property is actually known.  Straddling
        accesses take the model call."""
        single = [
            f"_ln = {addr} // _lb",
            "if _ln == _pln:",
            "    _mru += 1",
            "else:",
        ] + _indent(self._model_lines())
        if size == 1:
            return single
        return [
            f"if {addr} // _lb != ({addr} + {size - 1}) // _lb:",
            f"    _cyc += access({addr}, {size})",
            "    _pln = -1",
            "else:",
        ] + _indent(single)

    def _stack_access_lines(self, m: int, off: int, size: int) -> List[str]:
        """Inline cache charge for a stack-rooted site whose line number
        was precomputed into the memo tuple (``-1`` marks a straddling
        address, which takes the model call)."""
        mru = [
            f"if _ln{m} == _pln:",
            "    _mru += 1",
            "else:",
            f"    _ln = _ln{m}",
        ] + _indent(self._model_lines())
        if size == 1:
            return mru
        addr = f"_v10 + {off}" if off else "_v10"
        return [
            f"if _ln{m} < 0:",
            f"    _cyc += access({addr}, {size})",
            "    _pln = -1",
            f"elif _ln{m} == _pln:",
            "    _mru += 1",
            "else:",
            f"    _ln = _ln{m}",
        ] + _indent(self._model_lines())

    # --------------------------------------------------------------- blocks
    def block_lines(self, label: int) -> List[str]:
        cfg, b = self.cfg, self.block_at[label]
        # a jump or exit is the terminator, not part of the body
        stop = cfg.last[b] + (cfg.kind[b] == FALL)
        body = [(self.slot_of[index], cfg.insns[index])
                for index in range(cfg.first[b], stop)]
        fd_at = self._map_fd_at(body)
        lines: List[str] = []
        for kind, payload in self._segments(body):
            if kind == "run":
                lines.extend(self._run(payload))
            elif kind == "call":
                pc, insn = payload
                lines.extend(self._call(pc, insn, fd_at.get(pc)))
            elif kind == "atomic":
                lines.extend(self._atomic(*payload))
            elif kind == "bad_ld":
                pc, insn = payload
                lines.extend(self._acct())
                lines.extend(self.fault_lines(
                    f"unsupported LD mode {insn.opcode:#x}"))
            else:  # "deopt": anything the JIT does not speak natively
                pc, _ = payload
                lines.append(f"bail[{BAIL_OTHER}] += 1")
                lines.append(f"raise _Bail({pc})")
        return lines

    def _segments(self, body: List[Tuple[int, Instruction]]):
        """Split a block body into fused runs and standalone singles.
        A memop whose base was defined by an in-run load starts a fresh
        run: phase 1 cannot compute that address before the commit."""
        segments: List[Tuple[str, object]] = []
        run: List[Tuple[int, Instruction]] = []
        tainted = [False] * op.NUM_REGS

        def flush() -> None:
            nonlocal run, tainted
            if run:
                segments.append(("run", run))
            run = []
            tainted = [False] * op.NUM_REGS

        for pc, insn in body:
            if _fusable(insn):
                if _is_memop(insn) and tainted[_base_reg(insn)]:
                    flush()
                if _is_alu(insn):
                    aop = insn.opcode & op.ALU_OP_MASK
                    if aop == op.BPF_MOV:
                        tainted[insn.dst] = ((not insn.uses_imm)
                                             and tainted[insn.src])
                    elif (not insn.uses_imm
                          and aop not in (op.BPF_NEG, op.BPF_END)):
                        tainted[insn.dst] = (tainted[insn.dst]
                                             or tainted[insn.src])
                elif _is_load(insn):
                    tainted[insn.dst] = True
                elif _is_ld64(insn):
                    tainted[insn.dst] = False
                run.append((pc, insn))
                continue
            flush()
            cls = insn.opcode & op.CLASS_MASK
            if cls in (op.BPF_JMP, op.BPF_JMP32) and \
                    (insn.opcode & op.JMP_OP_MASK) == op.BPF_CALL:
                segments.append(("call", (pc, insn)))
            elif insn.is_atomic:
                segments.append(("atomic", (pc, insn)))
            elif cls == op.BPF_LD and not insn.is_ld_imm64:
                segments.append(("bad_ld", (pc, insn)))
            else:
                segments.append(("deopt", (pc, insn)))
        flush()
        return segments

    # ----------------------------------------------------------- fused runs
    def _run(self, members: List[Tuple[int, Instruction]]) -> List[str]:
        """Validate-then-commit code for one fused run, directly on the
        whole-function register locals.

        Phase 1 (side-effect-free) resolves every memory address:
        *stack-rooted* sites — base r10 when the program provably never
        writes r10 — have the same address on every execution, so once
        ``find`` validated one at the current memory version the memo
        entry alone proves it in bounds (the run-entry version check
        clears the memo when the region table moves); dynamic sites
        re-run the address slice of the run's ALU on ``_p`` snapshots
        and re-validate the memoized region's bounds.  Any
        :class:`MemoryFault` bails with nothing executed.

        The commit then executes in program order *in place* on the
        ``_v`` locals — phase 1 never mutates them, so this is exactly
        reference execution — with the cache model inlined and all
        accounting accumulated."""
        start = members[0][0]
        insns = [insn for _, insn in members]
        k = len(insns)
        base = sum(cost.base_cost(insn) for insn in insns)
        v_name = lambda r: f"_v{r}"
        p_name = lambda r: f"_p{r}"

        stack_site = {
            j: self.r10_const and _base_reg(insn) == op.R10
            for j, insn in enumerate(insns) if _is_memop(insn)
        }
        # backward address slice feeding the dynamic sites only
        needed = [False] * k
        want: set = set()
        for j in range(k - 1, -1, -1):
            insn = insns[j]
            if _is_alu(insn) and insn.dst in want:
                needed[j] = True
                want.discard(insn.dst)
                want.update(_alu_reads(insn))
            elif _is_ld64(insn) and insn.dst in want:
                needed[j] = True
                want.discard(insn.dst)
            if _is_memop(insn) and not stack_site[j]:
                want.add(_base_reg(insn))

        phase1 = [f"_p{r} = _v{r}" for r in sorted(want)]
        memop_index: Dict[int, int] = {}
        n_mem = 0
        stack_canon: Dict[Tuple[int, int], int] = {}
        stack_order: List[Tuple[int, int, int]] = []  # (site, off, size)
        for j, insn in enumerate(insns):
            if not _is_memop(insn):
                continue
            size = insn.size_bytes
            if stack_site[j]:
                # repeated accesses to one stack slot share a site
                key = (insn.off, size)
                m = stack_canon.get(key)
                if m is None:
                    m = self.memo_count + n_mem
                    n_mem += 1
                    stack_canon[key] = m
                    stack_order.append((m, insn.off, size))
            else:
                m = self.memo_count + n_mem
                n_mem += 1
            memop_index[j] = m

        # Stack-rooted sites have the same address on every execution,
        # so the whole run shares ONE memo entry: a flat tuple of every
        # site's fully resolved (region, byte offset, cache line)
        # triple, with a -1 line marking a straddle.  Steady state is a
        # single subscript, one None test and one bulk unpack for the
        # entire run.  Stack addresses sit far above 2**15, so the i16
        # offset can never wrap: no mask needed.
        if stack_order:
            slot = stack_order[0][0]
            names = ", ".join(f"_g{m}, _o{m}, _ln{m}"
                              for m, _, _ in stack_order)
            phase1.append(f"_t = memo[{slot}]")
            phase1.append("if _t is None:")
            for m, off, size in stack_order:
                addr = f"_v10 + {off}" if off else "_v10"
                phase1.append(f"    _a = {addr}")
                phase1.append(f"    _g{m} = find(_a, {size})")
                phase1.append(f"    _o{m} = _a - _g{m}.base")
                phase1.append(f"    _ln{m} = _a // _lb")
                if size > 1:
                    phase1.append(
                        f"    if _ln{m} != (_a + {size - 1}) // _lb:")
                    phase1.append(f"        _ln{m} = -1")
            phase1.append(f"    memo[{slot}] = ({names})")
            phase1.append("else:")
            phase1.append(f"    ({names}) = _t")

        for j, insn in enumerate(insns):
            if needed[j]:
                if _is_ld64(insn):
                    phase1.append(f"_p{insn.dst} = {insn.imm & _U64:#x}")
                else:
                    phase1.extend(_alu_source(insn, p_name))
            if not _is_memop(insn) or stack_site[j]:
                continue
            m = memop_index[j]
            size = insn.size_bytes
            # dynamic site: the memo holds (region, lowest valid
            # address, highest valid address) so re-validation is
            # two compares against precomputed bounds
            phase1.append(
                f"_a{m} = "
                f"{_addr_expr(p_name(_base_reg(insn)), insn.off)}")
            phase1.append(f"_t = memo[{m}]")
            phase1.append(f"if _t is None or _a{m} < _t[1] "
                          f"or _a{m} > _t[2]:")
            phase1.append(f"    _g = find(_a{m}, {size})")
            phase1.append(f"    _t = (_g, _g.base, "
                          f"_g.base + len(_g.data) - {size})")
            phase1.append(f"    memo[{m}] = _t")
            phase1.append(f"_g{m} = _t[0]")
            phase1.append(f"_b{m} = _t[1]")
        self.memo_count += n_mem

        commit: List[str] = []
        for j, insn in enumerate(insns):
            if _is_alu(insn):
                commit.extend(_alu_source(insn, v_name))
            elif _is_ld64(insn):
                commit.append(f"_v{insn.dst} = {insn.imm & _U64:#x}")
            elif _is_load(insn):
                m = memop_index[j]
                size = insn.size_bytes
                if stack_site[j]:
                    commit.extend(
                        self._stack_access_lines(m, insn.off, size))
                    offset = f"_o{m}"
                else:
                    commit.extend(self._access_lines(f"_a{m}", size))
                    offset = f"_a{m} - _b{m}"
                if size == 1:  # bytearray indexing beats a struct call
                    commit.append(f"_v{insn.dst} = _g{m}.data[{offset}]")
                else:
                    commit.append(f"_v{insn.dst} = "
                                  f"_up{size}(_g{m}.data, {offset})[0]")
            else:  # store
                m = memop_index[j]
                size = insn.size_bytes
                szmask = (1 << (size * 8)) - 1
                if (insn.opcode & op.CLASS_MASK) == op.BPF_ST:
                    value = f"{insn.imm & _U64 & szmask:#x}"
                else:
                    value = f"_v{insn.src} & {szmask:#x}"
                if stack_site[j]:
                    commit.extend(
                        self._stack_access_lines(m, insn.off, size))
                    offset = f"_o{m}"
                else:
                    commit.extend(self._access_lines(f"_a{m}", size))
                    offset = f"_a{m} - _b{m}"
                if size == 1:
                    commit.append(f"_g{m}.data[{offset}] = {value}")
                else:
                    commit.append(
                        f"_pk{size}(_g{m}.data, {offset}, {value})")

        lines = [
            f"if _bud < {k}:",
            f"    bail[{BAIL_BUDGET}] += 1",
            f"    raise _Bail({start})",
        ]
        if n_mem:
            lines.extend(self._vercheck())
            lines.append("try:")
            lines.extend(_indent(phase1))
            lines.append("except MemoryFault:")
            lines.append(f"    bail[{BAIL_MEMORY}] += 1")
            lines.append(f"    raise _Bail({start})")
        else:
            lines.extend(phase1)
        lines.extend(commit)
        lines.append(f"_bud -= {k}")
        if base:
            lines.append(f"_cyc += {base}")
        return lines

    # --------------------------------------------------------- helper calls
    def _map_fd_at(self, body: List[Tuple[int, Instruction]]
                   ) -> Dict[int, Optional[int]]:
        """For each call site in *body*, the map fd proven to be in r1:
        the most recent same-block ``ld_imm64 r1 = map_fd N`` with no
        intervening redefinition of r1 (helpers preserve r1-r5 in this
        VM, so calls do not clobber it)."""
        fd: Optional[int] = None
        out: Dict[int, Optional[int]] = {}
        for pc, insn in body:
            cls = insn.opcode & op.CLASS_MASK
            if cls in (op.BPF_JMP, op.BPF_JMP32) and \
                    (insn.opcode & op.JMP_OP_MASK) == op.BPF_CALL:
                out[pc] = fd
                continue
            if _is_ld64(insn):
                if insn.dst == op.R1:
                    fd = insn.imm if insn.src == BPF_PSEUDO_MAP_FD else None
            elif _is_alu(insn):
                if insn.dst == op.R1:
                    fd = None
            elif _is_load(insn):
                if insn.dst == op.R1:
                    fd = None
            elif insn.is_atomic:
                if (insn.imm & op.BPF_FETCH) and insn.src == op.R1:
                    fd = None
        return out

    def _bind_map(self, fd: int) -> str:
        name = self.map_fds.get(fd)
        if name is None:
            name = f"_map{fd}"
            self.map_fds[fd] = name
        return name

    def _call(self, pc: int, insn: Instruction,
              fd: Optional[int]) -> List[str]:
        helper_id = insn.imm
        name = HELPER_NAMES.get(helper_id, "")
        charge = cost.JUMP_COST + cost.HELPER_COST.get(
            name, cost.DEFAULT_HELPER_COST)
        method = _MAP_HELPERS.get(helper_id)
        if (method is not None and fd is not None
                and 1 <= fd <= len(self.map_specs)):
            # map-fd guard specialization: the fd is a proven constant,
            # so bind the BpfMap once and guard-check at run time.  The
            # guard bails *before* any accounting — the reference
            # interpreter re-executes the call from scratch.  The
            # loads can fault, so counters run flushed-and-real here.
            spec = self.map_specs[fd - 1]
            var = self._bind_map(fd)
            ks, vs = spec.key_size, spec.value_size
            self.guarded_sites += 1
            lines = [
                f"if _v1 != {fd}:",
                f"    bail[{BAIL_GUARD}] += 1",
                f"    raise _Bail({pc})",
            ] + self._flush() + self._acct_real() + [
                "counters.helper_calls += 1",
                f"counters.cycles += {charge}",
            ]
            if method == "lookup":
                lines += [
                    f"_k = load_bytes(_v2, {ks})",
                    f"counters.cycles += access(_v2, {ks})",
                    "_pln = -1",
                    f"_v0 = {var}.lookup(_k) & {_U64:#x}",
                ]
            elif method == "update":
                lines += [
                    f"_k = load_bytes(_v2, {ks})",
                    f"_val = load_bytes(_v3, {vs})",
                    f"counters.cycles += access(_v2, {ks})",
                    f"counters.cycles += access(_v3, {vs})",
                    "_pln = -1",
                    f"_v0 = {var}.update(_k, _val, _v4 & 0xff)"
                    f" & {_U64:#x}",
                ]
            else:  # delete: key load only, no cache traffic (reference)
                lines += [
                    f"_k = load_bytes(_v2, {ks})",
                    f"_v0 = {var}.delete(_k) & {_U64:#x}",
                ]
            return lines
        tail = self._inline_helper(helper_id)
        if tail is not None:
            # stateless helpers cannot fault: stay on the accumulators
            self.inline_helpers += 1
            return self._acct() + [
                "counters.helper_calls += 1",
                f"_cyc += {charge}",
            ] + tail
        # generic helper dispatch: may fault or read the clock, so the
        # counters must be exact going in
        return self._flush() + self._acct_real() + [
            "counters.helper_calls += 1",
            f"counters.cycles += {charge}",
            "_pln = -1",
            f"_v0 = call({helper_id}, [_v1, _v2, _v3, _v4, _v5])",
        ]

    def _inline_helper(self, helper_id: int) -> Optional[List[str]]:
        """Direct inline bodies for the trivial stateless helpers (the
        bound objects — task, rng, counters — are the live ones, so
        mutation flows through exactly as via HelperRuntime).  The
        simulated clock reads the real cycle counter plus the local
        accumulator, so batching is invisible to it."""
        if helper_id in (HELPER_IDS["ktime_get_ns"],
                         HELPER_IDS["ktime_get_boot_ns"]):
            return ["_v0 = (1000000000 + counters.cycles + _cyc"
                    f" + _hl * _mru) & {_U64:#x}"]
        if helper_id == HELPER_IDS["get_prandom_u32"]:
            return ["_v0 = getrandbits(32)"]
        if helper_id == HELPER_IDS["get_smp_processor_id"]:
            return ["_v0 = 0"]
        if helper_id == HELPER_IDS["get_current_pid_tgid"]:
            return [f"_v0 = ((task.tgid << 32) | task.pid) & {_U64:#x}"]
        if helper_id == HELPER_IDS["get_current_uid_gid"]:
            return [f"_v0 = ((task.gid << 32) | task.uid) & {_U64:#x}"]
        if helper_id == HELPER_IDS["trace_printk"]:
            return ["helpers.printk_count += 1", "_v0 = 0"]
        return None

    # -------------------------------------------------------------- atomics
    def _atomic(self, pc: int, insn: Instruction) -> List[str]:
        size = insn.size_bytes
        szmask = (1 << (size * 8)) - 1
        m = self.memo_count
        self.memo_count += 1
        lines = self._flush() + self._acct_real() + [
            f"counters.cycles += {cost.ATOMIC_BASE_COST}",
            "counters.atomics += 1",
            f"_a = (_v{insn.dst} + {insn.off}) & {_U64:#x}",
            f"counters.cycles += access(_a, {size})",
            "_pln = -1",
        ] + self._vercheck() + [
            f"_g = memo[{m}]",
            f"if _g is None or _g.base > _a "
            f"or _a + {size} > _g.base + len(_g.data):",
            "    try:",
            f"        _g = find(_a, {size})",
            "    except MemoryFault as exc:",
            "        raise VmFault(str(exc)) from None",
            f"    memo[{m}] = _g",
            "_o = _a - _g.base",
            f"_old = _up{size}(_g.data, _o)[0]",
        ]
        aop = insn.imm & ~op.BPF_FETCH
        operand = f"(_v{insn.src} & {szmask:#x})"
        if aop == op.BPF_ATOMIC_ADD:
            new = f"(_old + {operand})"
        elif aop == op.BPF_ATOMIC_AND:
            new = f"(_old & {operand})"
        elif aop == op.BPF_ATOMIC_OR:
            new = f"(_old | {operand})"
        elif aop == op.BPF_ATOMIC_XOR:
            new = f"(_old ^ {operand})"
        elif insn.imm == op.BPF_XCHG:
            new = operand
        else:  # unsupported (e.g. CMPXCHG): reference faults after load
            lines.append(f"raise VmFault('unsupported atomic "
                         f"{insn.imm:#x}')")
            return lines
        lines.append(f"_pk{size}(_g.data, _o, {new} & {szmask:#x})")
        if insn.imm & op.BPF_FETCH:
            lines.append(f"_v{insn.src} = _old")
        return lines

    # ---------------------------------------------------------- terminators
    def _writeback(self) -> List[str]:
        return [f"regs[{r}] = _v{r}" for r in range(op.NUM_REGS)]

    def term_lines(self, label: int,
                   render: Callable[[int], List[str]]) -> List[str]:
        cfg, b = self.cfg, self.block_at[label]
        kind, insn = cfg.kind[b], cfg.insns[cfg.last[b]]
        pc = self.slot_of[cfg.last[b]]
        if kind == FALL:
            return render(pc + insn.slots)
        if kind == EXIT:
            return self._acct() + [
                f"_cyc += {cost.base_cost(insn)}",
                "counters.instructions += _lbud - _bud",
                "counters.cycles += _cyc + _hl * _mru",
                "counters.branches += _br",
                "_cs.references += _ref + _mru",
                "_cs.misses += _mis",
                "_bs.branches += _bb",
            ] + self._writeback() + ["return -1"]
        if kind == JA:
            return self._acct() + [
                f"_cyc += {cost.JUMP_COST}",
                "_br += 1",
            ] + render(pc + 1 + insn.off)
        # conditional
        pre, expr = self._cond(insn)
        if expr is None:  # unknown jump op: keep it on the slow path
            return [f"bail[{BAIL_OTHER}] += 1", f"raise _Bail({pc})"]
        fall = render(pc + 1)
        taken = render(pc + 1 + insn.off)
        lines = self._acct() + [f"_cyc += {cost.JUMP_COST}"]
        lines += pre
        lines += [
            f"_t = {expr}",
            "_br += 1",
        ]
        # a plain (non-profiling) predictor is inlined: the 2-bit
        # saturating-counter update is a handful of local/dict ops,
        # replicating BranchPredictor.record's order of events exactly;
        # subclasses (e.g. the PGO profiler) keep the bound-method call
        lines += [
            "if _plainbp:",
            f"    _sl = {pc} % _tbsz",
            "    _c = _bc.get(_sl, 1)",
            "    _bb += 1",
            "    if (_c >= 2) != _t:",
            "        _bs.mispredictions += 1",
            "        _cyc += _mpen",
            "    if _t:",
            "        _bc[_sl] = _c + 1 if _c < 3 else 3",
            "    else:",
            "        _bc[_sl] = _c - 1 if _c > 0 else 0",
            "else:",
            f"    _cyc += record({pc}, _t)",
            "if _t:",
        ]
        lines += _indent(taken)
        lines.append("else:")
        lines += _indent(fall)
        return lines

    def _cond(self, insn: Instruction
              ) -> Tuple[List[str], Optional[str]]:
        """(prelude, bool expression) for a conditional jump, exploiting
        the engine invariant that registers always hold 0 <= v < 2**64
        (so 64-bit unsigned compares need no masking)."""
        is32 = (insn.opcode & op.CLASS_MASK) == op.BPF_JMP32
        mask = _U32 if is32 else _U64
        bits = 32 if is32 else 64
        sign = 1 << (bits - 1)
        wrap = 1 << bits
        d, s = insn.dst, insn.src
        jop = insn.opcode & op.JMP_OP_MASK
        unsigned = {op.BPF_JEQ: "==", op.BPF_JNE: "!=", op.BPF_JGT: ">",
                    op.BPF_JGE: ">=", op.BPF_JLT: "<", op.BPF_JLE: "<="}
        lhs = f"(_v{d} & {_U32:#x})" if is32 else f"_v{d}"
        if insn.uses_imm:
            rhs = f"{insn.imm & mask:#x}"
        else:
            rhs = f"(_v{s} & {_U32:#x})" if is32 else f"_v{s}"
        if jop in unsigned:
            return [], f"{lhs} {unsigned[jop]} {rhs}"
        if jop == op.BPF_JSET:
            return [], f"({lhs} & {rhs}) != 0"
        signed_ops = {op.BPF_JSGT: ">", op.BPF_JSGE: ">=",
                      op.BPF_JSLT: "<", op.BPF_JSLE: "<="}
        if jop in signed_ops:
            pre = [
                f"_x = {lhs}",
                f"if _x >= {sign:#x}:",
                f"    _x -= {wrap:#x}",
            ]
            if insn.uses_imm:
                k = insn.imm & mask
                rhs_expr = str(k - wrap if k & sign else k)
            else:
                pre += [
                    f"_y = {rhs}",
                    f"if _y >= {sign:#x}:",
                    f"    _y -= {wrap:#x}",
                ]
                rhs_expr = "_y"
            return pre, f"_x {signed_ops[jop]} {rhs_expr}"
        return [], None  # unknown jump op


# ------------------------------------------------------------------ compile
@dataclass
class JitProgram:
    """Machine-independent JIT compilation of one program: the compiled
    binder factory, or ``None`` with a ``fallback_reason``."""

    factory: Optional[Callable]
    source: str
    n_memops: int
    n_blocks: int
    guarded_sites: int
    inline_helpers: int
    fallback_reason: str
    key: str

    @property
    def compiled(self) -> bool:
        return self.factory is not None


def _binder_source(body: List[str], emitter: _Emitter) -> str:
    lines = [
        "def _jit_binder(machine, budget, memo, ver, bail):",
        "    counters = machine.counters",
        "    memory = machine.memory",
        "    find = memory.find",
        "    _cache = machine.cache",
        "    access = _cache.access",
        "    _lb = _cache.line_bytes",
        "    _ns = _cache.num_sets",
        "    _hl = _cache.hit_latency",
        "    _mp = _cache.miss_penalty",
        "    _wy = _cache.ways",
        "    _branch = machine.branch",
        "    record = _branch.record",
        "    _plainbp = type(_branch) is BranchPredictor",
        "    _tbsz = _branch.table_size",
        "    _mpen = _branch.mispredict_penalty",
        "    helpers = machine.helpers",
        "    call = helpers.call",
        "    task = machine.task",
        "    getrandbits = helpers.rng.getrandbits",
        "    load_bytes = memory.load_bytes",
        f"    _empty = [None] * {emitter.memo_count}",
    ]
    for fd in sorted(emitter.map_fds):
        lines.append(f"    {emitter.map_fds[fd]} = machine.maps_by_id[{fd}]")
    lines.append("    def run(regs):")
    # re-read the stats/sets objects per run: CacheModel.reset()
    # replaces both, and the inline fast path must see the live ones
    prologue = [
        "_cs = _cache.stats",
        "_sets = _cache.sets",
        "_bs = _branch.stats",
        "_bc = _branch.counters",
        "_bud = budget[0]",
        "_lbud = _bud",
        "_cyc = 0",
        "_bb = 0",
        "_br = 0",
        "_ref = 0",
        "_mru = 0",
        "_mis = 0",
        "_pln = -1",
        "_L = 0",
    ] + [f"_v{r} = regs[{r}]" for r in range(op.NUM_REGS)]
    lines.extend("        " + line for line in prologue)
    lines.append("        try:")
    lines.extend("            " + line for line in body)
    lines.append("            raise AssertionError('jit fell off the "
                 "structured region')  # pragma: no cover")
    lines.append("        except _Bail as _b:")
    epilogue = [
        "counters.instructions += _lbud - _bud",
        "counters.cycles += _cyc + _hl * _mru",
        "counters.branches += _br",
        "_cs.references += _ref + _mru",
        "_cs.misses += _mis",
        "_bs.branches += _bb",
        "budget[0] = _bud",
    ] + [f"regs[{r}] = _v{r}" for r in range(op.NUM_REGS)] + [
        "return _b.pc",
    ]
    lines.extend("            " + line for line in epilogue)
    lines.append("    return run")
    return "\n".join(lines)


def _compile_jit(program: BpfProgram, key: str) -> JitProgram:
    def fallback(reason: str) -> JitProgram:
        return JitProgram(factory=None, source="",
                          n_memops=0, n_blocks=0, guarded_sites=0,
                          inline_helpers=0, fallback_reason=reason, key=key)

    if program.ni > JIT_MAX_SLOTS:
        return fallback(f"program too large ({program.ni} slots)")
    try:
        emitter = _Emitter(program)
        body = Relooper(emitter.succs, emitter).emit(0)
        source = _binder_source(body, emitter)
        namespace = dict(_JIT_GLOBALS)
        namespace["VmFault"] = VmFault
        namespace["MemoryFault"] = MemoryFault
        namespace["_BUDGET_MSG"] = _BUDGET_MSG
        namespace["_Bail"] = _Bail
        namespace["BranchPredictor"] = BranchPredictor
        exec(compile(source, f"<jit:{key[:12]}>", "exec"), namespace)
        factory = namespace["_jit_binder"]
    except StructureError as exc:
        return fallback(f"structure: {exc}")
    except (SyntaxError, RecursionError) as exc:
        # e.g. "too many statically nested blocks" / indentation limits
        return fallback(f"{type(exc).__name__}: {exc}")
    except Exception as exc:  # pragma: no cover - codegen bug safety net
        if STRICT:
            raise
        return fallback(f"{type(exc).__name__}: {exc}")
    return JitProgram(factory=factory, source=source,
                      n_memops=emitter.memo_count,
                      n_blocks=len(emitter.block_at),
                      guarded_sites=emitter.guarded_sites,
                      inline_helpers=emitter.inline_helpers,
                      fallback_reason="", key=key)


# -------------------------------------------------------------------- cache
@dataclass
class JitCacheStats:
    hits: int = 0
    misses: int = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


JIT_CACHE_CAPACITY = 256

_jit_cache: "OrderedDict[str, JitProgram]" = OrderedDict()
_jit_stats = JitCacheStats()


def jit_cache_stats() -> JitCacheStats:
    """A snapshot of the process-wide JIT code-object cache statistics."""
    return JitCacheStats(_jit_stats.hits, _jit_stats.misses)


def jit_cache_size() -> int:
    return len(_jit_cache)


def clear_jit_cache() -> None:
    _jit_cache.clear()
    _jit_stats.hits = 0
    _jit_stats.misses = 0


def compile_jit_program(program: BpfProgram) -> JitProgram:
    """Compile *program* (or fetch the shared compilation for its
    content key)."""
    key = key_for_bytecode(program)
    cached = _jit_cache.get(key)
    if cached is not None:
        _jit_stats.hits += 1
        _jit_cache.move_to_end(key)
        return cached
    _jit_stats.misses += 1
    compiled = _compile_jit(program, key)
    _jit_cache[key] = compiled
    while len(_jit_cache) > JIT_CACHE_CAPACITY:
        _jit_cache.popitem(last=False)
    return compiled


# ---------------------------------------------------------------- execution
class JitExecution:
    """A :class:`JitProgram` bound to one Machine's models.

    A bail resumes the machine's reference interpreter at the bail slot
    with the budget the compiled code already consumed, and a program
    that never JIT-compiled (fallback) runs entirely on the interpreter.
    """

    __slots__ = ("jit", "fn", "bail", "deopt_runs", "_interpret",
                 "_budget", "_max_insns", "_counters")

    def __init__(self, jit: JitProgram, machine) -> None:
        self.jit = jit
        self._interpret = machine._execute
        self._budget = [0]
        self._max_insns = machine.max_insns
        self._counters = machine.counters
        self.bail = [0, 0, 0, 0]
        self.deopt_runs = 0
        if jit.factory is not None:
            memo: List[Optional[object]] = [None] * jit.n_memops
            ver = [-1]
            self.fn = jit.factory(machine, self._budget, memo, ver,
                                  self.bail)
        else:
            self.fn = None

    def execute(self, regs: List[int]) -> int:
        fn = self.fn
        if fn is None:
            return self._interpret(regs)
        budget = self._budget
        budget[0] = self._max_insns
        counted = self._counters.instructions
        try:
            pc = fn(regs)
            if pc < 0:
                return regs[op.R0]
            # deoptimize: the epilogue flushed registers and counters,
            # so the interpreter picks up at the bail slot as if it had
            # executed everything so far itself
            self.deopt_runs += 1
            return self._interpret(regs, pc, self._max_insns - budget[0])
        except VmFault as exc:
            check_budget_fault(exc, self._counters.instructions - counted,
                               self._max_insns)
            raise

    @property
    def stats(self) -> dict:
        return {
            "compiled": self.jit.compiled,
            "fallback_reason": self.jit.fallback_reason,
            "blocks": self.jit.n_blocks,
            "memo_sites": self.jit.n_memops,
            "guarded_sites": self.jit.guarded_sites,
            "inline_helpers": self.jit.inline_helpers,
            "deopt_runs": self.deopt_runs,
            "bails": dict(zip(BAIL_CAUSES, self.bail)),
        }


def bind_jit(machine) -> JitExecution:
    """Compile (or reuse the cached compilation of) ``machine.program``
    and bind it to the machine's counters, cache, predictor, memory,
    maps and helper runtime."""
    return JitExecution(compile_jit_program(machine.program), machine)
