"""IR-tier witness validation: whole-function equivalence.

IR passes (constant propagation, DCE, alignment, macro-op fusion,
superword merging) rewrite arbitrary portions of a function, so their
witnesses snapshot the whole textual IR before and after.  The
validator compiles both snapshots to bytecode and tries two tiers:

1. **Symbolic**: execute both programs end to end over the expression
   domain.  Branches are followed only when their condition folds to a
   constant (constant propagation makes many do exactly that) or is
   decided by the tnum abstraction; helper calls become order-sensitive
   *effect events* whose scalar arguments — and, for the map helpers,
   the pointed-to key/value bytes — must prove equal pairwise.  If both
   sides complete, the proof obligation is r0, the effect traces, and
   every non-stack memory byte.  Stack contents at exit are deliberately
   *not* compared: IR DCE legitimately deletes write-only allocas.
   This tier only ever certifies — an inconclusive or failed comparison
   falls through, it never alarms.

2. **Concrete**: run both programs over the shared oracle battery
   (:func:`repro.fuzz.oracle.observe_battery`) — maps, output bytes,
   packet effects, faults.  A divergence here is a genuine
   counterexample, so this is the only IR-tier path that refutes.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..isa import BpfProgram, Instruction
from ..isa import opcodes as op
from .expr import Const, Expr, Op, Sym, const, normalize_deep, prove_equal
from .state import SymState, Unsupported, split_addr
from .witness import Certificate, RewriteWitness

_U64 = (1 << 64) - 1

#: helpers the symbolic tier can model: helper id -> number of argument
#: registers actually read, plus which of them are stack/map pointers
#: whose pointed-to bytes must be captured: (args, key_ptr?, value_ptr?)
#: Sizes come from the map spec selected by the fd in r1.
_MAP_LOOKUP, _MAP_UPDATE, _MAP_DELETE = 1, 2, 3
_SCALAR_HELPERS = {
    5: 0,    # ktime_get_ns
    7: 0,    # get_prandom_u32
    8: 0,    # get_smp_processor_id
    14: 0,   # get_current_pid_tgid
    15: 0,   # get_current_uid_gid
    23: 2,   # redirect(ifindex, flags)
    51: 3,   # redirect_map(map, key, flags) — key is a scalar u32
    125: 0,  # ktime_get_boot_ns
}

_STEP_CAP = 4096
_FP_BASE = Sym(("r", 10))


class _ProgramRun:
    """Result of one whole-program symbolic execution."""

    def __init__(self, r0: Expr, trace: List[Tuple], state: SymState):
        self.r0 = r0
        self.trace = trace
        self.state = state


def _map_spec(program: BpfProgram, fd: int):
    specs = list(program.maps.values())
    if not 1 <= fd <= len(specs):
        raise Unsupported(f"helper call with unknown map fd {fd}")
    return specs[fd - 1]


def _pointed_bytes(state: SymState, ptr: Expr, size: int) -> Tuple:
    base, off = split_addr(normalize_deep(ptr))
    return tuple(state.read_byte(base, off + i) for i in range(size))


def run_program_symbolic(program: BpfProgram) -> _ProgramRun:
    """Execute *program* end to end symbolically, or raise Unsupported.

    Conditions must be decidable (constant-folded or tnum-decided);
    helper calls must be in the modeled set.
    """
    from ..core.bytecode_passes.symbolic import SymbolicProgram
    from .expr import tnum_decide

    sym = SymbolicProgram.from_program(program)
    state = SymState()
    trace: List[Tuple] = []
    index = 0
    steps = 0
    n = len(sym.insns)
    while True:
        if index >= n:
            raise Unsupported("control fell off the end of the program")
        item = sym.insns[index]
        insn = item.insn
        steps += 1
        if steps > _STEP_CAP:
            raise Unsupported(f"step cap {_STEP_CAP} exceeded")

        if insn.is_exit:
            return _ProgramRun(state.regs[op.R0], trace, state)
        if insn.is_call:
            _call(program, state, trace, insn)
            index += 1
            continue
        if insn.is_jump:
            if insn.jmp_op == op.BPF_JA:
                index = item.target
                continue
            cond = _condition_expr(state, insn)
            decided = None
            if isinstance(cond, Const):
                decided = bool(cond.value)
            else:
                decided = tnum_decide(cond)
            if decided is None:
                raise Unsupported(f"undecided branch at insn {index}: {insn}")
            index = item.target if decided else index + 1
            continue
        state.step(insn)  # Unsupported propagates
        index += 1


def _condition_expr(state: SymState, insn: Instruction) -> Expr:
    bits = 32 if insn.insn_class == op.BPF_JMP32 else 64
    name = op.JMP_OP_NAMES[insn.jmp_op]
    lhs = state.regs[insn.dst]
    rhs: Expr = const(insn.imm) if insn.uses_imm else state.regs[insn.src]
    return normalize_deep(Op(name, bits, (lhs, rhs)))


def _call(program: BpfProgram, state: SymState, trace: List[Tuple],
          insn: Instruction) -> None:
    helper_id = insn.imm
    call_index = len(trace)
    args = [normalize_deep(state.regs[r]) for r in op.ARG_REGS]

    if helper_id in _SCALAR_HELPERS:
        nargs = _SCALAR_HELPERS[helper_id]
        trace.append(("call", helper_id) + tuple(args[:nargs]))
    elif helper_id in (_MAP_LOOKUP, _MAP_UPDATE, _MAP_DELETE):
        fd_term = args[0]
        if not isinstance(fd_term, Const):
            raise Unsupported("map helper with symbolic map argument")
        spec = _map_spec(program, fd_term.value)
        key = _pointed_bytes(state, args[1], spec.key_size)
        event: Tuple = ("call", helper_id, fd_term.value) + key
        if helper_id == _MAP_UPDATE:
            value = _pointed_bytes(state, args[2], spec.value_size)
            event = event + value + (args[3],)
        trace.append(event)
    else:
        raise Unsupported(f"helper {helper_id} is outside the modeled set")

    # the call clobbers r0-r5; fresh symbols keyed by the call index so
    # aligned traces mint aligned values on both sides
    state.regs[op.R0] = Sym(("ret", call_index))
    for reg in (op.R1, op.R2, op.R3, op.R4, op.R5):
        state.regs[reg] = Sym(("clobber", call_index, reg))


# ---------------------------------------------------------------------------
# comparison
# ---------------------------------------------------------------------------
def _symbolic_verdict(a: _ProgramRun, b: _ProgramRun,
                      seed: int) -> Optional[str]:
    """"proved" when every obligation discharges, else None (defer)."""
    if len(a.trace) != len(b.trace):
        return None
    for ea, eb in zip(a.trace, b.trace):
        if len(ea) != len(eb) or ea[:2] != eb[:2]:
            return None
        for ta, tb in zip(ea[2:], eb[2:]):
            if _prove(ta, tb, seed) != "proved":
                return None
    if _prove(a.r0, b.r0, seed) != "proved":
        return None

    keys = {k for k in a.state.memory if k[0] != _FP_BASE}
    keys |= {k for k in b.state.memory if k[0] != _FP_BASE}
    for base, off in keys:
        from .state import initial_byte

        lhs = a.state.memory.get((base, off), initial_byte(base, off))
        rhs = b.state.memory.get((base, off), initial_byte(base, off))
        if _prove(lhs, rhs, seed) != "proved":
            return None
    return "proved"


def _prove(lhs, rhs, seed: int) -> str:
    if not isinstance(lhs, (Const, Sym, Op)) or \
            not isinstance(rhs, (Const, Sym, Op)):
        return "proved" if lhs == rhs else "checked"
    status, _, _ = prove_equal(lhs, rhs, seed=seed)
    return status


def _concrete_verdict(before: BpfProgram, after: BpfProgram, seed: int,
                      tests: int) -> Tuple[str, Optional[Dict[str, str]], str]:
    """Oracle battery over both programs; a divergence is a genuine
    counterexample."""
    from ..fuzz.oracle import first_divergence, generate_tests, observe_battery

    battery = generate_tests(before, count=tests, seed=seed + 7)
    obs_before = observe_battery(before, battery, seed=seed + 7)
    obs_after = observe_battery(after, battery, seed=seed + 7)
    hit = first_divergence(obs_before, obs_after)
    if hit is None:
        return "checked", None, f"{len(battery)}-test oracle battery agrees"
    test_index, kind = hit
    oa, ob = obs_before[test_index], obs_after[test_index]
    counterexample = {
        "test_index": str(test_index),
        "observable": kind,
        "before": _render_obs(oa),
        "after": _render_obs(ob),
        "ctx": battery[test_index].ctx.hex() or "-",
    }
    if battery[test_index].packet is not None:
        counterexample["packet"] = battery[test_index].packet.hex()
    return "refuted", counterexample, f"{kind} differs on test {test_index}"


def _render_obs(obs) -> str:
    if obs.fault is not None:
        return f"fault={obs.fault}"
    return f"r0={obs.return_value:#x}"


def validate_ir_witness(
    witness: RewriteWitness,
    module=None,
    prog_type=None,
    mcpu: str = "v2",
    ctx_size: int = 64,
    seed: int = 0,
    tests: int = 12,
    compiled: Optional[Dict[str, BpfProgram]] = None,
) -> Certificate:
    """Certificate for one IR-tier pass application.

    *compiled* is an optional text -> program memo shared across the
    witnesses of one compilation (pass N's after-text is pass N+1's
    before-text)."""
    from ..codegen import compile_function
    from ..ir import parse_function

    if witness.before_text == witness.after_text:
        return Certificate(witness.pass_name, witness.tier, witness.kind,
                           witness.point, "identical", "proved",
                           detail="pass reported rewrites but IR text is "
                                  "unchanged")

    def build(text: str) -> BpfProgram:
        if compiled is not None and text in compiled:
            return compiled[text]
        program = compile_function(parse_function(text), module,
                                   prog_type=prog_type, mcpu=mcpu,
                                   ctx_size=ctx_size)
        if compiled is not None:
            compiled[text] = program
        return program

    before = build(witness.before_text)
    after = build(witness.after_text)

    try:
        run_before = run_program_symbolic(before)
        run_after = run_program_symbolic(after)
    except Unsupported as exc:
        verdict, symbolic_note = None, str(exc)
    else:
        verdict = _symbolic_verdict(run_before, run_after, seed)
        symbolic_note = "symbolic obligations did not all discharge"

    if verdict == "proved":
        return Certificate(witness.pass_name, witness.tier, witness.kind,
                           witness.point, "symbolic", "proved",
                           detail="r0, effect trace, and non-stack memory "
                                  "proved equal on all paths taken")

    status, counterexample, detail = _concrete_verdict(before, after,
                                                       seed, tests)
    return Certificate(witness.pass_name, witness.tier, witness.kind,
                       witness.point, "concrete", status,
                       counterexample=counterexample,
                       detail=f"{detail} (symbolic tier: {symbolic_note})")
