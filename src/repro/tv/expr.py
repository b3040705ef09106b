"""Bitvector expression terms for translation validation.

The validator's symbolic executor computes one :class:`Expr` per
register / memory byte.  Three layers of reasoning are stacked on top:

* :func:`normalize` — rewrite to a canonical form (constant folding,
  algebraic identities, shift/mask compositions).  Two terms that
  normalize to the same tree are *proven* equal for every input.
* :func:`expr_tnum` — abstract a term into the verifier's
  :class:`~repro.verifier.tnum.Tnum` domain.  Disjoint tnums refute
  equality; it also narrows the value ranges the enumeration fallback
  samples from.
* :func:`evaluate` + :func:`sample_envs` — concrete enumeration over
  narrowed value ranges when symbolic terms don't normalize.  The
  evaluator computes each operation with :mod:`repro.isa.semantics`,
  the arithmetic the VM executes, so a differing sample is a genuine
  semantic difference.

Semantics: every term denotes a u64.  An :class:`Op` carries the
operation width (``bits`` = 32 or 64); operands are truncated to the
width before the operation and the result is zero-extended, exactly
like the VM (ALU32 zero-extends into the 64-bit register).  A byte
swap (``be``/``le``) carries its swap width (16, 32 or 64) instead.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from ..isa import opcodes as op
from ..isa.semantics import alu, bswap, condition, signed
from ..verifier.tnum import Tnum

_U64 = (1 << 64) - 1
_U32 = (1 << 32) - 1


@dataclass(frozen=True)
class Const:
    value: int  # canonical: 0 <= value <= U64


@dataclass(frozen=True)
class Sym:
    """A free variable.  ``name`` is any hashable tag; the validator
    keys initial-memory symbols by structured tuples so the two sides
    of a witness mint *identical* symbols for identical quantities."""

    name: object


#: expression sizes saturate here; anything this large is "too big"
SIZE_CAP = 1 << 20


@dataclass(frozen=True)
class Op:
    op: str
    bits: int  # operation width: 32 or 64
    args: Tuple["Expr", ...]
    #: tree-size measure (saturating at SIZE_CAP) maintained at
    #: construction so growth checks are O(1); derived, so excluded
    #: from equality and hashing
    size: int = field(default=0, compare=False, repr=False)

    def __post_init__(self):
        total = 1 + sum(expr_size(a) for a in self.args)
        object.__setattr__(self, "size", min(total, SIZE_CAP))


def expr_size(expr: Expr) -> int:
    return expr.size if isinstance(expr, Op) else 1


Expr = object  # Union[Const, Sym, Op] — kept loose for 3.9 compatibility

#: binary ALU operations (``opcodes.ALU_OP_NAMES`` names)
_BINOPS = ("add", "sub", "mul", "div", "mod", "or", "and", "xor",
           "lsh", "rsh", "arsh")
#: comparison operations (produce 0/1; used as path conditions)
_CMPOPS = ("jeq", "jne", "jgt", "jge", "jlt", "jle", "jset",
           "jsgt", "jsge", "jslt", "jsle")


def const(value: int) -> Const:
    return Const(value & _U64)


# ---------------------------------------------------------------------------
# concrete evaluation (the VM's arithmetic)
# ---------------------------------------------------------------------------
def evaluate(expr: Expr, env: Dict[Sym, int]) -> int:
    """Evaluate under *env* (symbol -> u64).  Missing symbols are 0."""
    if isinstance(expr, Const):
        return expr.value
    if isinstance(expr, Sym):
        return env.get(expr, 0) & _U64
    assert isinstance(expr, Op)
    bits = expr.bits
    name = expr.op
    args = expr.args
    if name == "byte":
        value, index = args
        return (evaluate(value, env) >> (8 * index.value)) & 0xFF
    if name == "be" or name == "le":
        return bswap(evaluate(args[0], env), bits, name == "be")
    mask = _U32 if bits == 32 else _U64
    a = evaluate(args[0], env) & mask
    b = evaluate(args[1], env) & mask if len(args) > 1 else 0
    aop = op.ALU_OP_BY_NAME.get(name)
    if aop is not None:
        return alu(aop, a, b, bits)
    return int(condition(op.JMP_OP_BY_NAME[name], a, b, bits))


# ---------------------------------------------------------------------------
# normalization
# ---------------------------------------------------------------------------
def mkop(name: str, bits: int, *args: Expr) -> Expr:
    """Build and normalize an operation node."""
    return normalize(Op(name, bits, tuple(args)))


def normalize(expr: Expr) -> Expr:
    """Canonicalize a term (arguments are assumed already normalized).

    The rule set is small but covers what Merlin's rewrites need to
    discharge symbolically: constant folding, neutral elements,
    mask/shift compositions (``(x << c) >> d``, ``(x & m) >> k``), and
    flattened constant address arithmetic.
    """
    if not isinstance(expr, Op):
        return expr
    name, bits, args = expr.op, expr.bits, expr.args

    # constant folding (evaluate matches VM semantics, div-by-zero incl.)
    if all(isinstance(a, Const) for a in args):
        return Const(evaluate(expr, {}))

    if name == "byte":
        value, index = args
        if isinstance(value, Op) and value.op == "or" and value.bits == 64:
            pass  # no byte-of-or distribution; handled by memory layer
        return expr

    if name not in _BINOPS:
        return expr
    a, b = args

    # canonical operand order for commutative ops: constant on the right
    if name in ("add", "mul", "or", "and", "xor") and isinstance(a, Const):
        a, b = b, a

    if isinstance(b, Const):
        bv = b.value & (_U32 if bits == 32 else _U64)
        full = _U32 if bits == 32 else _U64
        # neutral / absorbing elements.  At 32-bit width the "identity"
        # still truncates the operand, so x op32 0 == and(x, U32), not x.
        if bits == 64:
            if bv == 0 and name in ("add", "sub", "or", "xor", "lsh",
                                    "rsh", "arsh"):
                return a
            if bv == 0 and name in ("and", "mul"):
                return Const(0)
            if bv == 1 and name == "mul":
                return a
        if name == "and":
            if bv == 0:
                return Const(0)
            if bv == full and bits == 64:
                return a
        # sub by constant -> add of the complement (flattens chains)
        if name == "sub" and bits == 64:
            return mkop("add", 64, a, Const((-bv) & _U64))
        # add-chain constant collection: (x + c1) + c2 -> x + (c1+c2)
        if name == "add" and bits == 64 and isinstance(a, Op) and \
                a.op == "add" and a.bits == 64 and \
                isinstance(a.args[1], Const):
            summed = (a.args[1].value + bv) & _U64
            if summed == 0:
                return a.args[0]
            return Op("add", 64, (a.args[0], Const(summed)))
        # and-chain mask merging: (x & m1) & m2 -> x & (m1&m2)
        if name == "and" and isinstance(a, Op) and a.op == "and" and \
                a.bits == bits and isinstance(a.args[1], Const):
            return mkop("and", bits, a.args[0], Const(a.args[1].value & bv))
        if name in ("lsh", "rsh", "arsh"):
            shift = bv % bits
            if shift == 0 and bits == 64:
                return a
            b = Const(shift)
            # (x << c) >> d at 64 bit: drop the round trip through the
            # high bits: == (x & (U64 >> c)) >> (d - c)   when d >= c
            if name == "rsh" and bits == 64 and isinstance(a, Op) and \
                    a.op == "lsh" and a.bits == 64 and \
                    isinstance(a.args[1], Const):
                c = a.args[1].value
                if shift >= c:
                    masked = mkop("and", 64, a.args[0], Const(_U64 >> c))
                    if shift == c:
                        return masked
                    return mkop("rsh", 64, masked, Const(shift - c))
            # (x & m) >> k: bits of m below k never reach the result
            if name == "rsh" and bits == 64 and shift and \
                    isinstance(a, Op) and a.op == "and" and a.bits == 64 and \
                    isinstance(a.args[1], Const):
                low = (1 << shift) - 1
                m = a.args[1].value
                if m & low:
                    trimmed = mkop("and", 64, a.args[0], Const(m & ~low))
                    return mkop("rsh", 64, trimmed, Const(shift))
    return Op(name, bits, (a, b))


# ---------------------------------------------------------------------------
# tnum abstraction
# ---------------------------------------------------------------------------
def expr_tnum(expr: Expr, env: Optional[Dict[Sym, Tnum]] = None) -> Tnum:
    """Abstract a term into the verifier's tnum domain."""
    if isinstance(expr, Const):
        return Tnum.const(expr.value)
    if isinstance(expr, Sym):
        if env is not None and expr in env:
            return env[expr]
        return Tnum.unknown()
    assert isinstance(expr, Op)
    name, bits = expr.op, expr.bits
    cast = 4 if bits == 32 else 8
    if name == "byte":
        value = expr_tnum(expr.args[0], env)
        return value.rshift(8 * expr.args[1].value).cast(1)
    if name in ("be", "le"):
        return Tnum.unknown().cast(bits // 8)
    if name == "neg":
        return Tnum.const(0).sub(expr_tnum(expr.args[0], env).cast(cast)).cast(cast)
    if name in _CMPOPS:
        decided = tnum_decide(expr, env)
        return Tnum.const(int(decided)) if decided is not None else Tnum(0, 1)
    a = expr_tnum(expr.args[0], env).cast(cast)
    b = expr_tnum(expr.args[1], env).cast(cast)
    if name == "add":
        out = a.add(b)
    elif name == "sub":
        out = a.sub(b)
    elif name == "mul":
        out = a.mul(b)
    elif name == "and":
        out = a.and_(b)
    elif name == "or":
        out = a.or_(b)
    elif name == "xor":
        out = a.xor(b)
    elif name == "lsh" and b.is_const:
        out = a.lshift(b.value % bits)
    elif name == "rsh" and b.is_const:
        out = a.rshift(b.value % bits)
    elif name == "arsh" and b.is_const:
        out = a.arshift(b.value % bits, bits)
    else:  # div/mod and variable shifts: no useful abstraction
        out = Tnum.unknown()
    return out.cast(cast)


def tnum_decide(cond: Expr, env: Optional[Dict[Sym, Tnum]] = None
                ) -> Optional[bool]:
    """Decide a comparison term from tnum bounds, if possible."""
    if isinstance(cond, Const):
        return bool(cond.value)
    if not (isinstance(cond, Op) and cond.op in _CMPOPS):
        return None
    bits = cond.bits
    cast = 4 if bits == 32 else 8
    a = expr_tnum(cond.args[0], env).cast(cast)
    b = expr_tnum(cond.args[1], env).cast(cast)
    name = cond.op
    if name in ("jeq", "jne"):
        if a.is_const and b.is_const:
            return (a.value == b.value) if name == "jeq" else (a.value != b.value)
        disjoint = (a.value ^ b.value) & ~a.mask & ~b.mask & _U64
        if disjoint:
            return False if name == "jeq" else True
        return None
    if name == "jset":
        both = a.and_(b)
        if both.is_const:
            return bool(both.value)
        if both.umax == 0:
            return False
        return None
    unsigned = {"jgt": (lambda: a.umin > b.umax, lambda: a.umax <= b.umin),
                "jge": (lambda: a.umin >= b.umax, lambda: a.umax < b.umin),
                "jlt": (lambda: a.umax < b.umin, lambda: a.umin >= b.umax),
                "jle": (lambda: a.umax <= b.umin, lambda: a.umin > b.umax)}
    if name in unsigned:
        definitely, definitely_not = unsigned[name]
        if definitely():
            return True
        if definitely_not():
            return False
    return None


# ---------------------------------------------------------------------------
# concrete enumeration over narrowed ranges
# ---------------------------------------------------------------------------
def symbols_of(expr: Expr, into: Optional[Set[Sym]] = None) -> Set[Sym]:
    if into is None:
        into = set()
    if isinstance(expr, Sym):
        into.add(expr)
    elif isinstance(expr, Op):
        for a in expr.args:
            symbols_of(a, into)
    return into


#: boundary values every sampled symbol cycles through
_CORNERS = (0, 1, 2, 0x7F, 0x80, 0xFF, 0x100, 0x7FFF, 0x8000,
            0x7FFFFFFF, 0x80000000, 0xFFFFFFFF, 0x100000000,
            0x7FFFFFFFFFFFFFFF, 0x8000000000000000, _U64,
            0xA5A5A5A5A5A5A5A5)


def sample_envs(syms: Sequence[Sym], seed: int = 0, count: int = 48,
                narrow: Optional[Dict[Sym, Tnum]] = None,
                ) -> Iterable[Dict[Sym, int]]:
    """Yield assignments for *syms*: corner values first, then seeded
    random draws.  When *narrow* provides a tnum for a symbol, samples
    are folded into that tnum's value range (``value | (draw & mask)``)
    — the "narrowed value ranges" of the enumeration fallback."""
    syms = list(syms)
    rng = random.Random(seed)

    def clamp(sym: Sym, draw: int) -> int:
        if narrow is not None and sym in narrow:
            t = narrow[sym]
            return (t.value | (draw & t.mask)) & _U64
        return draw & _U64

    for i in range(count):
        env: Dict[Sym, int] = {}
        for j, sym in enumerate(syms):
            if i < len(_CORNERS):
                # rotate corners across symbols so pairs hit mixed corners
                draw = _CORNERS[(i + j) % len(_CORNERS)]
            else:
                draw = rng.getrandbits(64)
            env[sym] = clamp(sym, draw)
        yield env
        if not syms:
            return


def support_masks(expr: Expr, out_mask: int = _U64,
                  into: Optional[Dict[Sym, int]] = None) -> Dict[Sym, int]:
    """Which bits of which symbols can influence *expr*'s ``out_mask``
    bits.  Conservative (errs toward including bits): a bit absent from
    a symbol's support mask provably never changes the term's value.
    This is what narrows the enumeration fallback's value ranges."""
    if into is None:
        into = {}
    if isinstance(expr, Const) or not out_mask:
        return into
    if isinstance(expr, Sym):
        into[expr] = into.get(expr, 0) | out_mask
        return into
    assert isinstance(expr, Op)
    name, bits, args = expr.op, expr.bits, expr.args
    width_mask = _U32 if bits == 32 else _U64

    def carry_mask(mask: int) -> int:
        # carries/borrows propagate strictly low -> high
        return ((1 << mask.bit_length()) - 1) & width_mask

    if name == "byte":
        value, index = args
        return support_masks(value, (out_mask & 0xFF) << (8 * index.value),
                             into)
    if name in ("be", "le"):
        return support_masks(args[0], (1 << bits) - 1, into)
    if name == "neg":
        return support_masks(args[0], carry_mask(out_mask & width_mask), into)
    out = out_mask & width_mask
    if name in ("add", "sub", "mul"):
        support_masks(args[0], carry_mask(out), into)
        return support_masks(args[1], carry_mask(out), into)
    if name in ("or", "xor"):
        support_masks(args[0], out, into)
        return support_masks(args[1], out, into)
    if name == "and":
        a, b = args
        a_out = out & (b.value if isinstance(b, Const) else width_mask)
        b_out = out & (a.value if isinstance(a, Const) else width_mask)
        support_masks(a, a_out, into)
        return support_masks(b, b_out, into)
    if name in ("lsh", "rsh", "arsh") and isinstance(args[1], Const):
        shift = args[1].value % bits
        if name == "lsh":
            a_out = (out >> shift) & width_mask
        elif name == "rsh":
            a_out = (out << shift) & width_mask
        else:
            a_out = ((out << shift) | (1 << (bits - 1))) & width_mask
        return support_masks(args[0], a_out, into)
    # div/mod, variable shifts, comparisons: every operand bit matters
    for arg in args:
        support_masks(arg, width_mask, into)
    return into


def _bit_subsets(mask: int):
    """All values whose set bits are a subset of *mask* (2^popcount)."""
    value = 0
    while True:
        yield value
        if value == mask:
            return
        value = (value - mask) & mask


#: exhaustive enumeration budget: product of per-symbol ranges
_EXHAUSTIVE_LIMIT = 1 << 12


def _exhaustive_envs(supports: Dict[Sym, int]):
    """Every semantically distinct assignment, when the narrowed ranges
    multiply out under the budget; None when the space is too large."""
    total = 1
    for mask in supports.values():
        total *= 1 << bin(mask).count("1")
        if total > _EXHAUSTIVE_LIMIT:
            return None
    envs: List[Dict[Sym, int]] = [{}]
    for sym, mask in supports.items():
        envs = [{**env, sym: value}
                for env in envs for value in _bit_subsets(mask)]
    return envs


def prove_equal(a: Expr, b: Expr, seed: int = 0, samples: int = 48,
                narrow: Optional[Dict[Sym, Tnum]] = None,
                ) -> Tuple[str, str, Optional[Dict[Sym, int]]]:
    """Try to prove two terms equal for every input.

    Returns ``(status, method, counterexample)``:

    * ``("proved", "symbolic", None)`` — identical after normalization;
    * ``("proved", "enumeration", None)`` — the supports of both terms
      narrow to a small enough range that every semantically distinct
      assignment was enumerated;
    * ``("refuted", method, env)`` — a concrete assignment on which the
      terms evaluate differently (*method* says what found it);
    * ``("checked", "enumeration", None)`` — no proof, but corner +
      random sampling found no difference either.
    """
    na, nb = normalize_deep(a), normalize_deep(b)
    if na == nb:
        return "proved", "symbolic", None

    # narrowed exhaustive enumeration: bits outside a symbol's combined
    # support mask provably cannot affect either side
    supports = support_masks(na)
    support_masks(nb, into=supports)
    envs = _exhaustive_envs(supports)
    if envs is not None:
        for env in envs:
            if evaluate(na, env) != evaluate(nb, env):
                return "refuted", "enumeration", env
        return "proved", "enumeration", None

    ta, tb = expr_tnum(na, narrow), expr_tnum(nb, narrow)
    tnum_refutes = (ta.value ^ tb.value) & ~ta.mask & ~tb.mask & _U64
    syms = sorted(symbols_of(na) | symbols_of(nb), key=repr)
    for env in sample_envs(syms, seed=seed, count=samples, narrow=narrow):
        if evaluate(na, env) != evaluate(nb, env):
            method = "tnum" if tnum_refutes else "enumeration"
            return "refuted", method, env
    # a tnum disagreement without a separating sample means we distrust
    # the abstraction rather than raise a false alarm
    return "checked", "enumeration", None


def normalize_deep(expr: Expr, _memo: Optional[dict] = None) -> Expr:
    """Bottom-up normalization of a whole term.

    Memoized by node identity: symbolic execution builds heavily shared
    DAGs (a register fed back into itself doubles the *tree* each step
    while the DAG grows by one node), so a naive tree recursion would
    be exponential exactly on the programs worth validating."""
    if not isinstance(expr, Op):
        return expr
    if _memo is None:
        _memo = {}
    hit = _memo.get(id(expr))
    if hit is not None:
        return hit
    out = normalize(Op(expr.op, expr.bits,
                       tuple(normalize_deep(a, _memo) for a in expr.args)))
    _memo[id(expr)] = out
    return out


def render(expr: Expr) -> str:
    """Human-readable rendering for certificates and counterexamples."""
    if isinstance(expr, Const):
        return hex(expr.value)
    if isinstance(expr, Sym):
        name = expr.name
        if isinstance(name, tuple):
            if len(name) == 2 and name[0] == "r":
                return f"r{name[1]}"
            if len(name) == 3 and name[0] == "m":
                return f"mem[{render(name[1])}{signed(name[2], 64):+#x}]"
            return ":".join(str(part) if not isinstance(part, (Op, Sym, Const))
                            else render(part) for part in name)
        return str(name)
    assert isinstance(expr, Op)
    inner = ", ".join(render(a) for a in expr.args)
    suffix = "32" if expr.bits == 32 else ""
    return f"{expr.op}{suffix}({inner})"
