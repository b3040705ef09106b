"""Random-but-valid program generation at three entry layers.

The fuzzer feeds the optimizer through every door it has:

* ``source`` — mini-C programs with bounded loops, branches, map
  helper calls, and mixed-width ctx loads (the frontend + IR + codegen
  + bytecode tiers all run);
* ``ir`` — IR modules built with :class:`repro.ir.IRBuilder` and
  round-tripped through the textual IR (IR passes + codegen + bytecode
  tiers run);
* ``bytecode`` — raw assembly text (bytecode tier only), including
  adjacent constant stores that bait the superword merger.

Every generated program is *text* in the layer's surface syntax, so a
program can be rebuilt from scratch for every pass configuration (IR
passes mutate their input) and shrunk line-wise by the minimizer.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Sequence, Tuple

from .. import ir
from ..isa import ProgramType

LAYERS = ("source", "ir", "bytecode")

_WIDTHS = (1, 2, 4, 8)
_TYPE_BY_WIDTH = {1: "u8", 2: "u16", 4: "u32", 8: "u64"}


@dataclass
class GeneratedProgram:
    """One fuzz input: a program in the surface syntax of its layer."""

    layer: str
    name: str  # entry function name (unused for bytecode)
    text: str
    seed: int
    prog_type: ProgramType = ProgramType.TRACEPOINT
    ctx_size: int = 64
    mcpu: str = "v2"

    @property
    def statements(self) -> int:
        return count_statements(self.layer, self.text)

    def replace_text(self, text: str) -> "GeneratedProgram":
        return GeneratedProgram(self.layer, self.name, text, self.seed,
                                self.prog_type, self.ctx_size, self.mcpu)


def count_statements(layer: str, text: str) -> int:
    """Reproducer size metric: executable statements, not lines."""
    count = 0
    for raw in text.splitlines():
        line = raw.split(";")[0] if layer == "bytecode" else raw
        line = line.split("//")[0].strip()
        if not line or line in ("{", "}", "} else {"):
            continue
        if layer == "bytecode":
            if not line.endswith(":"):  # labels are free
                count += 1
        elif layer == "ir":
            if not (line.startswith("define") or line.endswith(":")
                    or line == "}"):
                count += 1
        else:  # source
            if line.endswith(";") or line.split("(")[0].strip() in (
                    "if", "for", "while"):
                count += 1
    return count


# ----------------------------------------------------------------------
# mini-C source layer
# ----------------------------------------------------------------------
class SourceGenerator:
    """Random mini-C: loops, branches, maps, mixed-width ctx loads."""

    def __init__(self, seed: int, map_bias: float = 0.6,
                 store_pair_bias: float = 0.25):
        self.seed = seed
        self.rng = random.Random(seed)
        self.map_bias = map_bias
        self.store_pair_bias = store_pair_bias

    # -- expressions ---------------------------------------------------
    def _operand(self, scalars: Sequence[str], extra: Sequence[str] = ()) -> str:
        rng = self.rng
        pool = list(scalars) + list(extra)
        if pool and rng.random() < 0.75:
            return f"(u64){rng.choice(pool)}"
        return str(rng.randrange(1, 1 << 16))

    def _expr(self, scalars: Sequence[str], extra: Sequence[str] = ()) -> str:
        rng = self.rng
        a = self._operand(scalars, extra)
        if rng.random() < 0.3:
            return a
        op = rng.choice(["+", "-", "*", "&", "|", "^", "<<", ">>", "/", "%"])
        if op in ("<<", ">>"):
            b = str(rng.randrange(0, 8))
        elif op in ("/", "%"):
            b = str(rng.choice([3, 5, 7, 9, 13, 251]))
        else:
            b = self._operand(scalars, extra)
        return f"({a} {op} {b})"

    # -- statements ----------------------------------------------------
    def generate(self) -> GeneratedProgram:
        rng = self.rng
        header: List[str] = []
        maps: List[Tuple[str, int]] = []
        if rng.random() < self.map_bias:
            for m in range(rng.choice([1, 1, 2])):
                entries = rng.choice([4, 8, 16])
                kind = "array" if rng.random() < 0.7 else "hash"
                header.append(f"map {kind} m{m}(u32, u64, {entries});")
                maps.append((f"m{m}", entries))

        body: List[str] = ["    u64 acc = 0;"]
        scalars: List[str] = ["acc"]
        counter = [0]

        def fresh(prefix: str = "v") -> str:
            counter[0] += 1
            return f"{prefix}{counter[0]}"

        loops_left = 2
        for _ in range(rng.randrange(5, 14)):
            roll = rng.random()
            if roll < 0.22:
                # mixed-width ctx load
                width = rng.choice(_WIDTHS)
                ty = _TYPE_BY_WIDTH[width]
                off = width * rng.randrange(0, 64 // width)
                if off + width > 64:
                    off = 64 - width
                name = fresh()
                body.append(f"    {ty} {name} = *({ty}*)(ctx + {off});")
                scalars.append(name)
            elif roll < 0.45:
                width = rng.choice((4, 8))
                ty = _TYPE_BY_WIDTH[width]
                name = fresh()
                body.append(
                    f"    {ty} {name} = ({ty})"
                    f"{self._expr(scalars)};")
                scalars.append(name)
            elif roll < 0.55:
                a = self._operand(scalars)
                c = rng.randrange(0, 1 << 12)
                name = fresh()
                body.append(
                    f"    u64 {name} = ({a} > {c} ? {self._operand(scalars)}"
                    f" : {self._operand(scalars)});")
                scalars.append(name)
            elif roll < 0.68:
                body.append(
                    f"    if ({self._operand(scalars)} "
                    f"{rng.choice(['<', '>', '==', '!=', '<=', '>='])} "
                    f"{self._operand(scalars)}) {{")
                body.append(f"        acc ^= {self._expr(scalars)};")
                if rng.random() < 0.5:
                    body.append("    } else {")
                    body.append(f"        acc += {self._expr(scalars)};")
                body.append("    }")
            elif roll < 0.78 and loops_left:
                loops_left -= 1
                i = fresh("i")
                trip = rng.randrange(2, 9)
                body.append(
                    f"    for (u64 {i} = 0; {i} < {trip}; {i} += 1) {{")
                body.append(
                    f"        acc += {self._expr(scalars, extra=[i])};")
                body.append("    }")
            elif roll < 0.9 and maps:
                self._map_block(body, scalars, maps, fresh)
            elif maps and rng.random() < self.store_pair_bias * 4:
                self._store_pair_block(body, scalars, maps, fresh)
            else:
                body.append(f"    acc ^= {self._expr(scalars)};")

        tail = " ^ ".join(f"(u64){v}" for v in scalars[-5:])
        body.append(f"    return acc ^ {tail};")

        lines = header + ["u64 f(u8* ctx) {"] + body + ["}"]
        return GeneratedProgram("source", "f", "\n".join(lines), self.seed)

    def _map_block(self, body: List[str], scalars: List[str],
                   maps: Sequence[Tuple[str, int]], fresh) -> None:
        rng = self.rng
        map_name, entries = rng.choice(maps)
        key = fresh("k")
        ptr = fresh("p")
        body.append(
            f"    u32 {key} = (u32){self._expr(scalars)} & {entries - 1};")
        body.append(f"    u64* {ptr} = map_lookup({map_name}, &{key});")
        body.append(f"    if ({ptr} != 0) {{")
        body.append(f"        acc ^= *{ptr};")
        if rng.random() < 0.5:
            body.append(f"        *{ptr} += {self._expr(scalars)};")
        body.append("    }")
        if rng.random() < 0.4:
            val = fresh("t")  # not "u": u8/u16/... are type keywords
            body.append(f"    u64 {val} = {self._expr(scalars)};")
            body.append(
                f"    map_update({map_name}, &{key}, &{val}, BPF_ANY);")

    def _store_pair_block(self, body: List[str], scalars: List[str],
                          maps: Sequence[Tuple[str, int]], fresh) -> None:
        """Two adjacent address-taken constant u32 locals: after the
        store-immediate fold these become adjacent constant stack stores
        — prime superword-merge territory."""
        rng = self.rng
        map_name, entries = rng.choice(maps)
        a, b = fresh("s"), fresh("s")
        pa, pb = fresh("q"), fresh("q")
        body.append(f"    u32 {a} = {rng.randrange(0, entries)};")
        body.append(f"    u32 {b} = {rng.randrange(0, entries)};")
        body.append(f"    u64* {pa} = map_lookup({map_name}, &{a});")
        body.append(f"    if ({pa} != 0) {{")
        body.append(f"        acc += *{pa};")
        body.append("    }")
        body.append(f"    u64* {pb} = map_lookup({map_name}, &{b});")
        body.append(f"    if ({pb} != 0) {{")
        body.append(f"        acc ^= *{pb};")
        body.append("    }")


# ----------------------------------------------------------------------
# IR layer
# ----------------------------------------------------------------------
class IRGenerator:
    """Random IR built with the builder, serialized via the printer so
    every fuzz run also round-trips the textual IR."""

    def __init__(self, seed: int):
        self.seed = seed
        self.rng = random.Random(seed)

    def generate(self) -> GeneratedProgram:
        rng = self.rng
        func = ir.Function("f", ir.I64, [ir.pointer(ir.I8)], ["ctx"])
        entry = func.add_block("entry")
        b = ir.IRBuilder()
        b.position_at_end(entry)
        ctx = func.args[0]

        vals: List[ir.Value] = []
        for _ in range(rng.randrange(2, 5)):
            width = rng.choice(_WIDTHS)
            off = width * rng.randrange(0, 64 // width)
            ptr = b.gep_const(ctx, off, ir.int_type(width * 8))
            loaded = b.load(ptr, align=width)
            vals.append(loaded if width == 8 else b.zext(loaded, ir.I64))

        acc = vals[0]
        for _ in range(rng.randrange(3, 9)):
            a = rng.choice(vals)
            c = rng.choice(vals + [b.i64(rng.randrange(1, 1 << 16))])
            roll = rng.random()
            if roll < 0.5:
                v = b.binop(rng.choice(["add", "sub", "mul", "and", "or",
                                        "xor"]), a, c)
            elif roll < 0.65:
                shift = b.i64(rng.randrange(0, 8))
                v = b.shl(a, shift) if rng.random() < 0.5 else b.lshr(a, shift)
            elif roll < 0.8:
                divisor = b.i64(rng.choice([3, 5, 7, 9, 13]))
                v = b.udiv(a, divisor) if rng.random() < 0.5 \
                    else b.urem(a, divisor)
            else:
                cond = b.icmp(rng.choice(["eq", "ne", "ult", "ugt", "ule",
                                          "uge"]), a, c)
                v = b.select(cond, a, c)
            vals.append(v)
            acc = b.xor(acc, v)

        if rng.random() < 0.6:
            # one diamond so phi lowering and block layout are exercised
            cond = b.icmp("ugt", acc, b.i64(rng.randrange(1 << 12)))
            then_bb = func.add_block("then")
            else_bb = func.add_block("otherwise")
            join_bb = func.add_block("join")
            b.cbr(cond, then_bb, else_bb)
            b.position_at_end(then_bb)
            t_val = b.add(acc, rng.choice(vals))
            b.br(join_bb)
            b.position_at_end(else_bb)
            f_val = b.xor(acc, b.i64(rng.randrange(1, 1 << 16)))
            b.br(join_bb)
            b.position_at_end(join_bb)
            phi = b.phi(ir.I64)
            phi.add_incoming(t_val, then_bb)
            phi.add_incoming(f_val, else_bb)
            acc = phi
        b.ret(acc)
        return GeneratedProgram("ir", "f", ir.print_function(func), self.seed)


# ----------------------------------------------------------------------
# raw bytecode layer
# ----------------------------------------------------------------------
class BytecodeGenerator:
    """Random assembly: ctx loads, ALU runs, stack traffic (including
    mergeable constant-store pairs), and forward branches."""

    _ALU_OPS = ("+=", "-=", "*=", "&=", "|=", "^=")
    _CMP_OPS = ("==", "!=", ">", ">=", "<", "<=")

    def __init__(self, seed: int, store_pair_bias: float = 0.35):
        self.seed = seed
        self.rng = random.Random(seed)
        self.store_pair_bias = store_pair_bias

    def _mem(self, size: int, off: int) -> str:
        assert off < 0
        return f"*(u{size * 8} *)(r10 - {-off})"

    def generate(self) -> GeneratedProgram:
        rng = self.rng
        lines: List[str] = []
        avail: List[int] = []
        next_reg = 2

        def claim() -> int:
            nonlocal next_reg
            if next_reg <= 9:
                reg = next_reg
                next_reg += 1
                return reg
            return rng.choice(avail)

        for _ in range(rng.randrange(2, 5)):
            width = rng.choice(_WIDTHS)
            off = width * rng.randrange(0, 64 // width)
            reg = claim()
            lines.append(f"r{reg} = *(u{width * 8} *)(r1 + {off})")
            if reg not in avail:
                avail.append(reg)

        for group in range(rng.randrange(3, 8)):
            roll = rng.random()
            if roll < self.store_pair_bias:
                # adjacent constant stores + merged-width reload
                size = rng.choice((1, 2, 4))
                span = 2 * size
                base = -span * rng.randrange(1, 64 // span + 1)
                limit = 1 << min(size * 8, 15)
                lines.append(
                    f"{self._mem(size, base)} = {rng.randrange(limit)}")
                lines.append(
                    f"{self._mem(size, base + size)} = {rng.randrange(limit)}")
                reg = claim()
                lines.append(f"r{reg} = {self._mem(span, base)}")
                if reg not in avail:
                    avail.append(reg)
            elif roll < 0.5:
                # register store + reload
                size = rng.choice(_WIDTHS)
                off = -size * rng.randrange(1, 64 // size + 1)
                lines.append(
                    f"{self._mem(size, off)} = r{rng.choice(avail)}")
                reg = claim()
                lines.append(f"r{reg} = {self._mem(size, off)}")
                if reg not in avail:
                    avail.append(reg)
            elif roll < 0.8:
                for _ in range(rng.randrange(1, 4)):
                    dst = rng.choice(avail)
                    op = rng.choice(self._ALU_OPS + ("<<=", ">>=", "/=", "%="))
                    if op in ("<<=", ">>="):
                        rhs = str(rng.randrange(0, 32))
                    elif op in ("/=", "%="):
                        rhs = str(rng.choice([3, 5, 7, 13, 251]))
                    elif rng.random() < 0.5:
                        rhs = f"r{rng.choice(avail)}"
                    else:
                        rhs = str(rng.randrange(1, 1 << 15))
                    lines.append(f"r{dst} {op} {rhs}")
            else:
                # forward branch over mutations of already-live regs
                label = f"L{group}"
                lines.append(
                    f"if r{rng.choice(avail)} {rng.choice(self._CMP_OPS)} "
                    f"{rng.randrange(0, 1 << 12)} goto {label}")
                for _ in range(rng.randrange(1, 3)):
                    dst = rng.choice(avail)
                    lines.append(
                        f"r{dst} {rng.choice(self._ALU_OPS)} "
                        f"r{rng.choice(avail)}")
                lines.append(f"{label}:")

        lines.append(f"r0 = r{avail[0]}")
        for reg in avail[1:]:
            lines.append(f"r0 ^= r{reg}")
        lines.append("exit")
        return GeneratedProgram("bytecode", "fuzz_bc", "\n".join(lines),
                                self.seed)


def generate(layer: str, seed: int, **kwargs) -> GeneratedProgram:
    """Generate one program at *layer* from *seed* (deterministic)."""
    if layer == "source":
        return SourceGenerator(seed, **kwargs).generate()
    if layer == "ir":
        return IRGenerator(seed, **kwargs).generate()
    if layer == "bytecode":
        return BytecodeGenerator(seed, **kwargs).generate()
    raise ValueError(f"unknown fuzz layer {layer!r} (expected {LAYERS})")
