"""Oracle tests for the frontend's fast paths.

Each rewritten piece is checked against the straightforward algorithm
it replaced, kept here as the reference:

* ``tokenize`` against the one-regex-match-per-token lexer with
  dataclass tokens;
* ``Function.next_name`` against a full rescan of the function's names
  on every call (driven through ``compile_source`` and
  ``MerlinPipeline.compile``, whose IR passes name values on parsed
  clones);
* the parser's ``FuncDef.address_taken`` against a walk of the AST;
* the SSA construction, which builds a phi only where its operands
  differ, against Braun's place-then-erase (:class:`ReferenceSSA`):
  printed text, names and every use list must be the same.

The corpus is the 19 XDP programs, the first four programs by name of
each suite at scale 0.2 (they include 12k- and 24k-character programs,
where the old ``next_name`` was quadratic) and 100 source-layer fuzz
programs; the SSA check adds 100 more fuzz programs, generated ``if``
chains and random nests of loops, ``if``s, ``break`` and ``continue``.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

import pytest

from repro import ir
from repro.core import MerlinPipeline
from repro.frontend import LexError, compile_source, parse, tokenize
from repro.frontend import ast_nodes as ast
from repro.frontend import codegen
from repro.frontend.codegen import CompileError
from repro.frontend.lexer import KEYWORDS, PUNCTUATION
from repro.fuzz.generator import generate
from repro.ir import instructions as iri
from repro.isa import ProgramType
from repro.workloads.suites import TRACE_CTX_SIZE, generate_suite
from repro.workloads.xdp import ALL_XDP, XDP_CTX_SIZE

SUITES = ("sysdig", "tetragon", "tracee")


def _cases():
    """(name, source, entry, prog_type, mcpu, ctx_size) per program."""
    cases = [(w.name, w.source, w.entry, ProgramType.XDP, "v2", XDP_CTX_SIZE)
             for w in ALL_XDP]
    for suite in SUITES:
        programs = sorted(generate_suite(suite, scale=0.2),
                          key=lambda p: p.name)[:4]
        cases += [(p.name, p.source, p.entry, ProgramType.TRACEPOINT, "v3",
                   TRACE_CTX_SIZE) for p in programs]
    return cases


CASES = _cases()
FUZZ_SOURCES = [generate("source", seed).text for seed in range(100)]
SOURCES = [case[1] for case in CASES] + FUZZ_SOURCES


# ------------------------------------------------------------ tokenize
_REFERENCE_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<comment>//[^\n]*|/\*.*?\*/)
  | (?P<num>0[xX][0-9a-fA-F]+|\d+)
  | (?P<name>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<punct>""" + "|".join(re.escape(p) for p in PUNCTUATION) + r""")
    """,
    re.VERBOSE | re.DOTALL,
)


@dataclass(frozen=True)
class _ReferenceToken:
    kind: str
    text: str
    line: int


def reference_tokenize(source: str) -> List[_ReferenceToken]:
    """One regex match per whitespace run and per token."""
    tokens: List[_ReferenceToken] = []
    pos = 0
    line = 1
    while pos < len(source):
        match = _REFERENCE_RE.match(source, pos)
        if match is None:
            raise LexError(
                f"line {line}: unexpected character {source[pos]!r}"
            )
        text = match.group(0)
        kind = match.lastgroup
        if kind == "ws" or kind == "comment":
            line += text.count("\n")
        elif kind == "num":
            tokens.append(_ReferenceToken("num", text, line))
        elif kind == "name":
            if text in KEYWORDS:
                tokens.append(_ReferenceToken("kw", text, line))
            else:
                tokens.append(_ReferenceToken("name", text, line))
        elif kind == "punct":
            tokens.append(_ReferenceToken("punct", text, line))
        pos = match.end()
    tokens.append(_ReferenceToken("eof", "", line))
    return tokens


def _lex(lexer, source: str):
    """Token triples, or the LexError message."""
    try:
        return [(t.kind, t.text, t.line) for t in lexer(source)]
    except LexError as exc:
        return f"LexError: {exc}"


EDGE_CASES = [
    "",
    "   \n\t  ",
    "a /* x\n y\n\n */ b\nc",             # multi-line block comment
    "a // comment at the end",            # no newline after it
    "a\n// only a comment\n",
    "a <<= b << c <<<= d >>= e >> f",     # <<= next to <<
    "0x1F 0XaB 0x 0xg 12 007 0",          # hex numbers
    "a /* unterminated",                  # lexes as / and *
    "a\n\n\n   $ b",                      # bad character after blank lines
    "x = 1; /* c */ @",
    "/* a */\n/* b\n */ \n  `",
    "u64 f(u8* ctx) { return ctx[0] ... 1; }",
    "a\r\nb\x0bc\x0cd",
]


@pytest.mark.parametrize("index", range(len(EDGE_CASES)))
def test_tokenize_matches_reference_on_edge_cases(index):
    source = EDGE_CASES[index]
    assert _lex(tokenize, source) == _lex(reference_tokenize, source)


def test_tokenize_matches_reference_on_the_corpus():
    for source in SOURCES:
        assert _lex(tokenize, source) == _lex(reference_tokenize, source)


def test_bad_character_error_names_its_line():
    with pytest.raises(LexError, match=r"^line 4: unexpected character '\$'$"):
        tokenize("a\n\n\n   $ b")


def test_token_stays_an_immutable_record():
    token = tokenize("x")[0]
    assert (token.kind, token.text, token.line) == ("name", "x", 1)
    assert token == tokenize(" x")[0]
    assert token != tokenize("\nx")[0]                 # line 2
    assert repr(token) == "Token(name, 'x', line 1)"
    with pytest.raises(AttributeError):
        token.line = 2


# ----------------------------------------------------------- next_name
def reference_next_name(func: ir.Function, prefix: str) -> str:
    """The first counter value above the current one that no argument
    and no instruction of *func* is called."""
    used = {arg.name for arg in func.args}
    for block in func.blocks:
        for insn in block.instructions:
            if insn.name:
                used.add(insn.name)
    counter = func._name_counter
    while True:
        counter += 1
        name = f"{prefix}{counter}"
        if name not in used:
            return name


def test_next_name_matches_a_full_rescan(monkeypatch):
    real_next_name = ir.Function.next_name
    answers = []

    def checked(func, prefix=""):
        expected = reference_next_name(func, prefix)
        got = real_next_name(func, prefix)
        answers.append((got, expected))
        return got

    monkeypatch.setattr(ir.Function, "next_name", checked)
    pipeline = MerlinPipeline()
    for name, source, entry, prog_type, mcpu, ctx_size in CASES:
        module = compile_source(source, name)
        pipeline.compile(module.get(entry), module, prog_type=prog_type,
                         mcpu=mcpu, ctx_size=ctx_size)
    mismatches = [pair for pair in answers if pair[0] != pair[1]]
    assert len(answers) > 5000
    assert mismatches == []


def test_taken_names_follow_erase_and_renumber():
    text = """
define i64 @f(i64 %a) {
entry:
  %1 = add i64 %a, 1
  %2 = add i64 %1, 1
  ret i64 %1
}
"""
    func = ir.parse_function(text)
    assert func.next_name() == "3"            # parsed names are taken
    func = ir.parse_function(text)
    func.blocks[0].instructions[1].erase()    # %2, above the counter
    assert reference_next_name(func, "") == func.next_name() == "2"
    func = ir.parse_function(text.replace("%1", "%5").replace("%2", "%7"))
    func.renumber()                           # %5, %7 -> %1, %2
    names = []
    for _ in range(3):
        expected = reference_next_name(func, "")
        names.append(func.next_name())
        assert names[-1] == expected
    assert names == ["3", "4", "5"]


# ------------------------------------------------------- address-taken
def reference_address_taken(body: ast.Block) -> Set[str]:
    """Every ``&name`` under *body*, by a walk of the dataclass fields."""
    taken: Set[str] = set()

    def visit(node) -> None:
        if isinstance(node, ast.Unary) and node.op == "&" and \
                isinstance(node.operand, ast.Name):
            taken.add(node.operand.ident)
        for field_name in getattr(node, "__dataclass_fields__", {}):
            child = getattr(node, field_name)
            if isinstance(child, list):
                for item in child:
                    if hasattr(item, "__dataclass_fields__"):
                        visit(item)
            elif hasattr(child, "__dataclass_fields__"):
                visit(child)

    visit(body)
    return taken


def test_parser_records_what_a_walk_finds():
    extra = ["""
u64 helper(u64* out) { u64 t = 1; u64* p = &t; *out = *p; return t; }
u64 f(u8* ctx) { u64 a = 0; u64 b = helper(&a); u64 c = &(a) + 0;
                 return a + b; }
"""]
    functions = 0
    for source in SOURCES + extra:
        for func_def in parse(source).functions:
            functions += 1
            assert func_def.address_taken == \
                reference_address_taken(func_def.body), func_def.name
    assert functions >= len(SOURCES)


# ----------------------------------------------------------------- SSA
class ReferenceSSA:
    """Braun et al.'s on-the-fly SSA construction as first written:
    place a phi at every sealed merge a read reaches, read its operands
    recursively, then erase it if it is trivial."""

    def __init__(self, func: ir.Function):
        self.func = func
        self.defs: Dict[Tuple[str, ir.BasicBlock], ir.Value] = {}
        self.types: Dict[str, ir.Type] = {}
        self.sealed: Set[ir.BasicBlock] = set()
        self.incomplete: Dict[ir.BasicBlock, Dict[str, iri.Phi]] = {}
        self.preds: Dict[ir.BasicBlock, List[ir.BasicBlock]] = {}
        self.phi_sites: Dict[iri.Phi, List[Tuple[str, ir.BasicBlock]]] = {}

    def add_edge(self, pred: ir.BasicBlock, succ: ir.BasicBlock) -> None:
        self.preds.setdefault(succ, []).append(pred)

    def write(self, var: str, block: ir.BasicBlock, value: ir.Value) -> None:
        key = (var, block)
        self.defs[key] = value
        if isinstance(value, iri.Phi):
            self.phi_sites.setdefault(value, []).append(key)

    def read(self, var: str, block: ir.BasicBlock, line: int) -> ir.Value:
        ty = self.types.get(var)
        if ty is None and (var, block) not in self.defs:
            raise CompileError(line, f"use of undeclared variable {var!r}")
        chain: List[ir.BasicBlock] = []
        current = block
        while True:
            if (var, current) in self.defs:
                value = self.defs[(var, current)]
                break
            if current not in self.sealed:
                phi = self._place_phi(current, ty)
                self.incomplete.setdefault(current, {})[var] = phi
                value = phi
                self.write(var, current, value)
                break
            preds = self.preds.get(current, [])
            if len(preds) == 1:
                chain.append(current)
                current = preds[0]
                continue
            if not preds:
                raise CompileError(
                    line, f"variable {var!r} may be used uninitialized"
                )
            phi = self._place_phi(current, ty)
            self.write(var, current, phi)
            value = self._add_phi_operands(var, phi, current, line)
            break
        for visited in chain:
            self.write(var, visited, value)
        return value

    def _place_phi(self, block: ir.BasicBlock, ty: ir.Type) -> iri.Phi:
        phi = iri.Phi(ty, self.func.next_name())
        block.insert(len(block.phis()), phi)
        return phi

    def _add_phi_operands(self, var: str, phi: iri.Phi, block: ir.BasicBlock,
                          line: int) -> ir.Value:
        for pred in self.preds.get(block, []):
            phi.add_incoming(self.read(var, pred, line), pred)
        return self._try_remove_trivial(phi)

    def _try_remove_trivial(self, phi: iri.Phi) -> ir.Value:
        same: Optional[ir.Value] = None
        for value, _ in phi.incoming():
            if value is phi or value is same:
                continue
            if same is not None:
                return phi
            same = value
        if same is None:
            return phi
        users = [u for u in phi.uses if u is not phi]
        phi.replace_all_uses_with(same)
        for var, block in self.phi_sites.pop(phi, ()):
            if self.defs[(var, block)] is phi:
                self.write(var, block, same)
        phi.erase()
        for user in users:
            if isinstance(user, iri.Phi):
                self._try_remove_trivial(user)
        return same

    def seal(self, block: ir.BasicBlock) -> None:
        for var, phi in self.incomplete.pop(block, {}).items():
            self._add_phi_operands(var, phi, block, 0)
        self.sealed.add(block)


def _snapshot(source: str):
    """Printed text plus every value's users, or the compile error."""
    try:
        module = compile_source(source, "m")
    except CompileError as exc:
        return f"CompileError: {exc}"
    lines = [ir.print_module(module)]
    for func in module:
        where = {}
        for block in func.blocks:
            for index, insn in enumerate(block.instructions):
                where[id(insn)] = (block.name, index)
        values = [*func.args, *func.instructions()]
        seen = {id(value) for value in values}
        for insn in func.instructions():
            for operand in insn.operands:
                if id(operand) not in seen:
                    seen.add(id(operand))
                    values.append(operand)
        for value in values:
            lines.append(f"{value.ref}: "
                         f"{[where.get(id(user)) for user in value.uses]}")
    return lines


def _agrees_with_reference(monkeypatch, source: str) -> bool:
    with monkeypatch.context() as patch:
        patch.setattr(codegen, "_SSA", ReferenceSSA)
        expected = _snapshot(source)
    return _snapshot(source) == expected


def _if_chain(n: int, shape: str) -> str:
    """*n* ``if``s over ``x`` and ``y``, then reads of both."""
    body = []
    for i in range(n):
        if shape == "write":
            body.append(f"if (c > {i}) {{ x = {i}; }}")
        elif shape == "read":
            body.append(f"if (c > {i}) {{ y = y + x; }}")
        elif shape == "nested":
            body.append(f"if (c > {i}) {{ if (c < {i + 7}) {{ x = x + {i}; }}"
                        f" else {{ y = {i}; }} }}")
        else:  # inside a loop, with early exits
            body.append(f"if (c > {i}) {{ y = y + 1; }}")
            if i % 5 == 4:
                body.append(f"if (y == {i}) {{ break; }}")
            if i % 7 == 6:
                body.append(f"if (x == {i}) {{ continue; }}")
    text = "\n        ".join(body)
    if shape == "loop":
        text = f"for (u64 i = 0; i < 4; i += 1) {{\n        {text}\n    }}"
    return f"""
u64 f(u8* ctx) {{
    u64 c = *(u64*)(ctx + 0);
    u64 x = 1;
    u64 y = 2;
    u64 z = 3;
    {text}
    return x + y + z;
}}
"""


def _random_nest(seed: int) -> str:
    """Loops, ``if``s, ``break``, ``continue``, ``&&`` and an inlined
    call with early returns, nested at random over four variables."""
    rng = random.Random(seed)
    names = ["a", "b", "c", "d"]
    counter = [0]

    def expr() -> str:
        pick = rng.choice(names + ["n", str(rng.randrange(9))])
        return f"{pick} + {rng.choice(names)}" if rng.random() < 0.4 else pick

    def cond() -> str:
        text = f"{rng.choice(names)} > {rng.randrange(9)}"
        if rng.random() < 0.2:
            text += f" && {rng.choice(names)} != {rng.randrange(9)}"
        return text

    def block(depth: int, in_loop: bool) -> List[str]:
        out = []
        for _ in range(rng.randrange(1, 5)):
            roll = rng.random()
            if roll < 0.3:
                out.append(f"{rng.choice(names)} = {expr()};")
            elif roll < 0.45:
                out.append(f"n = n + {rng.choice(names)};")
            elif roll < 0.65 and depth < 4:
                out.append(f"if ({cond()}) {{")
                out += block(depth + 1, in_loop)
                if rng.random() < 0.4:
                    out.append("} else {")
                    out += block(depth + 1, in_loop)
                out.append("}")
            elif roll < 0.8 and depth < 3:
                counter[0] += 1
                i = f"i{counter[0]}"
                if rng.random() < 0.5:
                    out.append(f"for (u64 {i} = 0; {i} < 3; {i} += 1) {{")
                    out += block(depth + 1, True)
                    out.append("}")
                else:
                    out.append(f"u64 {i} = 0;")
                    out.append(f"while ({i} < 3) {{")
                    out.append(f"{i} = {i} + 1;")
                    out += block(depth + 1, True)
                    out.append("}")
            elif roll < 0.87 and in_loop:
                out.append(f"if ({cond()}) {{ break; }}")
            elif roll < 0.94 and in_loop:
                out.append(f"if ({cond()}) {{ continue; }}")
            else:
                out.append(f"{rng.choice(names)} = pick({expr()}, "
                           f"{rng.choice(names)});")
        return out

    body = "\n    ".join(block(0, False))
    return f"""
u64 pick(u64 p, u64 q) {{
    if (p > q) {{ return p; }}
    if (q > 5) {{ return q + 1; }}
    return 0;
}}
u64 f(u8* ctx) {{
    u64 a = *(u64*)(ctx + 0);
    u64 b = 1;
    u64 c = 2;
    u64 d = a + 3;
    u64 n = 0;
    {body}
    return a + b + c + d + n;
}}
"""


def test_ssa_matches_braun_on_the_corpus(monkeypatch):
    extra_fuzz = [generate("source", seed).text for seed in range(100, 200)]
    for source in SOURCES + extra_fuzz:
        assert _agrees_with_reference(monkeypatch, source)


@pytest.mark.parametrize("shape", ["write", "read", "nested", "loop"])
def test_ssa_matches_braun_on_if_chains(monkeypatch, shape):
    for n in (1, 2, 3, 8, 40):
        assert _agrees_with_reference(monkeypatch, _if_chain(n, shape)), n


def test_ssa_matches_braun_on_random_nests(monkeypatch):
    # seed 461 needs a phi built late to sit in one use list twice, with
    # a phi built meanwhile between its two entries
    for seed in range(500):
        assert _agrees_with_reference(monkeypatch, _random_nest(seed)), seed
