"""Oracle tests for the frontend's fast paths.

Each rewritten piece is checked against the straightforward algorithm
it replaced, kept here as the reference:

* ``tokenize`` against the one-regex-match-per-token lexer with
  dataclass tokens;
* ``Function.next_name`` against a full rescan of the function's names
  on every call (driven through ``compile_source`` and
  ``MerlinPipeline.compile``, whose IR passes name values on parsed
  clones);
* the parser's ``FuncDef.address_taken`` against a walk of the AST.

The corpus is the 19 XDP programs, the first four programs by name of
each suite at scale 0.2 (they include 12k- and 24k-character programs,
where the old ``next_name`` was quadratic) and 100 source-layer fuzz
programs.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import List, Set

import pytest

from repro import ir
from repro.core import MerlinPipeline
from repro.frontend import LexError, compile_source, parse, tokenize
from repro.frontend import ast_nodes as ast
from repro.frontend.lexer import KEYWORDS, PUNCTUATION
from repro.fuzz.generator import generate
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
