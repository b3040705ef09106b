"""Lexer for the mini-C eBPF source language."""

from __future__ import annotations

import re
from functools import partial
from typing import List, NamedTuple

KEYWORDS = {
    "u8", "u16", "u32", "u64", "void",
    "if", "else", "while", "for", "return", "break", "continue",
    "map", "const", "struct", "sizeof",
}

# longest-first so "<<=" wins over "<<" and "<"
PUNCTUATION = [
    "<<=", ">>=", "...",
    "==", "!=", "<=", ">=", "&&", "||", "<<", ">>", "+=", "-=", "*=", "/=",
    "%=", "&=", "|=", "^=", "->", "++", "--",
    "+", "-", "*", "/", "%", "=", "<", ">", "!", "~", "&", "|", "^",
    "(", ")", "{", "}", "[", "]", ",", ";", ".", "?", ":",
]

#: one token with the whitespace and comments before it.  The last two
#: alternatives match any character (``bad``) and the end of the input
#: (``eof``), so a match never fails once the skip has taken all it can,
#: and never backtracks into the skip (``/* x */ $`` is an error at
#: ``$``, not a ``/`` token).
_TOKEN_RE = re.compile(
    r"""
    (?:\s+|//[^\n]*|/\*.*?\*/)*
    (?:
      (?P<num>0[xX][0-9a-fA-F]+|\d+)
    | (?P<name>[A-Za-z_][A-Za-z0-9_]*)
    | (?P<punct>""" + "|".join(re.escape(p) for p in PUNCTUATION) + r""")
    | (?P<bad>.)
    | (?P<eof>\Z)
    )
    """,
    re.VERBOSE | re.DOTALL,
)


class LexError(SyntaxError):
    pass


class Token(NamedTuple):
    kind: str  # "num" | "name" | "kw" | "punct" | "eof"
    text: str
    line: int

    def __repr__(self) -> str:
        return f"Token({self.kind}, {self.text!r}, line {self.line})"


#: ``Token`` from a (kind, text, line) tuple, without a Python-level call
_make_token = partial(tuple.__new__, Token)


def tokenize(source: str) -> List[Token]:
    tokens: List[Token] = []
    append = tokens.append
    match = _TOKEN_RE.match
    keywords = KEYWORDS
    pos = 0
    line = 1
    while True:
        found = match(source, pos)
        kind = found.lastgroup
        text = found[kind]
        end = found.end()
        start = end - len(text)
        if start != pos:  # skipped space and comments; a token has no newline
            line += source.count("\n", pos, start)
        if kind == "name":
            if text in keywords:
                kind = "kw"
        elif kind == "bad":
            raise LexError(f"line {line}: unexpected character {text!r}")
        append(_make_token((kind, text, line)))
        if kind == "eof":
            return tokens
        pos = end
