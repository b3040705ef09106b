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

#: one token with the whitespace and comments before it, as the groups
#: (skip, num, name, punct, bad); a match with all four token groups
#: empty is the end of the input.  ``bad`` matches any character, so a
#: match never fails once the skip has taken all it can, and never
#: backtracks into the skip (``/* x */ $`` is an error at ``$``, not a
#: ``/`` token).
_TOKEN_RE = re.compile(
    r"""
    (?P<skip>(?:\s+|//[^\n]*|/\*.*?\*/)*)
    (?:
      (?P<num>0[xX][0-9a-fA-F]+|\d+)
    | (?P<name>[A-Za-z_][A-Za-z0-9_]*)
    | (?P<punct>""" + "|".join(re.escape(p) for p in PUNCTUATION) + r""")
    | (?P<bad>.)
    | \Z
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
    """Every token of *source*, then an ``eof`` token; the regex engine
    splits the whole input in one call."""
    tokens: List[Token] = []
    append = tokens.append
    make = _make_token
    keywords = KEYWORDS
    line = 1
    for skip, num, name, punct, bad in _TOKEN_RE.findall(source):
        if skip and "\n" in skip:  # a token holds no newline
            line += skip.count("\n")
        if punct:
            append(make(("punct", punct, line)))
        elif name:
            append(make(("kw" if name in keywords else "name", name, line)))
        elif num:
            append(make(("num", num, line)))
        elif bad:
            raise LexError(f"line {line}: unexpected character {bad!r}")
        else:
            break
    append(make(("eof", "", line)))
    return tokens
