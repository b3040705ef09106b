"""Recursive-descent parser for the mini-C eBPF language.

Grammar sketch::

    program   := (mapdecl | constdecl | funcdef)*
    mapdecl   := "map" kind NAME "(" type "," type "," expr ")" ";"
    constdecl := "const" NAME "=" expr ";"
    funcdef   := type NAME "(" params? ")" block
    stmt      := vardecl | if | while | for | return | break | continue
               | block | expr ";"
    expr      := assignment with the usual C precedence levels

Casts are written ``(u32*)expr`` or ``(u64)expr``; dereference of a cast
pointer (``*(u16*)(data + 12)``) is the idiomatic packet access.
"""

from __future__ import annotations

from typing import List, Optional, Set

from . import ast_nodes as ast
from .lexer import Token, tokenize

_TYPE_NAMES = {"u8", "u16", "u32", "u64", "void"}

# precedence climbing table: op -> (precedence, right_assoc)
_BINARY_PREC = {
    "||": 1,
    "&&": 2,
    "|": 3,
    "^": 4,
    "&": 5,
    "==": 6, "!=": 6,
    "<": 7, ">": 7, "<=": 7, ">=": 7,
    "<<": 8, ">>": 8,
    "+": 9, "-": 9,
    "*": 10, "/": 10, "%": 10,
}

_ASSIGN_OPS = {"=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<=",
               ">>="}
_PREFIX_OPS = {"-", "!", "~", "*", "&"}
#: ``++x``/``x++`` and ``--``: the compound assignment each stands for
_STEP_OPS = {"++": "+=", "--": "-="}


class ParseError(SyntaxError):
    def __init__(self, token: Token, message: str):
        super().__init__(f"line {token.line}: {message} (near {token.text!r})")
        self.token = token


class Parser:
    def __init__(self, source: str):
        self.tokens = tokenize(source)
        self.pos = 0
        #: names under ``&`` in the function being parsed
        self._address_taken: Set[str] = set()

    # --- plumbing ------------------------------------------------------------
    @property
    def current(self) -> Token:
        return self.tokens[self.pos]

    def peek(self, ahead: int = 1) -> Token:
        index = min(self.pos + ahead, len(self.tokens) - 1)
        return self.tokens[index]

    def advance(self) -> Token:
        token = self.tokens[self.pos]
        if token.kind != "eof":
            self.pos += 1
        return token

    def accept(self, kind: str, text: Optional[str] = None) -> Optional[Token]:
        token = self.tokens[self.pos]
        if token.kind == kind and (text is None or token.text == text):
            if kind != "eof":
                self.pos += 1
            return token
        return None

    def expect(self, kind: str, text: Optional[str] = None) -> Token:
        token = self.accept(kind, text)
        if token is None:
            expected = text if text is not None else kind
            raise ParseError(self.current, f"expected {expected!r}")
        return token

    # --- top level -------------------------------------------------------------
    def parse(self) -> ast.Program:
        program = ast.Program(line=1)
        while self.current.kind != "eof":
            if self.current.kind == "kw" and self.current.text == "map":
                program.maps.append(self._map_decl())
            elif self.current.kind == "kw" and self.current.text == "const":
                program.consts.append(self._const_decl())
            else:
                program.functions.append(self._func_def())
        return program

    def _map_decl(self) -> ast.MapDecl:
        line = self.expect("kw", "map").line
        kind = self.expect("name").text
        if kind not in ("array", "hash", "percpu_array", "lru_hash"):
            raise ParseError(self.current, f"unknown map kind {kind!r}")
        name = self.expect("name").text
        self.expect("punct", "(")
        key_type = self._type()
        self.expect("punct", ",")
        value_type = self._type()
        self.expect("punct", ",")
        entries = self._const_int()
        self.expect("punct", ")")
        self.expect("punct", ";")
        return ast.MapDecl(line=line, kind=kind, name=name, key_type=key_type,
                           value_type=value_type, max_entries=entries)

    def _const_decl(self) -> ast.ConstDecl:
        line = self.expect("kw", "const").line
        name = self.expect("name").text
        self.expect("punct", "=")
        value = self._const_int()
        self.expect("punct", ";")
        return ast.ConstDecl(line=line, name=name, value=value)

    def _const_int(self) -> int:
        negative = bool(self.accept("punct", "-"))
        token = self.expect("num")
        value = int(token.text, 0)
        return -value if negative else value

    def _func_def(self) -> ast.FuncDef:
        self._address_taken = set()
        return_type = self._type()
        name = self.expect("name").text
        self.expect("punct", "(")
        params: List[ast.Param] = []
        if not self.accept("punct", ")"):
            while True:
                ptype = self._type()
                pname = self.expect("name").text
                params.append(ast.Param(type=ptype, name=pname))
                if not self.accept("punct", ","):
                    break
            self.expect("punct", ")")
        body = self._block()
        return ast.FuncDef(return_type=return_type, name=name, params=params,
                           body=body, address_taken=self._address_taken)

    # --- types ---------------------------------------------------------------
    def _looks_like_type(self) -> bool:
        return self.current.kind == "kw" and self.current.text in _TYPE_NAMES

    def _type(self) -> ast.TypeName:
        token = self.expect("kw")
        if token.text not in _TYPE_NAMES:
            raise ParseError(token, f"expected a type, got {token.text!r}")
        depth = 0
        while self.tokens[self.pos].text == "*":
            self.pos += 1
            depth += 1
        return ast.TypeName(line=token.line, base=token.text,
                            pointer_depth=depth)

    # --- statements -------------------------------------------------------------
    def _block(self) -> ast.Block:
        line = self.expect("punct", "{").line
        statements: List[object] = []
        tokens = self.tokens
        while tokens[self.pos].text != "}":
            statements.append(self._statement())
        self.pos += 1
        return ast.Block(line=line, statements=statements)

    def _statement(self):
        token = self.tokens[self.pos]
        if token.kind == "punct" and token.text == "{":
            return self._block()
        if token.kind == "kw":
            if token.text in _TYPE_NAMES:
                return self._var_decl()
            if token.text == "if":
                return self._if()
            if token.text == "while":
                return self._while()
            if token.text == "for":
                return self._for()
            if token.text == "return":
                self.advance()
                value = None
                if not (self.current.kind == "punct" and self.current.text == ";"):
                    value = self._expression()
                self.expect("punct", ";")
                return ast.Return(line=token.line, value=value)
            if token.text == "break":
                self.advance()
                self.expect("punct", ";")
                return ast.Break(line=token.line)
            if token.text == "continue":
                self.advance()
                self.expect("punct", ";")
                return ast.Continue(line=token.line)
        expr = self._expression()
        self.expect("punct", ";")
        return ast.ExprStmt(line=token.line, expr=expr)

    def _var_decl(self) -> ast.VarDecl:
        vtype = self._type()
        name = self.expect("name").text
        array_size = None
        if self.accept("punct", "["):
            array_size = self._const_int()
            self.expect("punct", "]")
        init = None
        if self.accept("punct", "="):
            init = self._expression()
        self.expect("punct", ";")
        return ast.VarDecl(line=vtype.line, type=vtype, name=name, init=init,
                           array_size=array_size)

    def _if(self) -> ast.If:
        line = self.expect("kw", "if").line
        self.expect("punct", "(")
        cond = self._expression()
        self.expect("punct", ")")
        then = self._statement()
        otherwise = None
        if self.accept("kw", "else"):
            otherwise = self._statement()
        return ast.If(line=line, cond=cond, then=then, otherwise=otherwise)

    def _while(self) -> ast.While:
        line = self.expect("kw", "while").line
        self.expect("punct", "(")
        cond = self._expression()
        self.expect("punct", ")")
        body = self._statement()
        return ast.While(line=line, cond=cond, body=body)

    def _for(self) -> ast.For:
        line = self.expect("kw", "for").line
        self.expect("punct", "(")
        init = None
        if not (self.current.kind == "punct" and self.current.text == ";"):
            if self._looks_like_type():
                init = self._var_decl()  # consumes the ';'
            else:
                init = ast.ExprStmt(line=line, expr=self._expression())
                self.expect("punct", ";")
        else:
            self.expect("punct", ";")
        cond = None
        if not (self.current.kind == "punct" and self.current.text == ";"):
            cond = self._expression()
        self.expect("punct", ";")
        step = None
        if not (self.current.kind == "punct" and self.current.text == ")"):
            step = ast.ExprStmt(line=line, expr=self._expression())
        self.expect("punct", ")")
        body = self._statement()
        return ast.For(line=line, init=init, cond=cond, step=step, body=body)

    # --- expressions -------------------------------------------------------------
    # Operators and keywords are told apart by their text alone: no name
    # or number token spells one, and the end token's text is empty.
    def _assignment(self):
        lhs = self._binary(0)
        token = self.tokens[self.pos]
        if token.text == "?":
            lhs = self._conditional_rest(lhs)
            token = self.tokens[self.pos]
        if token.text in _ASSIGN_OPS:
            self.pos += 1
            value = self._assignment()
            return ast.Assign(line=token.line, op=token.text, target=lhs,
                              value=value)
        return lhs

    _expression = _assignment

    def _conditional(self):
        cond = self._binary(0)
        if self.tokens[self.pos].text == "?":
            return self._conditional_rest(cond)
        return cond

    def _conditional_rest(self, cond):
        """``? if_true : if_false`` after *cond*."""
        self.pos += 1
        if_true = self._assignment()
        self.expect("punct", ":")
        if_false = self._conditional()
        return ast.Conditional(line=cond.line, cond=cond, if_true=if_true,
                               if_false=if_false)

    def _binary(self, min_prec: int):
        lhs = self._unary()
        tokens = self.tokens
        while True:
            token = tokens[self.pos]
            prec = _BINARY_PREC.get(token.text)
            if prec is None or prec < min_prec:
                return lhs
            self.pos += 1
            rhs = self._binary(prec + 1)
            lhs = ast.Binary(line=token.line, op=token.text, lhs=lhs, rhs=rhs)

    def _unary(self):
        token = self.tokens[self.pos]
        text = token.text
        if text in _PREFIX_OPS:
            self.pos += 1
            operand = self._unary()
            if text == "&" and isinstance(operand, ast.Name):
                self._address_taken.add(operand.ident)
            return ast.Unary(line=token.line, op=text, operand=operand)
        if text in _STEP_OPS:
            self.pos += 1
            target = self._unary()
            one = ast.Number(line=token.line, value=1)
            return ast.Assign(line=token.line, op=_STEP_OPS[text],
                              target=target, value=one)
        # cast: '(' type ')' unary
        if text == "(" and self.peek().text in _TYPE_NAMES:
            self.pos += 1
            ctype = self._type()
            self.expect("punct", ")")
            value = self._unary()
            return ast.Cast(line=token.line, type=ctype, value=value)
        return self._postfix(self._primary(token))

    def _postfix(self, expr):
        tokens = self.tokens
        while True:
            token = tokens[self.pos]
            text = token.text
            if text == "[":
                self.pos += 1
                index = self._expression()
                self.expect("punct", "]")
                expr = ast.Index(line=getattr(expr, "line", 0), base=expr,
                                 index=index)
            elif text == "->":
                self.pos += 1
                name = self.expect("name").text
                expr = ast.Member(line=getattr(expr, "line", 0), base=expr,
                                  name=name, arrow=True)
            elif text in _STEP_OPS:
                self.pos += 1
                one = ast.Number(line=token.line, value=1)
                expr = ast.Assign(line=token.line, op=_STEP_OPS[text],
                                  target=expr, value=one)
            else:
                return expr

    def _primary(self, token: Token):
        kind = token.kind
        if kind == "name":
            self.pos += 1
            tokens = self.tokens
            if tokens[self.pos].text == "(":
                self.pos += 1
                args: List[object] = []
                if tokens[self.pos].text == ")":
                    self.pos += 1
                else:
                    args.append(self._expression())
                    while tokens[self.pos].text == ",":
                        self.pos += 1
                        args.append(self._expression())
                    self.expect("punct", ")")
                return ast.Call(line=token.line, callee=token.text, args=args)
            return ast.Name(line=token.line, ident=token.text)
        if kind == "num":
            self.pos += 1
            return ast.Number(line=token.line, value=int(token.text, 0))
        if kind == "kw" and token.text == "sizeof":
            self.advance()
            self.expect("punct", "(")
            stype = self._type()
            self.expect("punct", ")")
            sizes = {"u8": 1, "u16": 2, "u32": 4, "u64": 8, "void": 0}
            size = 8 if stype.pointer_depth else sizes[stype.base]
            return ast.Number(line=token.line, value=size)
        if token.text == "(":
            self.advance()
            expr = self._expression()
            self.expect("punct", ")")
            return expr
        raise ParseError(token, "expected an expression")


def parse(source: str) -> ast.Program:
    return Parser(source).parse()
