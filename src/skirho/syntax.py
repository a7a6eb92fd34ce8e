"""Parsers and printers for the three surface syntaxes.

Combinator terms are fully parenthesized binary applications over atoms.
Process terms use a programmer-friendly notation: ``&P`` quotes, ``*x``
dereferences, ``for(y <- x)P`` receives, ``x!P`` sends, and ``|`` composes
in parallel with the lowest precedence (right associated).  Quotation binds
tighter than ``!``.  Every parser reports errors with line and column, and
printing then reparsing is the identity on syntax trees.
"""

from __future__ import annotations

from typing import NamedTuple

from . import comb, rho, ski
from .core import Term


class ParseError(ValueError):
    def __init__(self, message: str, line: int, column: int) -> None:
        super().__init__(f"{line}:{column}: {message}")
        self.message = message
        self.line = line
        self.column = column


class _Token(NamedTuple):
    kind: str
    text: str
    line: int
    column: int


_RHO_SYMBOLS = ("<-", "(", ")", "!", "|", "*", "&")


def _tokenize(text: str, symbols: tuple[str, ...], idents: bool) -> list[_Token]:
    out: list[_Token] = []
    line, col = 1, 1
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch.isspace():
            col += 1
            i += 1
            continue
        for sym in symbols:
            if text.startswith(sym, i):
                out.append(_Token("sym", sym, line, col))
                i += len(sym)
                col += len(sym)
                break
        else:
            if idents and (ch.isalnum() or ch == "_"):
                j = i
                while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                    j += 1
                word = text[i:j]
                out.append(_Token("word", word, line, col))
                col += j - i
                i = j
            else:
                raise ParseError(f"unexpected character {ch!r}", line, col)
    out.append(_Token("eof", "", line, col))
    return out


class _Cursor:
    def __init__(self, tokens: list[_Token]) -> None:
        self.tokens = tokens
        self.index = 0

    def peek(self) -> _Token:
        return self.tokens[self.index]

    def next(self) -> _Token:
        tok = self.tokens[self.index]
        self.index += 1
        return tok

    def expect(self, text: str) -> _Token:
        tok = self.peek()
        if tok.text != text or tok.kind == "eof":
            raise ParseError(f"expected {text!r}, found {tok.text or 'end of input'!r}",
                             tok.line, tok.column)
        return self.next()

    def fail(self, message: str) -> None:
        tok = self.peek()
        raise ParseError(message, tok.line, tok.column)

    def done(self) -> None:
        tok = self.peek()
        if tok.kind != "eof":
            raise ParseError(f"unexpected trailing input {tok.text!r}", tok.line, tok.column)


# ---------------------------------------------------------------------------
# combinator calculus terms (the applicative languages)


def parse_ski(text: str, variant: str = "plain") -> Term:
    cur = _Cursor(_tokenize(text, ("(", ")"), idents=True))
    result = _ski_term(cur, variant != "plain")
    cur.done()
    return result


def _ski_term(cur: _Cursor, has_marker: bool) -> Term:
    tok = cur.peek()
    if tok.text == "(":
        cur.next()
        head = cur.peek()
        if head.kind == "word" and head.text == "R":
            if not has_marker:
                raise ParseError("R is not a constructor of the plain calculus",
                                 head.line, head.column)
            cur.next()
            inner = _ski_term(cur, has_marker)
            cur.expect(")")
            return ski.R(inner)
        fun = _ski_term(cur, has_marker)
        arg = _ski_term(cur, has_marker)
        cur.expect(")")
        return ski.ap(fun, arg)
    if tok.kind == "word":
        cur.next()
        if tok.text == "S":
            return ski.S()
        if tok.text == "K":
            return ski.K()
        if tok.text == "I":
            return ski.I()
        if tok.text == "R":
            message = ("R must be applied, as in (R t)" if has_marker
                       else "R is not a constructor of the plain calculus")
            raise ParseError(message, tok.line, tok.column)
        raise ParseError(f"unknown combinator {tok.text!r}", tok.line, tok.column)
    cur.fail("expected a term")
    raise AssertionError


def print_ski(t: Term) -> str:
    if t.head is ski.APP_DECL:
        return f"({print_ski(t.children[0])} {print_ski(t.children[1])})"
    if t.head is ski.R_DECL:
        return f"(R {print_ski(t.children[0])})"
    return t.head.name


_COMB_ATOMS = {decl.name: decl for decl in comb.ATOM_DECLS}


def parse_comb(text: str) -> Term:
    cur = _Cursor(_tokenize(text, ("(", ")", "|", "!", "&", "*"), idents=True))
    result = _comb_term(cur)
    cur.done()
    return result


def _comb_term(cur: _Cursor) -> Term:
    tok = cur.peek()
    if tok.text == "(":
        cur.next()
        fun = _comb_term(cur)
        arg = _comb_term(cur)
        cur.expect(")")
        return comb.ap(fun, arg)
    if tok.text in _COMB_ATOMS:
        cur.next()
        return comb.atom(_COMB_ATOMS[tok.text])
    cur.fail(f"expected a combinator atom or '(', found {tok.text or 'end of input'!r}")
    raise AssertionError


def print_comb(t: Term) -> str:
    if t.head is comb.APP_DECL:
        return f"({print_comb(t.children[0])} {print_comb(t.children[1])})"
    return t.head.name


# ---------------------------------------------------------------------------
# process terms


_RHO_KEYWORDS = {"for"}


def parse_rho(text: str) -> rho.Process:
    cur = _Cursor(_tokenize(text, _RHO_SYMBOLS, idents=True))
    result = _rho_proc(cur)
    cur.done()
    return result


def _rho_proc(cur: _Cursor) -> rho.Process:
    parts = [_rho_prefix(cur)]
    while cur.peek().text == "|":
        cur.next()
        parts.append(_rho_prefix(cur))
    out = parts[-1]
    for part in reversed(parts[:-1]):
        out = rho.Par(part, out)
    return out


def _rho_prefix(cur: _Cursor) -> rho.Process:
    tok = cur.peek()
    if tok.text == "&" or (tok.kind == "word" and tok.text not in _RHO_KEYWORDS
                           and tok.text != "0"):
        subject = _rho_name(cur)
        cur.expect("!")
        return rho.Output(subject, _rho_prefix(cur))
    return _rho_primary(cur)


def _rho_primary(cur: _Cursor) -> rho.Process:
    tok = cur.peek()
    if tok.text == "0":
        cur.next()
        return rho.ZERO
    if tok.text == "for":
        cur.next()
        cur.expect("(")
        binder = _rho_ident(cur)
        cur.expect("<-")
        subject = _rho_name(cur)
        cur.expect(")")
        return rho.Input(subject, binder, _rho_prefix(cur))
    if tok.text == "*":
        cur.next()
        return rho.Deref(_rho_name(cur))
    if tok.text == "(":
        cur.next()
        inner = _rho_proc(cur)
        cur.expect(")")
        return inner
    cur.fail(f"expected a process, found {tok.text or 'end of input'!r}")
    raise AssertionError


def _rho_name(cur: _Cursor) -> rho.Name:
    tok = cur.peek()
    if tok.text == "&":
        cur.next()
        return rho.Quote(_rho_primary(cur))
    if tok.kind == "word" and tok.text not in _RHO_KEYWORDS and tok.text != "0":
        cur.next()
        return rho.Var(tok.text)
    cur.fail(f"expected a name, found {tok.text or 'end of input'!r}")
    raise AssertionError


def _rho_ident(cur: _Cursor) -> str:
    tok = cur.peek()
    if tok.kind == "word" and tok.text not in _RHO_KEYWORDS and tok.text != "0":
        cur.next()
        return tok.text
    cur.fail(f"expected an identifier, found {tok.text or 'end of input'!r}")
    raise AssertionError


def print_rho(p: rho.Process) -> str:
    match p:
        case rho.Zero():
            return "0"
        case rho.Par(l, r):
            return f"{_print_rho_prefix(l)} | {print_rho(r)}"
        case _:
            return _print_rho_prefix(p)


def _print_rho_prefix(p: rho.Process) -> str:
    match p:
        case rho.Output(x, body):
            return f"{print_rho_name(x)}!{_print_rho_prefix_arg(body)}"
        case _:
            return _print_rho_primary(p)


def _print_rho_prefix_arg(p: rho.Process) -> str:
    if isinstance(p, rho.Par):
        return f"({print_rho(p)})"
    return _print_rho_prefix(p)


def _print_rho_primary(p: rho.Process) -> str:
    match p:
        case rho.Zero():
            return "0"
        case rho.Input(x, binder, body):
            return f"for({binder} <- {print_rho_name(x)}){_print_rho_prefix_arg(body)}"
        case rho.Deref(x):
            return f"*{print_rho_name(x)}"
        case _:
            return f"({print_rho(p)})"


def print_rho_name(n: rho.Name) -> str:
    match n:
        case rho.Var(v):
            return v
        case rho.Quote(p):
            if isinstance(p, (rho.Zero, rho.Deref, rho.Input)):
                return f"&{_print_rho_primary(p)}"
            return f"&({print_rho(p)})"
    raise TypeError(f"not a name: {n!r}")


def parse_rho_name(text: str) -> rho.Name:
    """Parse a single name literal such as ``&0`` or ``&(a!0 | 0)``."""
    wrapped = parse_rho(f"{text}!0")
    if not isinstance(wrapped, rho.Output) or wrapped.body != rho.ZERO:
        raise ParseError("expected a name literal", 1, 1)
    return wrapped.subject
