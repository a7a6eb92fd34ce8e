"""The lexer and the application reader and printer the surface syntaxes
share, and their parse errors.

Each grammar lives next to its calculus: `ski.parse_ski` and
`ski.print_ski`, `comb.parse_comb` and `comb.print_comb`, and
`rho.parse_rho`, `rho.print_rho`, `rho.parse_rho_name` and
`rho.print_rho_name`.  Every parser reports errors with line and column, and
printing then reparsing is the identity on syntax trees.  The grammars'
names stay readable here too: the first read of, say, `syntax.parse_rho`
imports `rho` (PEP 562), so importing this module loads no calculus.
"""

from __future__ import annotations

import re
from functools import cache
from importlib import import_module
from itertools import islice
from typing import Callable, Mapping, NoReturn, TypeVar

from .core import ConstructorDecl, Term

_HOMES = {"parse_ski": "ski", "print_ski": "ski", "parse_comb": "comb", "print_comb": "comb",
          "parse_rho": "rho", "print_rho": "rho", "parse_rho_name": "rho", "print_rho_name": "rho"}


def __getattr__(name: str):
    """A grammar's function, looked up in its calculus's module on first read."""
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f"{__package__}.{_HOMES[name]}"), name)
    return value


class ParseError(ValueError):
    def __init__(self, message: str, line: int, column: int) -> None:
        super().__init__(f"{line}:{column}: {message}")
        self.message = message
        self.line = line
        self.column = column


@cache
def _lexer(symbols: tuple[str, ...]) -> tuple[re.Pattern, re.Pattern]:
    """The pattern of one token and the pattern of the longest prefix that
    lexes.  Alternatives are tried in order, so the symbols come first; `\\w`
    is exactly `str.isalnum` or an underscore."""
    token = "|".join(map(re.escape, symbols)) + r"|\w+"
    return re.compile(token), re.compile(rf"(?:\s+|{token})*")


def _error_at(text: str, offset: int, message: str) -> ParseError:
    line = text.count("\n", 0, offset) + 1
    return ParseError(message, line, offset - text.rfind("\n", 0, offset))


class Cursor:
    """The tokens of `text`, read left to right: words of letters, digits and
    underscores, and the grammar's `symbols`, tried in the order given;
    whitespace separates them.  `tokens` holds the token strings and ends
    with ``""`` for the end of input.  A token's line and column are found
    only when an error is raised there."""

    __slots__ = ("text", "tokens", "index", "_pattern")

    def __init__(self, text: str, symbols: tuple[str, ...]) -> None:
        pattern, lexable = _lexer(symbols)
        end = lexable.match(text).end()
        if end < len(text):
            raise _error_at(text, end, f"unexpected character {text[end]!r}")
        self.text = text
        self.tokens = pattern.findall(text)
        self.tokens.append("")
        self.index = 0
        self._pattern = pattern

    def peek(self) -> str:
        return self.tokens[self.index]

    def next(self) -> str:
        tok = self.tokens[self.index]
        self.index += 1
        return tok

    def expect(self, text: str) -> str:
        tok = self.tokens[self.index]
        if tok != text:
            self.fail(f"expected {text!r}, found {tok or 'end of input'!r}")
        self.index += 1
        return tok

    def fail(self, message: str) -> NoReturn:
        """Raise a ParseError at the next token."""
        if self.index == len(self.tokens) - 1:
            offset = len(self.text)
        else:
            offset = next(islice(self._pattern.finditer(self.text), self.index, None)).start()
        raise _error_at(self.text, offset, message)

    def done(self) -> None:
        tok = self.tokens[self.index]
        if tok:
            self.fail(f"unexpected trailing input {tok!r}")


# ---------------------------------------------------------------------------
# fully parenthesized binary applications, read and written on explicit stacks

A = TypeVar("A")

_OPEN = object()  # an open parenthesis whose function is not read yet


def read_applications(text: str, symbols: tuple[str, ...], atoms: Mapping[str, A],
                      app: Callable[[A, A], A], unary: Mapping[str, Callable[[A], A]],
                      not_a_term: Callable[[str], str]) -> A:
    """Read one term of ``t ::= atom | (t t) | (u t)`` from `text`.

    ``(t t)`` builds `app` of function and argument; ``(u t)`` builds
    ``unary[u]`` of its argument.  `not_a_term(token)` is the message raised
    at a token that begins no term.  The open parentheses wait on a stack,
    so nesting is bounded by memory, not by the Python stack.
    """
    cur = Cursor(text, symbols)
    tokens = cur.tokens
    stack: list = []  # per open parenthesis: _OPEN, or (constructor, function or None)
    i = 0
    while True:
        tok = tokens[i]
        if tok == "(":
            i += 1
            u = unary.get(tokens[i])
            if u is None:
                stack.append(_OPEN)
            else:
                i += 1
                stack.append((u, None))
            continue
        term = atoms.get(tok)
        if term is None:
            cur.index = i
            cur.fail(not_a_term(tok))
        i += 1
        while stack:
            top = stack[-1]
            if top is _OPEN:
                stack[-1] = (app, term)
                break
            if tokens[i] != ")":
                cur.index = i
                cur.expect(")")
            i += 1
            stack.pop()
            build, fun = top
            term = build(term) if fun is None else build(fun, term)
        else:
            cur.index = i
            cur.done()
            return term


def write_applications(t: Term, app: ConstructorDecl, unary: tuple[ConstructorDecl, ...] = ()) -> str:
    """The text `read_applications` reads back as `t`: ``(f x)`` for an `app`
    node, ``(u x)`` for a node whose head u is in `unary`, and the head's
    name for any other node.  The arguments still to write wait on an
    explicit stack, each with the number of parentheses that close after it."""
    out: list[str] = []
    emit = out.append
    stack: list = [t, 0]
    push, pop = stack.append, stack.pop
    while stack:
        closing = pop()
        u = pop()
        while u.children:
            if u.head is app:
                u, x = u.children
                emit("(")
                push(x)
                push(closing + 1)
                closing = 0
            elif u.head in unary:
                emit(f"({u.head.name} ")
                (u,) = u.children
                closing += 1
            else:
                break
        emit(u.head.name)
        if closing:
            emit(")" * closing)
        if stack:
            emit(" ")
    return "".join(out)
