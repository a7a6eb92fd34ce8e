"""The lexer the three surface syntaxes share, and their parse errors.

Each grammar lives next to its calculus: `ski.parse_ski` and
`ski.print_ski`, `comb.parse_comb` and `comb.print_comb`, and
`rho.parse_rho`, `rho.print_rho`, `rho.parse_rho_name` and
`rho.print_rho_name`.  Every parser reports errors with line and column, and
printing then reparsing is the identity on syntax trees.  The grammars'
names stay readable here too: the first read of, say, `syntax.parse_rho`
imports `rho` (PEP 562), so importing this module loads no calculus.
"""

from __future__ import annotations

from importlib import import_module
from typing import NamedTuple

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


class _Token(NamedTuple):
    kind: str
    text: str
    line: int
    column: int


def _tokenize(text: str, symbols: tuple[str, ...]) -> list[_Token]:
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
            if ch.isalnum() or ch == "_":
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


class Cursor:
    """The tokens of `text`, read left to right: words of letters, digits and
    underscores, and the grammar's `symbols`, tried in the order given."""

    def __init__(self, text: str, symbols: tuple[str, ...]) -> None:
        self.tokens = _tokenize(text, symbols)
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
