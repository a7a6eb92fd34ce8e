"""Surface syntax: parsing, printing, round trips, error positions."""

from __future__ import annotations

import hashlib
import random

import pytest

from skirho import comb, rho, ski
from skirho.core import ConstructorDecl, Term, canonicalize
from skirho.syntax import (
    ParseError,
    parse_comb,
    parse_rho,
    parse_rho_name,
    parse_ski,
    print_comb,
    print_rho,
    print_ski,
)

from gen import random_comm_candidate, random_process, random_ski_term, random_sorted_comb


def test_parse_ski_application_tree():
    t = parse_ski("((S K) K)")
    assert t == ski.ap(ski.ap(ski.S(), ski.K()), ski.K())


def test_parse_rho_example():
    p = parse_rho("for(y <- &0)(*y) | &0!0")
    want = rho.Par(
        rho.Input(rho.Quote(rho.ZERO), "y", rho.Deref(rho.Var("y"))),
        rho.Output(rho.Quote(rho.ZERO), rho.ZERO),
    )
    assert p == want


def test_parse_comb_communication_shape():
    text = "((| ((for (& 0)) (K 0))) ((! (& 0)) 0))"
    t = parse_comb(text)
    forterm = comb.aps(comb.atom(comb.FOR_DECL),
                       comb.ap(comb.atom(comb.AMP_DECL), comb.atom(comb.ZERO_DECL)),
                       comb.ap(comb.atom(comb.K_DECL), comb.atom(comb.ZERO_DECL)))
    outterm = comb.aps(comb.atom(comb.BANG_DECL),
                       comb.ap(comb.atom(comb.AMP_DECL), comb.atom(comb.ZERO_DECL)),
                       comb.atom(comb.ZERO_DECL))
    assert t == comb.aps(comb.atom(comb.PAR_DECL), forterm, outterm)


def test_parse_ski_marker_variants():
    t = parse_ski("((R I) K)", "whnf")
    assert t == ski.ap(ski.R(ski.I()), ski.K())
    with pytest.raises(ParseError):
        parse_ski("((R I) K)", "plain")


def test_parse_errors_carry_positions():
    with pytest.raises(ParseError) as err:
        parse_ski("(S\n  Q)")
    assert err.value.line == 2
    with pytest.raises(ParseError) as err:
        parse_rho("for(y <- &0")
    assert err.value.column == 12
    with pytest.raises(ParseError):
        parse_comb("((| 0)")


def test_parse_rho_precedence():
    # quotation binds tighter than send; parallel is lowest and right associated
    p = parse_rho("&0!0 | &0!0 | 0")
    assert p == rho.Par(rho.Output(rho.Quote(rho.ZERO), rho.ZERO),
                        rho.Par(rho.Output(rho.Quote(rho.ZERO), rho.ZERO), rho.ZERO))
    q = parse_rho("&0!&0!0")
    assert q == rho.Output(rho.Quote(rho.ZERO),
                           rho.Output(rho.Quote(rho.ZERO), rho.ZERO))


def test_parse_rho_name_literals():
    assert parse_rho_name("&0") == rho.Quote(rho.ZERO)
    assert parse_rho_name("&(&0!0)") == rho.Quote(rho.Output(rho.Quote(rho.ZERO), rho.ZERO))
    assert parse_rho_name("&*&0") == rho.Quote(rho.Deref(rho.Quote(rho.ZERO)))
    with pytest.raises(ParseError):
        parse_rho_name("&0!0")


@pytest.mark.parametrize("text, message, line, column", [
    ("0", "expected a name, found '0'", 1, 1),
    ("&0!0", "unexpected trailing input '!'", 1, 3),
    ("x y", "unexpected trailing input 'y'", 1, 3),
    ("&(", "expected a process, found 'end of input'", 1, 3),
    ("*&0", "expected a name, found '*'", 1, 1),
    ("&0 | 0", "unexpected trailing input '|'", 1, 4),
])
def test_a_bad_name_literal_is_reported_against_its_own_text(text, message, line, column):
    with pytest.raises(ParseError) as err:
        parse_rho_name(text)
    assert (err.value.message, err.value.line, err.value.column) == (message, line, column)


_Q0 = rho.Quote(rho.ZERO)
_SEND = rho.Output(_Q0, rho.ZERO)  # &0!0
_PAIR = rho.Par(_SEND, rho.ZERO)  # &0!0 | 0
_RECEIVE = rho.Input(_Q0, "y", rho.Output(rho.Var("y"), rho.ZERO))  # for(y <- &0)y!0


@pytest.mark.parametrize("p, text", [
    (rho.Par(_PAIR, rho.ZERO), "(&0!0 | 0) | 0"),
    (rho.Par(rho.ZERO, _PAIR), "0 | &0!0 | 0"),
    (rho.Output(_Q0, _PAIR), "&0!(&0!0 | 0)"),
    (rho.Input(_Q0, "y", _PAIR), "for(y <- &0)(&0!0 | 0)"),
    (rho.Output(_Q0, _SEND), "&0!&0!0"),
    (rho.Par(rho.Output(_Q0, _SEND), _SEND), "&0!&0!0 | &0!0"),
    (rho.Output(_Q0, _RECEIVE), "&0!for(y <- &0)y!0"),
    (_SEND, "&0!0"),
    (rho.Output(rho.Quote(_SEND), rho.ZERO), "&(&0!0)!0"),
    (rho.Output(rho.Quote(_PAIR), rho.ZERO), "&(&0!0 | 0)!0"),
    (rho.Output(rho.Quote(_RECEIVE), rho.ZERO), "&for(y <- &0)y!0!0"),
    (rho.Output(rho.Quote(rho.Deref(_Q0)), rho.ZERO), "&*&0!0"),
    (rho.Deref(_Q0), "*&0"),
])
def test_print_rho_parenthesizes_by_precedence(p, text):
    # built, not parsed; the last six put each process kind under a quote
    assert print_rho(p) == text
    assert parse_rho(text) == p


def test_roundtrip_ski_random():
    rng = random.Random(50)
    for _ in range(300):
        t = random_ski_term(rng.randint(1, 10), rng)
        assert parse_ski(print_ski(t)) == t


def test_roundtrip_ski_marked():
    rng = random.Random(51)
    whnf = ski.ski_presentation("whnf")
    for _ in range(150):
        t = canonicalize(whnf, ski.R(random_ski_term(rng.randint(1, 8), rng)))
        assert parse_ski(print_ski(t), "whnf") == t


def test_roundtrip_rho_random():
    rng = random.Random(52)
    for _ in range(400):
        p = random_process(rng, 4)
        text = print_rho(p)
        assert parse_rho(text) == p
        # printing is stable across one more cycle
        assert print_rho(parse_rho(text)) == text


def test_a_process_and_its_names_read_back_from_their_repr():
    rng = random.Random(54)
    for i in range(1000):
        p = random_comm_candidate(rng) if i % 2 else random_process(rng, 4)
        assert parse_rho(repr(p)) == p
        for n in rho.all_names(p):
            assert parse_rho_name(repr(n)) == n


def test_a_node_the_grammar_cannot_print_shows_its_fields():
    assert repr(rho.Output(rho.ZERO, rho.ZERO)) == "Output(subject=0, body=0)"


@pytest.mark.parametrize("show, t", [
    (print_comb, ski.R(ski.S())),
    (print_ski, Term(ConstructorDecl("f", (ski.T, ski.T), ski.T), (ski.S(), ski.K()))),
], ids=["comb-R", "ski-f"])
def test_a_node_outside_the_grammar_is_not_printed(show, t):
    # its name alone would read back as a leaf, without its children
    with pytest.raises(TypeError, match=f"headed {t.head.name}"):
        show(t)


def test_roundtrip_comb_random():
    rng = random.Random(53)
    for _ in range(200):
        q = random_sorted_comb(rng, 3, 2)
        assert parse_comb(print_comb(q)) == q


@pytest.mark.parametrize("side", ["left", "right"])
def test_deep_spines_round_trip(side):
    # 3,000 applications deep: past the default recursion limit
    spines = {"ski": (ski.K(), ski.ap, ski.I()), "comb": (comb.atom(comb.ZERO_DECL), comb.ap,
                                                          comb.atom(comb.STAR_DECL))}
    for grammar, (t, ap, x) in spines.items():
        for _ in range(3000):
            t = ap(t, x) if side == "left" else ap(x, t)
        parse, show = (parse_ski, print_ski) if grammar == "ski" else (parse_comb, print_comb)
        text = show(t)
        assert text.count("(") == 3000 and text.endswith(")" * (3000 if side == "right" else 1))
        back = parse(text)
        assert _same_tree(back, t) and show(back) == text
    if side == "right":  # and 3,000 nested markers
        marked = ski.wrap_markers(ski.K(), 3000)
        assert _same_tree(parse_ski(print_ski(marked), "whnf"), marked)


def _same_tree(a, b) -> bool:
    """Term equality on an explicit stack (`Term.__eq__` recurses)."""
    pairs = [(a, b)]
    while pairs:
        a, b = pairs.pop()
        if a.head != b.head or len(a.children) != len(b.children):
            return False
        pairs.extend(zip(a.children, b.children))
    return True


def test_print_parse_whitespace_insensitive():
    text = "for(y    <- &0)   ( *y )  |  &0!0"
    p = parse_rho(text)
    assert parse_rho(print_rho(p)) == p


# ---------------------------------------------------------------------------
# every parse result and every error message and position, pinned

_SPACES = ("", " ", "  ", "\t", "\n", " \n\t", "\xa0", "\u3000")
_NOISE = tuple("()|!&*<-_ \n\t0") + ("é", "β", "Ω", "²", "#", "$", "R", "S", "x", "for", "<-", "\r",
                                     "\xa0", "\u2028", "ｘ")
_IDENTS = ("x", "y0", "u_1", "é", "βeta", "x2", "_", "ｘ")


def _ws(rng: random.Random) -> str:
    return rng.choice(_SPACES)


def _ski_text(rng: random.Random, depth: int, marker: bool) -> str:
    if depth <= 0 or rng.random() < 0.3:
        return rng.choice("SKI")
    if marker and rng.random() < 0.2:
        return f"({_ws(rng)}R {_ski_text(rng, depth - 1, marker)}{_ws(rng)})"
    return (f"({_ws(rng)}{_ski_text(rng, depth - 1, marker)} {_ws(rng)}"
            f"{_ski_text(rng, depth - 1, marker)}{_ws(rng)})")


def _comb_text(rng: random.Random, depth: int) -> str:
    if depth <= 0 or rng.random() < 0.3:
        return rng.choice(("C", "0", "|", "for", "!", "&", "*", "S", "K", "I"))
    return f"({_ws(rng)}{_comb_text(rng, depth - 1)} {_ws(rng)}{_comb_text(rng, depth - 1)}{_ws(rng)})"


def _rho_text(rng: random.Random, depth: int) -> str:
    parts = [_rho_prefix_text(rng, depth) for _ in range(rng.choice((1, 1, 2, 3)))]
    return f"{_ws(rng)}|{_ws(rng)}".join(parts)


def _rho_prefix_text(rng: random.Random, depth: int) -> str:
    if depth > 0 and rng.random() < 0.3:
        return f"{_rho_name_text(rng, depth - 1)}{_ws(rng)}!{_ws(rng)}{_rho_prefix_text(rng, depth - 1)}"
    return _rho_primary_text(rng, depth)


def _rho_primary_text(rng: random.Random, depth: int) -> str:
    kind = rng.choice(("0", "for", "*", "(")) if depth > 0 else "0"
    if kind == "0":
        return "0"
    if kind == "for":
        return (f"for{_ws(rng)}({_ws(rng)}{rng.choice(_IDENTS)} <-{_ws(rng)}"
                f"{_rho_name_text(rng, depth - 1)}){_ws(rng)}{_rho_prefix_text(rng, depth - 1)}")
    if kind == "*":
        return f"*{_ws(rng)}{_rho_name_text(rng, depth - 1)}"
    return f"({_ws(rng)}{_rho_text(rng, depth - 1)}{_ws(rng)})"


def _rho_name_text(rng: random.Random, depth: int) -> str:
    if rng.random() < 0.4:
        return rng.choice(_IDENTS)
    return f"&{_ws(rng)}{_rho_primary_text(rng, depth)}"


def _mutate(rng: random.Random, text: str) -> str:
    for _ in range(rng.randint(1, 3)):
        i = rng.randint(0, len(text))
        op = rng.choice(("delete", "insert", "replace"))
        if op == "insert" or not text[i:]:
            text = text[:i] + rng.choice(_NOISE) + text[i:]
        elif op == "delete":
            text = text[:i] + text[i + 1:]
        else:
            text = text[:i] + rng.choice(_NOISE) + text[i + 1:]
    return text


_GRAMMARS = (
    ("ski", lambda text: parse_ski(text), lambda rng: _ski_text(rng, 5, False)),
    ("ski-whnf", lambda text: parse_ski(text, "whnf"), lambda rng: _ski_text(rng, 5, True)),
    ("comb", parse_comb, lambda rng: _comb_text(rng, 5)),
    ("rho", parse_rho, lambda rng: _rho_text(rng, 4)),
    ("rho-name", parse_rho_name, lambda rng: _rho_name_text(rng, 3)),
)


def _parse_records():
    rng = random.Random(1801)
    for grammar, parse, draw in _GRAMMARS:
        for i in range(900):
            if i % 3 == 0:
                text = draw(rng)
            elif i % 3 == 1:
                text = _mutate(rng, draw(rng))
            else:
                text = "".join(rng.choice(_NOISE) for _ in range(rng.randint(0, 10)))
            try:
                yield repr((grammar, text, "ok", repr(parse(text))))
            except ParseError as err:
                yield repr((grammar, text, "error", err.message, err.line, err.column, str(err)))


def test_parse_results_and_errors_are_pinned():
    # sha256 of 4,500 seeded well-formed, mutated and random inputs over the
    # five grammars, with each parse tree or (message, line, column), as
    # computed by the character-at-a-time lexer and the recursive parsers
    records = list(_parse_records())
    assert sum("'ok'" in r for r in records) > 1000
    digest = hashlib.sha256("\n".join(records).encode()).hexdigest()
    assert digest == "08c58715a98b900398f201d4c2d1dbd2dd2c5bd252292470c2a5870e954ac6b7"
