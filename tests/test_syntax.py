"""Surface syntax: parsing, printing, round trips, error positions."""

from __future__ import annotations

import random

import pytest

from skirho import comb, rho, ski
from skirho.core import canonicalize
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

from gen import random_process, random_ski_term, random_sorted_comb


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


def test_roundtrip_comb_random():
    rng = random.Random(53)
    for _ in range(200):
        q = random_sorted_comb(rng, 3, 2)
        assert parse_comb(print_comb(q)) == q


def test_print_parse_whitespace_insensitive():
    text = "for(y    <- &0)   ( *y )  |  &0!0"
    p = parse_rho(text)
    assert parse_rho(print_rho(p)) == p
