"""The semantics of every record class in the package, pinned.

For one instance of each record: its repr, equality with a rebuilt copy
and with a pickled copy, the hash of a hashable record (the hash of its field tuple), that assigning
a field raises AttributeError where the record is immutable, that a `match`
class pattern binds its fields in order, and that it is truthy.  Records of
different classes with equal fields are unequal.
"""

from __future__ import annotations

import pickle

import pytest

from skirho import bisim, calculus, comb, core, rho, ski
from skirho.core import Sort, Term

T = Sort("T")
F = core.ConstructorDecl("f", (T,), T)
A = core.ConstructorDecl("a", (), T)
X = core.MetaVar("x", T)
RULE = core.RewriteRule("r", Term(F, (X,)), X)
GROUP = comb.PRESENTATION.congruence.acu_groups[0]
FLOAT = ski.PRESENTATIONS["whnf"].congruence.marker_floats[0]
QUOTE = rho.Quote(rho.ZERO)

# (instance, its field names in order, its repr, whether it is hashable and immutable)
RECORDS = [
    (T, ("name",), "T", True),
    (F, ("name", "argument_sorts", "result_sort"), "ConstructorDecl('f'/1)", True),
    (X, ("name", "sort"), "?x", True),
    (GROUP, ("app", "operator", "unit"),
     "AcuGroup(app=ConstructorDecl('app'/2), operator=|, unit=0)", True),
    (FLOAT, ("marker", "app"), "MarkerFloat(marker=ConstructorDecl('R'/1), app=ConstructorDecl('app'/2))", True),
    (core.CongruenceSpec((), (FLOAT,)), ("acu_groups", "marker_floats"),
     "CongruenceSpec(acu_groups=(), marker_floats=(MarkerFloat(marker=ConstructorDecl('R'/1), "
     "app=ConstructorDecl('app'/2)),))", True),
    (RULE, ("name", "lhs", "rhs"), "RewriteRule(name='r', lhs=(f ?x), rhs=?x)", True),
    (core.Presentation((T,), (F, A)), ("sorts", "constructors", "congruence", "rules"),
     "Presentation(sorts=(T,), constructors=(ConstructorDecl('f'/1), ConstructorDecl('a'/0)), "
     "congruence=CongruenceSpec(acu_groups=(), marker_floats=()), rules=())", True),
    (core.Redex("r", (0,), {"x": Term(A)}, 1, None), ("rule", "position", "binding", "peel", "rest"),
     "Redex(rule='r', position=(0,), binding={'x': a}, peel=1, rest=None)", False),
    (core.Trace(Term(A), [("r@0", Term(A))], "normal_form"), ("initial", "steps", "status"),
     "Trace(initial=a, steps=[('r@0', a)], status='normal_form')", False),
    (core.ValidationReport(True, []), ("ok", "defects"), "ValidationReport(ok=True, defects=[])", False),
    (core._Flat(GROUP, (Term(A),), (), (X,)), ("group", "needs", "elems", "collectors"),
     "_Flat(group=AcuGroup(app=ConstructorDecl('app'/2), operator=|, unit=0), needs=(a,), elems=(), "
     "collectors=(?x,))", True),
    (core._Rule(RULE, 2, None, None, ("f", 1, 0), ()), ("rule", "bit", "flat", "match", "spine", "floats"),
     "_Rule(rule=RewriteRule(name='r', lhs=(f ?x), rhs=?x), bit=2, flat=None, match=None, "
     "spine=('f', 1, 0), floats=())", True),
    (rho.ZERO, (), "0", True),
    (rho.Input(QUOTE, "y", rho.ZERO), ("subject", "binder", "body"), "for(y <- &0)0", True),
    (rho.Output(QUOTE, rho.ZERO), ("subject", "body"), "&0!0", True),
    (rho.Par(rho.ZERO, rho.Deref(rho.Var("y"))), ("left", "right"), "0 | *y", True),
    (rho.Deref(QUOTE), ("name",), "*&0", True),
    (QUOTE, ("process",), "&0", True),
    (rho.Var("y"), ("ident",), "y", True),
    (comb.ArrowSort(comb.ArrowSort(comb.W, comb.N), comb.SortVar("X")), ("arg", "res"), "(W => N) => 'X", True),
    (comb.SortVar("X"), ("name",), "'X", True),
    (comb.SortScheme(("X",), comb.SortVar("X")), ("quantified", "body"),
     "SortScheme(quantified=('X',), body='X)", True),
    (bisim.WeakBarbs(frozenset({QUOTE}), False), ("names", "truncated"),
     "WeakBarbs(names=frozenset({&0}), truncated=False)", False),
    (bisim.Witness("barb", "left", rho.ZERO, rho.ZERO, 1, QUOTE),
     ("kind", "side", "agent", "partner", "bound", "name", "successor", "inner"),
     "Witness(kind='barb', side='left', agent=0, partner=0, bound=1, name=&0, successor=None, inner=None)",
     False),
    (bisim.BisimVerdict(True, 2), ("bisimilar", "depth", "witness"),
     "BisimVerdict(bisimilar=True, depth=2, witness=None)", False),
    (bisim._Run("calc", ("n",), "moves", {}, {}), ("calc", "names", "successors", "memo", "reach"),
     "_Run(calc='calc', names=('n',), successors='moves', memo={}, reach={})", False),
    (bisim.FaithfulnessReport(True, False, None, None), ("agree", "inconclusive", "calculus", "combinator"),
     "FaithfulnessReport(agree=True, inconclusive=False, calculus=None, combinator=None)", False),
    (calculus.Calculus("parse", "print", "canon", "edges", "key"),
     ("parse", "print", "canon", "edges", "key", "parse_name", "print_name", "canon_name", "names", "barbs", "gas"),
     "Calculus(parse='parse', print='print', canon='canon', edges='edges', key='key', parse_name=None, "
     "print_name=None, canon_name=None, names=None, barbs=None, gas=None)", True),
]

# the records that stay mutable dataclasses
MUTABLE = {core.Trace, bisim.BisimVerdict}

IDS = [type(x).__name__ for x, *_ in RECORDS]


def fields_of(x, names):
    return tuple(getattr(x, n) for n in names)


def test_every_record_class_is_covered():
    assert len(set(IDS)) == len(IDS) == 29


@pytest.mark.parametrize("x, names, text, hashable", RECORDS, ids=IDS)
def test_record_semantics(x, names, text, hashable):
    assert repr(x) == text
    copy = type(x)(*fields_of(x, names))
    assert copy is not x and copy == x and not copy != x
    assert pickle.loads(pickle.dumps(x)) == x
    if hashable:
        assert hash(x) == hash(copy) == hash(fields_of(x, names))
    if type(x) not in MUTABLE:
        for n in names:
            with pytest.raises(AttributeError):
                setattr(copy, n, None)
    assert bool(x) is True


@pytest.mark.parametrize("x, names, text, hashable", RECORDS, ids=IDS)
def test_class_pattern_binds_the_fields_in_order(x, names, text, hashable):
    captures = ", ".join(f"v{i}" for i in range(len(names)))
    scope = {"cls": type(x), "x": x}
    exec(f"match x:\n    case cls({captures}):\n        bound = ({captures}{',' if names else ''})\n"
         f"    case _:\n        bound = None", scope)
    assert scope["bound"] == fields_of(x, names)


def test_records_of_different_classes_with_equal_fields_are_unequal():
    assert Sort("W") != comb.SortVar("W") and not Sort("W") == comb.SortVar("W")
    assert comb.SortVar("W") != Sort("W")
    q = rho.Quote(rho.ZERO)
    for a, b in ((rho.Deref(q), rho.Quote(q)), (rho.Output(q, rho.ZERO), rho.Par(q, rho.ZERO)),
                 (rho.ZERO, ()), (rho.Var("a"), ("a",))):
        assert a != b and not a == b and b != a and not b == a, (a, b)
