"""Executable rewriting presentations for combinator and process calculi.

The package provides a generic rewriting core over multisorted terms with a
restricted structural congruence, three marker-disciplined presentations of
the SKI calculus, a reflective higher-order process calculus, a combinator
presentation of it with translations in both directions and a sort
discipline, a bounded barbed-bisimulation checker, and a batch CLI.
"""

from .core import (
    AcuGroup,
    CongruenceSpec,
    ConstructorDecl,
    FuelExhausted,
    InvalidRedex,
    MarkerFloat,
    MetaVar,
    Pattern,
    Presentation,
    Redex,
    RewriteRule,
    Sort,
    Term,
    Trace,
    ValidationReport,
    apply_redex,
    canonicalize,
    congruent,
    find_redexes,
    is_normal,
    match_pattern,
    reduce,
    step,
    validate_presentation,
)

__all__ = [
    "AcuGroup",
    "CongruenceSpec",
    "ConstructorDecl",
    "FuelExhausted",
    "InvalidRedex",
    "MarkerFloat",
    "MetaVar",
    "Pattern",
    "Presentation",
    "Redex",
    "RewriteRule",
    "Sort",
    "Term",
    "Trace",
    "ValidationReport",
    "apply_redex",
    "canonicalize",
    "congruent",
    "find_redexes",
    "is_normal",
    "match_pattern",
    "reduce",
    "step",
    "validate_presentation",
]
