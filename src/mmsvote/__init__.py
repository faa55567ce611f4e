"""Maxi-min-share guarantees for perpetual binary voting.

The package computes fairness shares for sequences of collective yes/no
decisions (adaptive maxi-min share, egalitarian maxi-min share, random
dictator share), runs the decision rules built around them, attacks
online rules with a staged adversary, and audits outcomes for
alpha-share satisfaction with exact rational arithmetic throughout.
"""

from mmsvote.model import (
    CanonicalType,
    ParseError,
    Partition,
    PreferenceMatrix,
    canonicalize,
    parse_matrix,
    type_census,
    utility,
)

__version__ = "0.1.0"

__all__ = [
    "CanonicalType",
    "ParseError",
    "Partition",
    "PreferenceMatrix",
    "canonicalize",
    "parse_matrix",
    "type_census",
    "utility",
    "__version__",
]
