"""Executable ultrapower extensions of the naturals.

The package builds a concrete extension of N as sequences modulo a lazy,
deterministic ultrafilter oracle, together with checkers for the defining
laws of such extensions (composition, diagonal, directedness), the
induced Boolean structure on set extensions, n-ary and first-order
transfer, a finite-fragment limit-ultrapower encoding, the star
topology, and a batch CLI that runs scenario suites reproducibly.
"""

from .errors import (
    ConsistencyViolation,
    MalformedIndicator,
    NotRepresentable,
    NotSupported,
    ParseError,
    ReplayMismatch,
    Undecidable,
)
from .funlang import (
    FnExpr,
    IndexPredicate,
    interpret,
    normalize,
    pair,
    parse_definitions,
    parse_fn,
    pretty,
    unpair,
)
from .hyper import Hyperpoint, StarSet, Universe
from .oracle import DecisionLog, OracleConfig, OracleState, replay

__all__ = [
    "ConsistencyViolation",
    "DecisionLog",
    "FnExpr",
    "Hyperpoint",
    "IndexPredicate",
    "MalformedIndicator",
    "NotRepresentable",
    "NotSupported",
    "OracleConfig",
    "OracleState",
    "ParseError",
    "ReplayMismatch",
    "StarSet",
    "Undecidable",
    "Universe",
    "interpret",
    "normalize",
    "pair",
    "parse_definitions",
    "parse_fn",
    "pretty",
    "replay",
    "unpair",
]

__version__ = "0.1.0"
