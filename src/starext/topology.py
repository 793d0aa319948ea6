"""Basic closed sets of the star topology and their membership checks.

A basic closed set is described by finitely many (function, point) pairs;
a point belongs to it when at least one listed function maps it to the
corresponding target. These sets generate the coarsest T1 topology
making every starred function continuous: the preimage of a basic closed
set under a starred function is again basic, by composing the listed
functions, and that identity is checkable per point.

The density check ``covers_standard`` handles the sets with standard
targets: when the listed preimages cover the base sample up to the
horizon, the set provably contains every point of the extension, which
the caller can sweep-check.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import Undecidable
import numpy as np

from .funlang import Compose, Const, FnExpr, eval_vec, pretty
from .hyper import Hyperpoint, Universe


@dataclass(frozen=True)
class BasicClosed:
    """Finite union of fibers: the points some listed function sends to
    the matching target."""

    pairs: tuple[tuple[FnExpr, Hyperpoint], ...]

    def __repr__(self) -> str:
        inner = ", ".join(f"({pretty(f)}, {p!r})" for f, p in self.pairs)
        return f"BasicClosed[{inner}]"

    def with_pair(self, f: FnExpr, target: Hyperpoint) -> "BasicClosed":
        return BasicClosed(self.pairs + ((f, target),))


def closed_member(u: Universe, xi: Hyperpoint, closed: BasicClosed) -> bool:
    """Disjunction over the listed pairs of one star-equality each."""
    pending: Undecidable | None = None
    for f, target in closed.pairs:
        try:
            if u.eq(u.star_apply(f, xi), target):
                return True
        except Undecidable as exc:
            # kept without its traceback, whose frames refer back here
            pending = exc.with_traceback(None)
    if pending is not None:
        try:
            raise pending
        finally:
            pending = None  # the raised traceback holds this frame
    return False


def covers_standard(u: Universe, closed: BasicClosed) -> int | None:
    """Density check for a set with standard targets.

    Verifies that the union of the listed preimages contains every base
    element up to the oracle horizon, and returns the least element that
    it misses. None means the set is the whole extension, so every point
    is a member.
    """
    bound = u.oracle.horizon
    for _, target in closed.pairs:
        if not isinstance(target.seq, Const):
            raise ValueError(
                f"covers_standard needs standard targets, got {target!r}"
            )
    xs = np.arange(bound + 1)
    covered = np.zeros(bound + 1, dtype=bool)
    for f, target in closed.pairs:
        covered |= eval_vec(f, xs) == target.seq.value
    uncovered = np.flatnonzero(~covered)
    return int(uncovered[0]) if uncovered.size else None


def star_preimage(f: FnExpr, closed: BasicClosed) -> BasicClosed:
    """Preimage of a basic closed set under a starred function.

    Membership satisfies: the image point lies in ``closed`` exactly when
    the original point lies in the returned set; both sides reduce to the
    same agreement queries, so the biconditional is exact.
    """
    return BasicClosed(tuple((Compose(g, f), target) for g, target in closed.pairs))
