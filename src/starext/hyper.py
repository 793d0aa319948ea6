"""The ultrapower extension of N: hyperpoints and the star operator.

A hyperpoint is a sequence N -> N given by a closed expression; two
hyperpoints are equal exactly when the oracle accepts their agreement
set, so equality is a relation of the pair (point, oracle), not of the
points alone. The standard copy of N embeds as the constant sequences.

``star_apply`` is composition on representatives, which is why the
composition law holds pointwise (not merely modulo the filter). Set
extensions are driven by 0/1 indicators; membership of a point reduces
to one oracle query whose canonical text is shared with the equality
queries it is provably equivalent to. A universe canonicalises those
queries through a normal-form memo that it owns, so the queries about
sets and their Boolean combinations at one point share their work.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import ConsistencyViolation, MalformedIndicator, Undecidable
from .funlang import (
    CHI_DIAG,
    VAR,
    Compose,
    Const,
    FnExpr,
    IfEq,
    IndexPredicate,
    NormalMemo,
    PairE,
    and_,
    eval_vec,
    normalize,
    not_,
    or_,
    parse_fn,
    pretty,
)
from .oracle import OracleState


class Hyperpoint:
    """An element of the extension, carried by a sequence expression.

    Structural identity (``==``, hashing) is by canonical text; semantic
    equality is :meth:`Universe.eq`. Do not mix them up: distinct texts
    may still be equal modulo the oracle.
    """

    __slots__ = ("seq", "text", "name")

    def __init__(self, seq: FnExpr, name: str | None = None):
        self.seq = normalize(seq)
        self.text = pretty(self.seq)
        self.name = name

    def __repr__(self) -> str:
        return f"[n -> {self.text}]"

    def __eq__(self, other) -> bool:
        return isinstance(other, Hyperpoint) and self.text == other.text

    def __hash__(self) -> int:
        return hash(self.text)

    def values(self, upto: int) -> list[int]:
        """Sequence values on 0..upto inclusive, as Python ints."""
        return eval_vec(self.seq, np.arange(upto + 1)).tolist()


@dataclass(frozen=True)
class StarSet:
    """Extension of a subset of N, carried by a 0/1 indicator."""

    indicator: FnExpr

    def __repr__(self) -> str:
        return f"{{x : {pretty(self.indicator)}(x)=1}}"


def diagonal_composite(f: FnExpr, g: FnExpr) -> FnExpr:
    """The composition of the diagonal indicator with (f, g)."""
    return Compose(CHI_DIAG, PairE(f, g))


def finite_indicator(elems: Iterable[int]) -> FnExpr:
    """Indicator of a finite, explicitly listed subset of N."""
    out: FnExpr = Const(0)
    for a in sorted(set(elems), reverse=True):
        out = IfEq(VAR, Const(a), Const(1), out)
    return out


def set_union(a: StarSet, b: StarSet) -> StarSet:
    return StarSet(normalize(or_(a.indicator, b.indicator)))


def set_intersection(a: StarSet, b: StarSet) -> StarSet:
    return StarSet(normalize(and_(a.indicator, b.indicator)))


def set_complement(a: StarSet) -> StarSet:
    return StarSet(normalize(not_(a.indicator)))


def first_equal(eq: Callable[[object, object], bool], pairs: Iterable[tuple]):
    """The key of the first ``(key, p, q)`` in ``pairs`` with ``eq(p, q)``,
    or None when every pair is decided unequal.

    This is the one search for "some starred function in a finite list
    carries xi onto eta". A pair whose equality is undecidable is passed
    over, since a later pair may still be equal; when none is, the last
    :class:`Undecidable` is raised again, without its traceback.
    ``pairs`` is read lazily: given a generator, no pair after the first
    equal one is built.
    """
    pending: Undecidable | None = None
    for key, p, q in pairs:
        try:
            if eq(p, q):
                return key
        except Undecidable as exc:
            # kept without its traceback, whose frames refer back here
            pending = exc.with_traceback(None)
    if pending is not None:
        try:
            raise pending
        finally:
            pending = None  # the raised traceback holds this frame
    return None


class Universe:
    """One extension: an oracle plus an interning table of points.

    All equality and membership questions go through the single oracle,
    so results within a universe are mutually consistent (filter laws).
    Pure construction (``standard``, ``star_apply``) never queries.

    Membership queries canonicalise through the universe's own
    :class:`~starext.funlang.NormalMemo` (:meth:`predicate`). A query
    about a Boolean combination of sets that were queried at the same
    point then reuses their normal forms, with the texts cached on them,
    and the oracle reads their truth sets from its
    mask cache. ``formulas`` does the same for
    :func:`starext.transfer.eval_hyper`: it holds the formulas compiled
    in this universe (see :func:`starext.transfer.compile_formula`). Both
    memos hold what their queries built and die with the universe.
    """

    def __init__(self, oracle: OracleState,
                 interned: dict[str, Hyperpoint] | None = None):
        self.oracle = oracle
        self._interned: dict[str, Hyperpoint] = interned if interned is not None else {}
        self._normal_memo = NormalMemo()
        self.formulas: dict[tuple, tuple] = {}

    def with_fresh_filter(self) -> "Universe":
        """Same points and caches, a brand-new committed family.

        Independent checks each run against their own filter state;
        sharing the interning table keeps points identical across them,
        and the shared decision log keeps the run replayable. The new
        universe starts empty memos of its own.
        """
        return Universe(self.oracle.fresh_sibling(), interned=self._interned)

    # -- points ----------------------------------------------------------------

    def point(self, seq: FnExpr | str, name: str | None = None) -> Hyperpoint:
        if isinstance(seq, str):
            seq = parse_fn(seq)
        candidate = Hyperpoint(seq, name=name)
        existing = self._interned.get(candidate.text)
        if existing is not None:
            return existing
        self._interned[candidate.text] = candidate
        return candidate

    def standard(self, x: int) -> Hyperpoint:
        # the text of Const(x) is str(x): a repeat point costs one lookup
        existing = self._interned.get(str(x))
        if existing is not None:
            return existing
        return self.point(Const(x), name=f"std({x})")

    def star_apply(self, f: FnExpr, xi: Hyperpoint) -> Hyperpoint:
        return self.point(Compose(f, xi.seq))

    # -- oracle-mediated relations ----------------------------------------------

    def eq(self, a: Hyperpoint, b: Hyperpoint) -> bool:
        """Extensional equality: oracle decision on the agreement set."""
        pred = IndexPredicate.agreement(a.seq, b.seq)
        return self.oracle.query(pred)

    def member(self, xi: Hyperpoint, a: StarSet) -> bool:
        """Membership of a point in a set extension."""
        return self.oracle.query(self._member_predicate(xi, a))

    def _member_predicate(self, xi: Hyperpoint, a: StarSet) -> IndexPredicate:
        return self.predicate(Compose(a.indicator, xi.seq))

    def predicate(self, expr: FnExpr) -> IndexPredicate:
        """The predicate of ``expr``, canonicalised through this universe's
        normal-form memo."""
        return IndexPredicate.from_expr(expr, self._normal_memo)

    def star_set(self, indicator: FnExpr | str) -> StarSet:
        """Wrap an indicator, rejecting ones that are not 0/1-valued on
        0..63."""
        if isinstance(indicator, str):
            indicator = parse_fn(indicator)
        indicator = normalize(indicator)
        values = eval_vec(indicator, np.arange(64))
        bad = np.flatnonzero(values > 1)
        if bad.size:
            raise MalformedIndicator(
                f"indicator {pretty(indicator)!r} takes value {values[bad[0]]} at {bad[0]}"
            )
        return StarSet(indicator)

    def equalizer(self, f: FnExpr, g: FnExpr) -> StarSet:
        """The set extension on which the extensions of f and g agree."""
        return StarSet(normalize(diagonal_composite(f, g)))

    def decide_finite(self, xi: Hyperpoint, elems: Sequence[int]) -> int | None:
        """Resolve membership of a point in a finite set.

        Returns the unique element of ``elems`` the point equals, or None
        when the point is not a member. Exactly one level set may be
        accepted once membership holds; anything else breaks the
        partition law and raises :class:`ConsistencyViolation`.
        """
        elems = sorted(set(elems))
        ind = finite_indicator(elems)
        if not self.member(xi, StarSet(normalize(ind))):
            return None
        accepted = []
        for a in elems:
            if self.eq(xi, self.standard(a)):
                accepted.append(a)
        if len(accepted) != 1:
            raise ConsistencyViolation(
                f"{len(accepted)} level sets accepted over finite {tuple(elems)}"
            )
        return accepted[0]
