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
from typing import Iterable, Sequence

import numpy as np

from .errors import ConsistencyViolation, MalformedIndicator
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
    Table,
    and_,
    compile_fn,
    eval_vec,
    interpret,
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

    __slots__ = ("seq", "text", "name", "uid", "_compiled")

    def __init__(self, seq: FnExpr, name: str | None = None, uid: int | None = None):
        self.seq = normalize(seq)
        self.text = pretty(self.seq)
        self.name = name
        self.uid = uid
        self._compiled = None

    def __repr__(self) -> str:
        return f"[n -> {self.text}]"

    def __eq__(self, other) -> bool:
        return isinstance(other, Hyperpoint) and self.text == other.text

    def __hash__(self) -> int:
        return hash(self.text)

    def value_at(self, n: int) -> int:
        if self._compiled is None:
            self._compiled = compile_fn(self.seq)
        return self._compiled(n)

    def values(self, upto: int) -> list[int]:
        """Sequence values on 0..upto inclusive, as Python ints."""
        return eval_vec(self.seq, np.arange(upto + 1)).tolist()

    def prefix(self, k: int = 64) -> tuple[int, ...]:
        return tuple(self.values(k - 1)[:k])


@dataclass(frozen=True)
class StarSet:
    """Extension of a subset of N, carried by a 0/1 indicator."""

    indicator: FnExpr
    tag: str = ""

    def __repr__(self) -> str:
        return f"{{x : {pretty(self.indicator)}(x)=1}}"


def star_apply(f: FnExpr, xi: Hyperpoint) -> Hyperpoint:
    """Apply the extension of f to a point: composition on representatives."""
    return Hyperpoint(Compose(f, xi.seq))


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
    return StarSet(normalize(or_(a.indicator, b.indicator)), tag=f"({a.tag} | {b.tag})")


def set_intersection(a: StarSet, b: StarSet) -> StarSet:
    return StarSet(normalize(and_(a.indicator, b.indicator)), tag=f"({a.tag} & {b.tag})")


def set_complement(a: StarSet) -> StarSet:
    return StarSet(normalize(not_(a.indicator)), tag=f"~{a.tag}")


class Universe:
    """One extension: an oracle plus an interning table of points.

    All equality and membership questions go through the single oracle,
    so results within a universe are mutually consistent (filter laws).
    Pure construction (``standard``, ``star_apply``) never queries.

    Membership queries canonicalise through the universe's own
    :class:`~starext.funlang.NormalMemo`. A query about a Boolean
    combination of sets that were queried at the same point then reuses
    their normal forms, with the texts and closedness cached on them, and
    the oracle reads their truth vectors from its mask cache. The memo
    holds what its queries built and dies with the universe.
    """

    def __init__(self, oracle: OracleState,
                 interned: dict[str, Hyperpoint] | None = None):
        self.oracle = oracle
        self._interned: dict[str, Hyperpoint] = interned if interned is not None else {}
        self._normal_memo = NormalMemo()

    def with_fresh_filter(self) -> "Universe":
        """Same points and caches, a brand-new committed family.

        Independent checks each run against their own filter state;
        sharing the interning table keeps points identical across them,
        and the shared decision log keeps the run replayable. The new
        universe starts an empty normal-form memo of its own.
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
        candidate.uid = len(self._interned)
        self._interned[candidate.text] = candidate
        return candidate

    def standard(self, x: int) -> Hyperpoint:
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
        return IndexPredicate.from_expr(Compose(a.indicator, xi.seq), self._normal_memo)

    def star_set(self, indicator: FnExpr | str, tag: str = "",
                 check_sample: int = 64) -> StarSet:
        """Wrap an indicator, rejecting ones that are not 0/1-valued on a
        sample of inputs."""
        if isinstance(indicator, str):
            indicator = parse_fn(indicator)
        indicator = normalize(indicator)
        f = compile_fn(indicator)
        for n in range(check_sample):
            if f(n) not in (0, 1):
                raise MalformedIndicator(
                    f"indicator {pretty(indicator)!r} takes value {f(n)} at {n}"
                )
        return StarSet(indicator, tag=tag)

    def equalizer(self, f: FnExpr, g: FnExpr) -> StarSet:
        """The set extension on which the extensions of f and g agree."""
        return StarSet(
            normalize(diagonal_composite(f, g)),
            tag=f"eq({pretty(f)}, {pretty(g)})",
        )

    def decide_finite(self, xi: Hyperpoint, elems: Sequence[int]) -> int | None:
        """Resolve membership of a point in a finite set.

        Returns the unique element of ``elems`` the point equals, or None
        when the point is not a member. Exactly one level set may be
        accepted once membership holds; anything else breaks the
        partition law and raises :class:`ConsistencyViolation`.
        """
        elems = sorted(set(elems))
        ind = finite_indicator(elems)
        if not self.member(xi, StarSet(normalize(ind), tag=f"finite{tuple(elems)}")):
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

    def image_set(self, f: FnExpr, domain: Iterable[int], tag: str = "") -> StarSet:
        """Extension of f(A) for a finite table of the domain A.

        Only meaningful for points whose values stay inside the tabulated
        domain; the indicator is a lookup with default 0.
        """
        image = sorted({interpret(f, x) for x in domain})
        entries = tuple((v, 1) for v in image)
        return StarSet(Table(VAR, entries, 0), tag=tag or "image")
