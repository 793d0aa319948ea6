"""Extensions of n-ary functions and relations.

An n-ary function is a unary expression over a left-nested pair encoding
of its argument tuple. Two routes produce its extension at hyperpoint
arguments:

  direct      interpret the body pointwise on the argument sequences
  parametric  realize the arguments as projections of one point (via
              iterated pairing) and star the composed unary function

The two routes agree; the parametric one exists to exercise that the
extension is independent of how the arguments are realized, so it also
accepts alternative decompositions (argument reorderings, padding,
finite perturbations) which must all land in the same equality class.

Relations have no route of their own: :func:`starext.transfer.eval_hyper`
decides an ``AtomRel`` by the oracle's verdict on its indicator's truth set.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .funlang import (
    VAR,
    Compose,
    Const,
    FnExpr,
    IfEq,
    ModC,
    P1,
    P2,
    PairE,
    interpret,
    pair,
    parse_fn,
    substitute,
)
from .hyper import Hyperpoint, Universe


def encode_args(values: list[int]) -> int:
    """Left-nested pair encoding of an argument tuple."""
    out = values[0]
    for v in values[1:]:
        out = pair(out, v)
    return out


def tuple_expr(parts: list[FnExpr]) -> FnExpr:
    """Expression building the left-nested encoding of the given parts."""
    out = parts[0]
    for p in parts[1:]:
        out = PairE(out, p)
    return out


def projection(i: int, n: int) -> FnExpr:
    """Unary projection extracting argument i (1-based) of an n-tuple."""
    if not 1 <= i <= n:
        raise ValueError(f"projection {i} of {n}")
    if n == 1:
        return VAR
    if i == n:
        return P2(VAR)
    return substitute(projection(i, n - 1), P1(VAR))


@dataclass(frozen=True)
class NaryFn:
    """Total function of fixed arity, body over the pair encoding."""

    arity: int
    body: FnExpr
    name: str = ""

    def __post_init__(self):
        if self.arity < 1:
            raise ValueError("arity must be at least 1")

    def apply(self, *args: int) -> int:
        if len(args) != self.arity:
            raise ValueError(f"{self.name or 'fn'} expects {self.arity} arguments")
        return interpret(self.body, encode_args(list(args)))


@dataclass(frozen=True)
class NaryRel:
    """Relation of fixed arity, given by a 0/1 indicator."""

    arity: int
    indicator: NaryFn
    name: str = ""

    def holds(self, *args: int) -> bool:
        return self.indicator.apply(*args) == 1


EQUALITY = NaryRel(2, NaryFn(2, parse_fn("ifeq(p1(x), p2(x), 1, 0)")), name="eq")
LESS_THAN = NaryRel(2, NaryFn(2, parse_fn("ifeq(p2(x) - p1(x), 0, 0, 1)")), name="lt")


def star_nary_direct(u: Universe, fn: NaryFn, args: list[Hyperpoint]) -> Hyperpoint:
    """Pointwise route: the value sequence m -> fn(args_1(m), ..., args_n(m))."""
    if len(args) != fn.arity:
        raise ValueError(f"expected {fn.arity} arguments, got {len(args)}")
    encoded = tuple_expr([a.seq for a in args])
    return u.point(Compose(fn.body, encoded))


def default_decomposition(args: list[Hyperpoint]) -> tuple[list[FnExpr], FnExpr]:
    """Canonical realization: iterated pairing with iterated projections."""
    n = len(args)
    fs = [projection(i + 1, n) for i in range(n)]
    zeta_seq = tuple_expr([a.seq for a in args])
    return fs, zeta_seq


def star_nary_parametric(
    u: Universe,
    fn: NaryFn,
    args: list[Hyperpoint],
    decomposition: tuple[list[FnExpr], FnExpr] | None = None,
) -> Hyperpoint:
    """Parametric route: star the unary composite at a realizing point.

    ``decomposition`` is a pair (fs, zeta_seq) with star(fs[i])(zeta)
    equal to args[i], which the caller checks through ``u.eq``.
    """
    if len(args) != fn.arity:
        raise ValueError(f"expected {fn.arity} arguments, got {len(args)}")
    if decomposition is None:
        decomposition = default_decomposition(args)
    fs, zeta_seq = decomposition
    if len(fs) != fn.arity:
        raise ValueError("decomposition arity mismatch")
    composite = Compose(fn.body, tuple_expr(fs))
    return u.star_apply(composite, u.point(zeta_seq))


def alternative_decompositions(
    args: list[Hyperpoint], count: int, rng: random.Random
) -> list[tuple[list[FnExpr], FnExpr]]:
    """Valid but different realizations of the same argument tuple.

    Produced variants: reversed component order, right-nested pairing,
    junk components skipped by the projections, and finitely perturbed
    realizing points (which differ from the canonical one on a finite,
    hence negligible, set of indices).
    """
    n = len(args)
    seqs = [a.seq for a in args]
    out: list[tuple[list[FnExpr], FnExpr]] = []

    def reversed_order():
        fs = [projection(n - i, n) for i in range(n)]
        return fs, tuple_expr(list(reversed(seqs)))

    def right_nested():
        if n == 1:
            return [VAR], seqs[0]
        enc = seqs[-1]
        for s in reversed(seqs[:-1]):
            enc = PairE(s, enc)
        # component i is p1 after i p2-steps; the last is pure p2-steps
        fs = []
        for i in range(n):
            steps: FnExpr = VAR
            for _ in range(i):
                steps = P2(steps)
            fs.append(steps if i == n - 1 else P1(steps))
        return fs, enc

    def padded_front():
        junk: FnExpr = Const(rng.randrange(100))
        return [projection(i + 2, n + 1) for i in range(n)], tuple_expr([junk] + seqs)

    def padded_back():
        junk: FnExpr = ModC(VAR, rng.randrange(2, 9))
        return [projection(i + 1, n + 1) for i in range(n)], tuple_expr(seqs + [junk])

    def perturbed():
        # swap in a junk value at one index; the projections then recover
        # the arguments everywhere except that single index
        fs, enc = default_decomposition(args)
        where = rng.randrange(0, 50)
        junk = tuple_expr([Const(rng.randrange(1000))] * n)
        return fs, IfEq(VAR, Const(where), junk, enc)

    makers = [reversed_order, right_nested, padded_front, padded_back, perturbed]
    for k in range(count):
        out.append(makers[k % len(makers)]())
    return out
