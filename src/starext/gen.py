"""Seeded random generators for expressions, points and formulas.

Everything is driven by a caller-supplied ``random.Random`` so suite runs
are reproducible from a single seed. Size parameters are chosen to keep
values polynomial in the input: multiplication depth is limited, which
keeps masks over a 10^4 horizon affordable.
"""

from __future__ import annotations

import random

from .funlang import (
    VAR,
    Add,
    Compose,
    Const,
    DivC,
    FnExpr,
    IfEq,
    ModC,
    Mul,
    Name,
    P1,
    P2,
    PairE,
    Sub,
)
from .nary import NaryFn, projection, tuple_expr
from .transfer import (
    AtomEq,
    AtomRel,
    And,
    Bounded,
    Formula,
    Implies,
    Not,
    Or,
    Registry,
)


def rand_expr(rng: random.Random, depth: int = 3, mul_budget: int = 2) -> FnExpr:
    """Random total expression; ``mul_budget`` bounds value growth."""
    if depth <= 0:
        return rng.choice([VAR, VAR, Const(rng.randrange(10))])
    pick = rng.randrange(12)
    if pick <= 1:
        return Const(rng.randrange(10))
    if pick <= 3:
        return VAR
    if pick == 4:
        return Add(rand_expr(rng, depth - 1, mul_budget), rand_expr(rng, depth - 1, mul_budget))
    if pick == 5:
        return Sub(rand_expr(rng, depth - 1, mul_budget), rand_expr(rng, depth - 1, mul_budget))
    if pick == 6 and mul_budget > 0:
        return Mul(
            rand_expr(rng, depth - 1, mul_budget - 1),
            rand_expr(rng, depth - 1, mul_budget - 1),
        )
    if pick == 7:
        return ModC(rand_expr(rng, depth - 1, mul_budget), rng.randrange(2, 10))
    if pick == 8:
        return DivC(rand_expr(rng, depth - 1, mul_budget), rng.randrange(2, 10))
    if pick == 9:
        return IfEq(
            rand_expr(rng, depth - 1, mul_budget),
            rand_expr(rng, depth - 1, mul_budget),
            rand_expr(rng, depth - 1, mul_budget),
            rand_expr(rng, depth - 1, mul_budget),
        )
    if pick == 10:
        inner = rand_expr(rng, depth - 1, mul_budget)
        return P1(inner) if rng.random() < 0.5 else P2(inner)
    return PairE(
        rand_expr(rng, depth - 1, mul_budget), rand_expr(rng, depth - 1, mul_budget)
    )


def rand_indicator(rng: random.Random, depth: int = 2) -> FnExpr:
    """Random 0/1-valued expression (an indicator by construction)."""
    return IfEq(
        rand_expr(rng, depth),
        rand_expr(rng, depth),
        Const(rng.choice([0, 1])),
        Const(rng.choice([0, 1])),
    )


def rand_point_expr(rng: random.Random) -> FnExpr:
    """Random sequence expression with a healthy mix of behaviors."""
    kind = rng.randrange(8)
    if kind == 0:
        return Const(rng.randrange(1000))
    if kind == 1:
        return VAR
    if kind == 2:
        return Add(VAR, Const(rng.randrange(1, 50)))
    if kind == 3:
        return Mul(VAR, Const(rng.randrange(2, 6)))
    if kind == 4:
        return ModC(VAR, rng.randrange(2, 12))
    if kind == 5:
        return Mul(VAR, VAR)
    if kind == 6:
        return PairE(VAR, rand_expr(rng, 1))
    return rand_expr(rng, 3)


def rand_nary(rng: random.Random, arity: int) -> NaryFn:
    """Random total function of the given arity over projections."""
    projections = [projection(i + 1, arity) for i in range(arity)]
    return NaryFn(arity, _rand_nary_body(rng, projections, 2), name=f"gen{arity}")


def _rand_nary_body(rng: random.Random, projections: list[FnExpr], depth: int) -> FnExpr:
    """Body of :func:`rand_nary`: module-level, so no call leaves a cycle."""
    if depth <= 0:
        return rng.choice(projections + [Const(rng.randrange(10))])
    pick = rng.randrange(6)
    if pick == 0:
        return rng.choice(projections)
    if pick == 1:
        return Const(rng.randrange(10))

    def sub() -> FnExpr:
        return _rand_nary_body(rng, projections, depth - 1)

    if pick == 2:
        return Add(sub(), sub())
    if pick == 3:
        return Sub(sub(), sub())
    if pick == 4:
        return ModC(sub(), rng.randrange(2, 10))
    return IfEq(sub(), sub(), sub(), sub())


def rand_term(rng: random.Random, variables: list[str], registry: Registry,
              depth: int = 2) -> FnExpr:
    """Random formula term over the named variables."""
    if depth <= 0 or rng.random() < 0.35:
        if variables and rng.random() < 0.7:
            return Name(rng.choice(variables))
        return Const(rng.randrange(12))
    pick = rng.randrange(6)
    if pick == 0:
        return Add(rand_term(rng, variables, registry, depth - 1),
                   rand_term(rng, variables, registry, depth - 1))
    if pick == 1:
        return Sub(rand_term(rng, variables, registry, depth - 1),
                   rand_term(rng, variables, registry, depth - 1))
    if pick == 2:
        return Mul(rand_term(rng, variables, registry, depth - 1),
                   Const(rng.randrange(2, 5)))
    if pick == 3:
        return ModC(rand_term(rng, variables, registry, depth - 1),
                    rng.randrange(2, 10))
    if pick == 4 and registry.functions:
        name = rng.choice(sorted(registry.functions))
        fn = registry.functions[name]
        args = [rand_term(rng, variables, registry, depth - 1) for _ in range(fn.arity)]
        return Compose(fn.body, tuple_expr(args))
    return Add(rand_term(rng, variables, registry, depth - 1),
               Const(rng.randrange(8)))


def rand_formula(rng: random.Random, variables: list[str], registry: Registry,
                 depth: int = 2, allow_quantifier: bool = True) -> Formula:
    """Random formula; quantifier bounds are kept small constants or
    ``v mod k`` so bounded search stays cheap."""
    if depth <= 0 or rng.random() < 0.3:
        left = rand_term(rng, variables, registry, 2)
        right = rand_term(rng, variables, registry, 2)
        if rng.random() < 0.3:
            return AtomRel("lt", (left, right))
        return AtomEq(left, right)
    pick = rng.randrange(5 if allow_quantifier else 4)
    if pick == 0:
        return Not(rand_formula(rng, variables, registry, depth - 1, allow_quantifier))
    if pick == 1:
        return And(rand_formula(rng, variables, registry, depth - 1, allow_quantifier),
                   rand_formula(rng, variables, registry, depth - 1, allow_quantifier))
    if pick == 2:
        return Or(rand_formula(rng, variables, registry, depth - 1, allow_quantifier),
                  rand_formula(rng, variables, registry, depth - 1, allow_quantifier))
    if pick == 3:
        return Implies(rand_formula(rng, variables, registry, depth - 1, allow_quantifier),
                       rand_formula(rng, variables, registry, depth - 1, allow_quantifier))
    var = f"q{rng.randrange(100)}"
    if variables and rng.random() < 0.5:
        bound: FnExpr = ModC(Name(rng.choice(variables)), rng.randrange(3, 20))
    else:
        bound = Const(rng.randrange(1, 20))
    body = rand_formula(rng, variables + [var], registry, depth - 1, False)
    kind = "exists" if rng.random() < 0.5 else "forall"
    return Bounded(kind, var, bound, body)
