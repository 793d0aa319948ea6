"""First-order formulas over the base structure, evaluated two ways.

Formulas are built from term equalities and named relations with the
connectives ! & | -> and *bounded* quantifiers ``exists y < t . phi``,
``forall y < t . phi``. Unbounded quantifiers are deliberately absent:
deciding an unbounded quantifier per index would require surveying an
infinite set, and the hyper-side evaluation must stay total up to the
horizon.

``eval_base`` is classical satisfaction in <N; registry>. ``eval_hyper``
computes the truth set {m : the formula holds at the arguments' values
at m} as an index predicate and asks the oracle, which is exactly the
ultrapower satisfaction reduced to filter membership. Quantifier-free
formulas compile to expressions, so their truth-set text coincides with
the equality/membership queries they are equivalent to; so do quantified
ones whose bounds stay within an unrolling budget. The others get a
formula-derived ``sat[...]`` text and a vector function: each quantifier
evaluates its body on the grid of (index, value) pairs below its bound,
walking the values upward until every index's answer is known.

Each universe keeps the formulas compiled in it (``Universe.formulas``),
so a formula built from parts already asked about, as in the Łoś laws'
``!phi``, ``phi & psi`` and ``phi | psi``, is compiled around the very
nodes of its parts. Canonicalised through the universe's normal-form
memo, those parts keep their normal forms and texts, and the oracle
reads their truth sets from its mask cache.

Concrete syntax::

    formula := quant | imp
    quant   := ('forall' | 'exists') NAME '<' term '.' formula
    imp     := or ('->' imp)?                     # right-associative
    or      := and ('|' and)*
    and     := unary ('&' unary)*
    unary   := '!' unary | atom
    atom    := term '=' term | term '<' term | REL '(' term, ... ')'
             | '(' formula ')'

Terms are funlang expressions (:class:`~starext.funlang.FnExpr`): the
expression grammar with variables by name, ``x`` included, each a
:class:`~starext.funlang.Name` leaf, and calls of registry functions of
any arity, each ``Compose(body, tuple_expr(args))``. A term gets its value
by binding its names with :func:`~starext.funlang.substitute`: to
constants on the base side, to the arguments' sequences on the hyper side.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .errors import ParseError
from .funlang import (
    INT64_SAFE,
    P1,
    P2,
    VAR,
    Compose,
    Const,
    FnExpr,
    IfEq,
    IndexPredicate,
    Name,
    Sub,
    _KEYWORDS,
    _Parser,
    _tokenize,
    and_,
    eval_vec,
    interpret,
    normalize,
    not_,
    or_,
    pair,
    pretty,
    substitute,
)
from .hyper import Hyperpoint, Universe
from .nary import EQUALITY, LESS_THAN, NaryFn, NaryRel, tuple_expr

_QUANTIFIERS = ("forall", "exists")


# ---------------------------------------------------------------------------
# Formulas

class Formula:
    __slots__ = ()


@dataclass(frozen=True)
class AtomEq(Formula):
    left: FnExpr
    right: FnExpr


@dataclass(frozen=True)
class AtomRel(Formula):
    rel: str
    args: tuple[FnExpr, ...]


@dataclass(frozen=True)
class Not(Formula):
    body: Formula


@dataclass(frozen=True)
class And(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Or(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Implies(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Bounded(Formula):
    """exists/forall var < bound . body"""

    kind: str  # "exists" | "forall"
    var: str
    bound: FnExpr
    body: Formula


@dataclass(frozen=True)
class Registry:
    """Named n-ary functions and relations formulas may mention."""

    functions: Mapping[str, NaryFn]
    relations: Mapping[str, NaryRel]

    def with_functions(self, fns: Mapping[str, NaryFn]) -> "Registry":
        merged = dict(self.functions)
        merged.update(fns)
        return Registry(functions=merged, relations=dict(self.relations))


#: the registry of a formula given none; one object, so that formulas
#: compiled without a registry share a universe's ``formulas`` memo
DEFAULT_REGISTRY = Registry(functions={}, relations={"lt": LESS_THAN, "eq": EQUALITY})


# ---------------------------------------------------------------------------
# Pretty

def formula_text(phi: Formula) -> str:
    match phi:
        case AtomEq(l, r):
            return f"{pretty(l)} = {pretty(r)}"
        case AtomRel(rel, args):
            return f"{rel}({', '.join(pretty(a) for a in args)})"
        case Not(b):
            return f"!({formula_text(b)})"
        case And(l, r):
            return f"({formula_text(l)} & {formula_text(r)})"
        case Or(l, r):
            return f"({formula_text(l)} | {formula_text(r)})"
        case Implies(l, r):
            return f"({formula_text(l)} -> {formula_text(r)})"
        case Bounded(kind, var, bound, body):
            return f"{kind} {var} < {pretty(bound)} . {formula_text(body)}"
    raise TypeError(f"not a Formula: {phi!r}")


def _names(t: FnExpr) -> set[str]:
    if isinstance(t, Name):
        return {t.name}
    children = (getattr(t, f) for f in t.__match_args__)
    return set().union(*(_names(c) for c in children if isinstance(c, FnExpr)))


def free_variables(phi: Formula) -> set[str]:
    match phi:
        case AtomEq(l, r):
            return _names(l) | _names(r)
        case AtomRel(_, args):
            return set().union(*map(_names, args))
        case Not(b):
            return free_variables(b)
        case And(l, r) | Or(l, r) | Implies(l, r):
            return free_variables(l) | free_variables(r)
        case Bounded(_, var, bound, body):
            return (free_variables(body) - {var}) | _names(bound)
    raise TypeError(f"not a Formula: {phi!r}")


# ---------------------------------------------------------------------------
# Parsing

class _FormulaParser(_Parser):
    """The expression parser, with formulas on top and terms in which every
    non-keyword name is a variable or a registry function."""

    def __init__(self, tokens, registry: Registry):
        super().__init__(tokens, None)
        self.registry = registry

    def at(self, value: str) -> bool:
        return self.peek()[1] == value

    def parse_formula(self) -> Formula:
        kind, text, _, _ = self.peek()
        if kind == "name" and text in _QUANTIFIERS:
            self.next()
            vkind, vname, line, col = self.next()
            if vkind != "name" or vname in _QUANTIFIERS:
                raise ParseError("expected a variable name", line, col)
            self.expect("<")
            bound = self.parse_expr()
            self.expect(".")
            body = self.parse_formula()
            return Bounded(text, vname, bound, body)
        return self.parse_implies()

    def parse_implies(self) -> Formula:
        left = self.parse_or()
        if self.at("->"):
            self.next()
            return Implies(left, self.parse_implies())
        return left

    def parse_or(self) -> Formula:
        node = self.parse_and()
        while self.at("|"):
            self.next()
            node = Or(node, self.parse_and())
        return node

    def parse_and(self) -> Formula:
        node = self.parse_unary()
        while self.at("&"):
            self.next()
            node = And(node, self.parse_unary())
        return node

    def parse_unary(self) -> Formula:
        if self.at("!"):
            self.next()
            return Not(self.parse_unary())
        return self.parse_literal()

    def parse_literal(self) -> Formula:
        kind, text, line, col = self.peek()
        if self.at("("):
            save = self.pos
            try:
                self.next()
                inner = self.parse_formula()
                self.expect(")")
                return inner
            except ParseError:
                self.pos = save  # fall through: parenthesized term
        if kind == "name" and text in self.registry.relations \
                and self.tokens[self.pos + 1][1] == "(":
            self.next()
            args = self.parse_args()
            rel = self.registry.relations[text]
            if len(args) != rel.arity:
                raise ParseError(
                    f"relation {text!r} expects {rel.arity} arguments", line, col
                )
            return AtomRel(text, tuple(args))
        left = self.parse_expr()
        kind, text, line, col = self.peek()
        if self.at("="):
            self.next()
            return AtomEq(left, self.parse_expr())
        if self.at("<"):
            self.next()
            return AtomRel("lt", (left, self.parse_expr()))
        raise ParseError("expected '=' or '<' after a term", line, col)

    def parse_args(self) -> list[FnExpr]:
        self.expect("(")
        args = [self.parse_expr()]
        while self.at(","):
            self.next()
            args.append(self.parse_expr())
        self.expect(")")
        return args

    def parse_atom(self) -> FnExpr:
        kind, text, line, col = self.peek()
        if kind != "name" or text in _KEYWORDS:
            return super().parse_atom()
        self.next()
        fn = self.registry.functions.get(text)
        if fn is not None:
            args = self.parse_args()
            if len(args) != fn.arity:
                raise ParseError(
                    f"function {text!r} expects {fn.arity} arguments", line, col
                )
            return Compose(fn.body, tuple_expr(args))
        if text in _QUANTIFIERS:
            raise ParseError(f"{text!r} is not a term", line, col)
        return Name(text)


def parse_formula(source: str, registry: Registry = DEFAULT_REGISTRY,
                  line: int = 1, col: int = 1) -> Formula:
    """Parse one formula; ``line``/``col`` place ``source`` in a larger
    text, as for :func:`starext.funlang.parse_fn`."""
    parser = _FormulaParser(_tokenize(source, line, col), registry)
    return parser.finish(parser.parse_formula())


# ---------------------------------------------------------------------------
# Base evaluation

def eval_base(phi: Formula, env: Mapping[str, int],
              registry: Registry = DEFAULT_REGISTRY) -> bool:
    """Classical satisfaction in the base structure."""
    consts = {name: Const(v) for name, v in env.items()}

    def value(t: FnExpr) -> int:
        return interpret(substitute(t, consts), 0)

    match phi:
        case AtomEq(l, r):
            return value(l) == value(r)
        case AtomRel(rel, args):
            return registry.relations[rel].holds(*map(value, args))
        case Not(b):
            return not eval_base(b, env, registry)
        case And(l, r):
            return eval_base(l, env, registry) and eval_base(r, env, registry)
        case Or(l, r):
            return eval_base(l, env, registry) or eval_base(r, env, registry)
        case Implies(l, r):
            return (not eval_base(l, env, registry)) or eval_base(r, env, registry)
        case Bounded(kind, var, bound, body):
            truths = (eval_base(body, {**env, var: y}, registry)
                      for y in range(value(bound)))
            return any(truths) if kind == "exists" else all(truths)
    raise TypeError(f"not a Formula: {phi!r}")


# ---------------------------------------------------------------------------
# Hyper evaluation

def compile_formula(phi: Formula, env: Mapping[str, FnExpr], registry: Registry,
                    horizon: int | None = None, budget: int = 64,
                    memo: dict[tuple, tuple] | None = None) -> FnExpr | None:
    """The formula as a 0/1 expression of the index, the arguments'
    sequences bound to its variables.

    Given a horizon, bounded quantifiers are unrolled into finite chains.
    That is sound because the unrolling covers every value the bound term
    takes on 0..horizon. None without a horizon, or when that range
    exceeds the budget; the caller then evaluates quantifiers on a grid.

    ``memo`` (a :class:`~starext.hyper.Universe`'s ``formulas``) keeps the
    result of each call and of each connective's parts, keyed by the ids
    of the formula, the registry and the environment's expressions. A
    later call on a formula built from the same parts, ``Not(phi)`` say,
    returns the very node compiled for ``phi``, with the normal form and
    text cached on it. Each entry holds the objects its key names, so
    their ids stay unique while the memo lives. Quantifier bodies, whose
    environments are new at every unrolling, are compiled without it.
    """
    if memo is None:
        return _compile(phi, env, registry, horizon, budget, None)
    key = (id(phi), id(registry), horizon, budget,
           *[(name, id(e)) for name, e in sorted(env.items())])
    hit = memo.get(key)
    if hit is None:
        hit = memo[key] = (_compile(phi, env, registry, horizon, budget, memo),
                           phi, registry, env)
    return hit[0]


def _compile(phi: Formula, env: Mapping[str, FnExpr], registry: Registry,
             horizon: int | None, budget: int,
             memo: dict[tuple, tuple] | None) -> FnExpr | None:
    def sub(psi: Formula, inner_env=env, inner_budget=budget) -> FnExpr | None:
        return compile_formula(psi, inner_env, registry, horizon, inner_budget,
                               memo if inner_env is env else None)

    match phi:
        case AtomEq(l, r):
            return IfEq(substitute(l, env), substitute(r, env), Const(1), Const(0))
        case AtomRel(rel, args):
            parts = [substitute(a, env) for a in args]
            return Compose(registry.relations[rel].indicator.body, tuple_expr(parts))
        case Not(b):
            inner = sub(b)
            return None if inner is None else not_(inner)
        case And(l, r) | Or(l, r):
            cl, cr = sub(l), sub(r)
            if cl is None or cr is None:
                return None
            return (and_ if isinstance(phi, And) else or_)(cl, cr)
        case Implies(l, r):
            return sub(Or(Not(l), r))
        case Bounded(kind, var, bound, body):
            if horizon is None:
                return None
            bound_expr = substitute(bound, env)
            k = int(eval_vec(normalize(bound_expr), np.arange(horizon + 1)).max())
            if k > budget:
                return None
            inner_budget = max(1, budget // max(k, 1))
            # the chain and the forall clause are not and_/or_: their operands
            # are already 0/1, and the decision-log keys follow these shapes
            acc: FnExpr | None = None
            for y in range(k):
                piece = sub(body, {**env, var: Const(y)}, inner_budget)
                if piece is None:
                    return None
                in_range = IfEq(Sub(bound_expr, Const(y)), Const(0), Const(0), Const(1))
                if kind == "exists":
                    clause = and_(in_range, piece)
                    acc = clause if acc is None else IfEq(acc, Const(0), clause, Const(1))
                else:
                    clause = IfEq(in_range, Const(0), Const(1),
                                  IfEq(piece, Const(0), Const(0), Const(1)))
                    acc = clause if acc is None else IfEq(acc, Const(0), Const(0), clause)
            if acc is None:
                return Const(0 if kind == "exists" else 1)
            return acc
    raise TypeError(f"not a Formula: {phi!r}")


#: entries of the (index, bound variable) grid a quantifier evaluates at once
GRID_LIMIT = 1 << 20


def _truth_vec(phi: Formula, env: Mapping[str, FnExpr], registry: Registry):
    """Truth at an array of indices, as a boolean array.

    Connectives combine the vectors of their parts. A quantifier
    evaluates its body on the flat grid of pairs (m, y) with y below the
    bound at m, each encoded as ``pair(m, y)`` so that no per-pair
    environment is built.
    """
    direct = compile_formula(phi, env, registry)
    if direct is not None:
        direct = normalize(direct)
        return lambda ms: eval_vec(direct, ms) != 0
    match phi:
        case Not(b):
            inner = _truth_vec(b, env, registry)
            return lambda ms: ~inner(ms)
        case And(l, r) | Or(l, r):
            fl, fr = _truth_vec(l, env, registry), _truth_vec(r, env, registry)
            both = np.logical_and if isinstance(phi, And) else np.logical_or
            return lambda ms: both(fl(ms), fr(ms))
        case Implies(l, r):
            return _truth_vec(Or(Not(l), r), env, registry)
        case Bounded(kind, var, bound, body):
            bound_expr = normalize(substitute(bound, env))
            inner_env = {n: substitute(e, P1(VAR)) for n, e in env.items()}
            inner_env[var] = P2(VAR)
            body_vec = _truth_vec(body, inner_env, registry)
            return lambda ms: _quantify(kind, ms, eval_vec(bound_expr, ms), body_vec)
    raise TypeError(f"not a Formula: {phi!r}")


def _quantify(kind: str, ms: np.ndarray, bounds: np.ndarray, body_vec) -> np.ndarray:
    """``kind`` y < bounds[i] of the body at pair(ms[i], y), for every i.

    y is walked upward in rounds of at most :data:`GRID_LIMIT` pairs. An
    index leaves the walk at its first witness (exists) or counterexample
    (forall), or when its range runs out, so a large bound costs nothing
    once the answer is known; an index with bound 0 is never walked, so
    exists is False and forall True there.
    """
    decisive = kind == "exists"  # the body value that settles an index
    settled = np.zeros(len(ms), dtype=bool)
    # y stays far below INT64_SAFE, so larger bounds compare the same
    bounds = np.minimum(bounds, INT64_SAFE).astype(np.int64)
    live = np.flatnonzero(bounds > 0)
    y0 = 0
    while len(live):
        width = max(1, GRID_LIMIT // len(live))
        seg = np.repeat(live, width)
        y = np.tile(np.arange(y0, y0 + width), len(live))
        inside = y < bounds[seg]
        seg, y = seg[inside], y[inside]
        m = ms[seg]
        s_max = int(m.max()) + int(y.max())
        if s_max * (s_max + 1) >= INT64_SAFE:
            m = m.astype(object)  # the codes need exact Python ints
        settled[seg[body_vec(pair(m, y)) == decisive]] = True
        y0 += width
        live = live[~settled[live] & (bounds[live] > y0)]
    return settled if decisive else ~settled


def truth_predicate(phi: Formula, env: Mapping[str, Hyperpoint],
                    registry: Registry = DEFAULT_REGISTRY,
                    horizon: int | None = None,
                    universe: Universe | None = None) -> IndexPredicate:
    """The index set on which the formula holds pointwise.

    Given a universe, the formula is compiled through its ``formulas``
    memo (see :func:`compile_formula`) and canonicalised through its
    normal-form memo (:meth:`~starext.hyper.Universe.predicate`); the
    text is the same either way."""
    missing = free_variables(phi) - set(env)
    if missing:
        raise KeyError(f"environment misses variables {sorted(missing)}")
    expr_env = {name: p.seq for name, p in env.items()}
    if universe is None:
        compiled = compile_formula(phi, expr_env, registry, horizon)
        if compiled is not None:
            return IndexPredicate.from_expr(compiled)
    else:
        compiled = compile_formula(phi, expr_env, registry, horizon,
                                   memo=universe.formulas)
        if compiled is not None:
            return universe.predicate(compiled)

    names = sorted(env)
    binding = ", ".join(f"{n} := {env[n].text}" for n in names)
    text = f"sat[{formula_text(phi)} | {binding}]"
    vec = _truth_vec(phi, expr_env, registry)
    if all(isinstance(env[n].seq, Const) for n in names):
        # standard environment: truth is index-independent
        value = bool(vec(np.zeros(1, dtype=np.int64))[0])
        return IndexPredicate(text, vec=lambda ns: np.full(np.shape(ns), value))
    return IndexPredicate(text, vec=vec)


def eval_hyper(phi: Formula, env: Mapping[str, Hyperpoint], u: Universe,
               registry: Registry = DEFAULT_REGISTRY) -> bool:
    """Ultrapower satisfaction: filter membership of the truth set.

    The formula is compiled once per universe and environment, so the
    Łoś laws' ``Not(phi)``, ``And(phi, psi)`` and ``Or(phi, psi)`` reuse
    the nodes compiled for ``phi`` and ``psi``; the oracle then reads
    their truth sets from its mask cache instead of evaluating them
    again."""
    return u.oracle.query(
        truth_predicate(phi, env, registry, horizon=u.oracle.horizon, universe=u)
    )


def transfer_check(phi: Formula, env: Mapping[str, int], u: Universe,
                   registry: Registry = DEFAULT_REGISTRY) -> bool:
    """Standard parameters: base and hyper truth must coincide exactly."""
    base = eval_base(phi, env, registry)
    hyper_env = {name: u.standard(v) for name, v in env.items()}
    hyper = eval_hyper(phi, hyper_env, u, registry)
    return base == hyper
