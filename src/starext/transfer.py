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
the equality/membership queries they are equivalent to; quantified ones
fall back to a pointwise evaluator with a formula-derived text.

Concrete syntax::

    formula := quant | imp
    quant   := ('forall' | 'exists') NAME '<' term '.' formula
    imp     := or ('->' imp)?                     # right-associative
    or      := and ('|' and)*
    and     := unary ('&' unary)*
    unary   := '!' unary | atom
    atom    := term '=' term | term '<' term | REL '(' term, ... ')'
             | '(' formula ')'

Terms reuse the expression grammar with variables by name and calls of
registry functions of any arity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .errors import ParseError
from .funlang import (
    Add,
    Compose,
    Const,
    DivC,
    FnExpr,
    IfEq,
    IndexPredicate,
    ModC,
    Mul,
    P1,
    P2,
    PairE,
    Sub,
    compile_fn,
    eval_vec,
    interpret,
    is_closed,
    pair as pair_encode,
    unpair as pair_decode,
)
from .funlang import _tokenize  # shared tokenizer
from .hyper import Hyperpoint, Universe
from .nary import EQUALITY, LESS_THAN, NaryFn, NaryRel, tuple_expr


# ---------------------------------------------------------------------------
# Terms

class Term:
    __slots__ = ()


@dataclass(frozen=True)
class TVar(Term):
    name: str


@dataclass(frozen=True)
class TConst(Term):
    value: int


@dataclass(frozen=True)
class TOp(Term):
    """Built-in operator application; op in (+ - * div mod pair p1 p2)."""

    op: str
    args: tuple[Term, ...]
    divisor: int = 0


@dataclass(frozen=True)
class TApp(Term):
    fn: str
    args: tuple[Term, ...]


# ---------------------------------------------------------------------------
# Formulas

class Formula:
    __slots__ = ()


@dataclass(frozen=True)
class AtomEq(Formula):
    left: Term
    right: Term


@dataclass(frozen=True)
class AtomRel(Formula):
    rel: str
    args: tuple[Term, ...]


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
    bound: Term
    body: Formula


@dataclass(frozen=True)
class Registry:
    """Named n-ary functions and relations formulas may mention."""

    functions: Mapping[str, NaryFn]
    relations: Mapping[str, NaryRel]

    @classmethod
    def default(cls) -> "Registry":
        return cls(functions={}, relations={"lt": LESS_THAN, "eq": EQUALITY})

    def with_functions(self, fns: Mapping[str, NaryFn]) -> "Registry":
        merged = dict(self.functions)
        merged.update(fns)
        return Registry(functions=merged, relations=dict(self.relations))


# ---------------------------------------------------------------------------
# Pretty

def term_text(t: Term) -> str:
    match t:
        case TVar(name):
            return name
        case TConst(v):
            return str(v)
        case TOp(op, args, divisor):
            if op in ("+", "-", "*"):
                return f"({term_text(args[0])} {op} {term_text(args[1])})"
            if op in ("div", "mod"):
                return f"({term_text(args[0])} {op} {divisor})"
            inner = ", ".join(term_text(a) for a in args)
            return f"{op}({inner})"
        case TApp(fn, args):
            inner = ", ".join(term_text(a) for a in args)
            return f"{fn}({inner})"
    raise TypeError(f"not a Term: {t!r}")


def formula_text(phi: Formula) -> str:
    match phi:
        case AtomEq(l, r):
            return f"{term_text(l)} = {term_text(r)}"
        case AtomRel(rel, args):
            return f"{rel}({', '.join(term_text(a) for a in args)})"
        case Not(b):
            return f"!({formula_text(b)})"
        case And(l, r):
            return f"({formula_text(l)} & {formula_text(r)})"
        case Or(l, r):
            return f"({formula_text(l)} | {formula_text(r)})"
        case Implies(l, r):
            return f"({formula_text(l)} -> {formula_text(r)})"
        case Bounded(kind, var, bound, body):
            return f"{kind} {var} < {term_text(bound)} . {formula_text(body)}"
    raise TypeError(f"not a Formula: {phi!r}")


def term_variables(t: Term) -> set[str]:
    match t:
        case TVar(name):
            return {name}
        case TConst(_):
            return set()
        case TOp(_, args, _) | TApp(_, args):
            out: set[str] = set()
            for a in args:
                out |= term_variables(a)
            return out
    raise TypeError(f"not a Term: {t!r}")


def free_variables(phi: Formula) -> set[str]:
    match phi:
        case AtomEq(l, r):
            return term_variables(l) | term_variables(r)
        case AtomRel(_, args):
            out: set[str] = set()
            for a in args:
                out |= term_variables(a)
            return out
        case Not(b):
            return free_variables(b)
        case And(l, r) | Or(l, r) | Implies(l, r):
            return free_variables(l) | free_variables(r)
        case Bounded(_, var, bound, body):
            return (free_variables(body) - {var}) | term_variables(bound)
    raise TypeError(f"not a Formula: {phi!r}")


# ---------------------------------------------------------------------------
# Parsing

class _FormulaParser:
    def __init__(self, tokens, registry: Registry):
        self.tokens = tokens
        self.pos = 0
        self.registry = registry

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def at(self, value: str) -> bool:
        return self.peek()[1] == value

    def expect(self, value: str):
        kind, text, line, col = self.next()
        if text != value:
            raise ParseError(f"expected {value!r}, found {text or 'end of input'!r}", line, col)

    def parse_formula(self) -> Formula:
        kind, text, _, _ = self.peek()
        if kind == "name" and text in ("forall", "exists"):
            self.next()
            vkind, vname, line, col = self.next()
            if vkind != "name" or vname in ("forall", "exists"):
                raise ParseError("expected a variable name", line, col)
            self.expect("<")
            bound = self.parse_term()
            self.expect(".")
            body = self.parse_formula()
            return Bounded(text, vname, bound, body)
        return self.parse_implies()

    def parse_implies(self) -> Formula:
        left = self.parse_or()
        if self.at("-"):
            # '->' arrives as '-' '>' from the shared tokenizer
            save = self.pos
            self.next()
            if self.at(">"):
                self.next()
                return Implies(left, self.parse_implies())
            self.pos = save
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
        return self.parse_atom()

    def parse_atom(self) -> Formula:
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
        if kind == "name" and text in self.registry.relations:
            save = self.pos
            self.next()
            if self.at("("):
                self.next()
                args = [self.parse_term()]
                while self.at(","):
                    self.next()
                    args.append(self.parse_term())
                self.expect(")")
                rel = self.registry.relations[text]
                if len(args) != rel.arity:
                    raise ParseError(
                        f"relation {text!r} expects {rel.arity} arguments", line, col
                    )
                return AtomRel(text, tuple(args))
            self.pos = save
        left = self.parse_term()
        kind, text, line, col = self.peek()
        if self.at("="):
            self.next()
            return AtomEq(left, self.parse_term())
        if self.at("<"):
            self.next()
            return AtomRel("lt", (left, self.parse_term()))
        raise ParseError("expected '=' or '<' after a term", line, col)

    # terms: same flat arithmetic as the expression grammar

    def parse_term(self) -> Term:
        node = self.parse_term_factor()
        while True:
            kind, text, _, _ = self.peek()
            if kind == "sym" and text in "+-*":
                if text == "-":
                    # do not swallow the arrow of an implication
                    if self.tokens[self.pos + 1][1] == ">":
                        return node
                self.next()
                node = TOp(text, (node, self.parse_term_factor()))
            else:
                return node

    def parse_term_factor(self) -> Term:
        node = self.parse_term_atom()
        while True:
            kind, text, _, _ = self.peek()
            if kind == "name" and text in ("mod", "div"):
                self.next()
                nkind, ntext, line, col = self.next()
                if nkind != "nat" or int(ntext) == 0:
                    raise ParseError(f"{text} requires a nonzero constant", line, col)
                node = TOp(text, (node,), divisor=int(ntext))
            else:
                return node

    def parse_term_atom(self) -> Term:
        kind, text, line, col = self.next()
        if kind == "nat":
            return TConst(int(text))
        if kind == "sym" and text == "(":
            node = self.parse_term()
            self.expect(")")
            return node
        if kind == "name":
            if text in ("pair", "p1", "p2", "ifeq"):
                self.expect("(")
                args = [self.parse_term()]
                while self.at(","):
                    self.next()
                    args.append(self.parse_term())
                self.expect(")")
                arity = {"pair": 2, "p1": 1, "p2": 1, "ifeq": 4}[text]
                if len(args) != arity:
                    raise ParseError(f"{text} expects {arity} arguments", line, col)
                return TOp(text, tuple(args))
            if text in self.registry.functions:
                self.expect("(")
                args = [self.parse_term()]
                while self.at(","):
                    self.next()
                    args.append(self.parse_term())
                self.expect(")")
                fn = self.registry.functions[text]
                if len(args) != fn.arity:
                    raise ParseError(
                        f"function {text!r} expects {fn.arity} arguments", line, col
                    )
                return TApp(text, tuple(args))
            if text in ("mod", "div", "forall", "exists"):
                raise ParseError(f"{text!r} is not a term", line, col)
            return TVar(text)
        raise ParseError(f"expected a term, found {text or 'end of input'!r}", line, col)


def _retokenize(src: str):
    # the shared tokenizer covers everything except the formula symbols
    out = []
    i = 0
    buf = []
    specials = set("=<>!&|.")
    line, col = 1, 1
    for ch in src:
        if ch in specials:
            if buf:
                out.extend(_tokenize("".join(buf))[:-1])
                buf.clear()
            out.append(("sym", ch, line, col))
        else:
            buf.append(ch)
        if ch == "\n":
            line += 1
            col = 1
        else:
            col += 1
    if buf:
        out.extend(_tokenize("".join(buf))[:-1])
    out.append(("eof", "", line, col))
    return out


def parse_formula(source: str, registry: Registry | None = None) -> Formula:
    registry = registry or Registry.default()
    parser = _FormulaParser(_retokenize(source), registry)
    phi = parser.parse_formula()
    kind, text, line, col = parser.peek()
    if kind != "eof":
        raise ParseError(f"trailing input {text!r}", line, col)
    return phi


# ---------------------------------------------------------------------------
# Base evaluation

def eval_term(t: Term, env: Mapping[str, int], registry: Registry) -> int:
    match t:
        case TVar(name):
            if name not in env:
                raise KeyError(f"unbound variable {name!r}")
            return env[name]
        case TConst(v):
            return v
        case TOp(op, args, divisor):
            vals = [eval_term(a, env, registry) for a in args]
            match op:
                case "+":
                    return vals[0] + vals[1]
                case "-":
                    return max(vals[0] - vals[1], 0)
                case "*":
                    return vals[0] * vals[1]
                case "div":
                    return vals[0] // divisor
                case "mod":
                    return vals[0] % divisor
                case "pair":
                    return pair_encode(vals[0], vals[1])
                case "p1":
                    return pair_decode(vals[0])[0]
                case "p2":
                    return pair_decode(vals[0])[1]
                case "ifeq":
                    return vals[2] if vals[0] == vals[1] else vals[3]
            raise ValueError(f"bad operator {op!r}")
        case TApp(fn, args):
            vals = [eval_term(a, env, registry) for a in args]
            return registry.functions[fn].apply(*vals)
    raise TypeError(f"not a Term: {t!r}")


def eval_base(phi: Formula, env: Mapping[str, int],
              registry: Registry | None = None) -> bool:
    """Classical satisfaction in the base structure."""
    registry = registry or Registry.default()
    match phi:
        case AtomEq(l, r):
            return eval_term(l, env, registry) == eval_term(r, env, registry)
        case AtomRel(rel, args):
            vals = [eval_term(a, env, registry) for a in args]
            return registry.relations[rel].holds(*vals)
        case Not(b):
            return not eval_base(b, env, registry)
        case And(l, r):
            return eval_base(l, env, registry) and eval_base(r, env, registry)
        case Or(l, r):
            return eval_base(l, env, registry) or eval_base(r, env, registry)
        case Implies(l, r):
            return (not eval_base(l, env, registry)) or eval_base(r, env, registry)
        case Bounded(kind, var, bound, body):
            limit = eval_term(bound, env, registry)
            inner = dict(env)
            if kind == "exists":
                for y in range(limit):
                    inner[var] = y
                    if eval_base(body, inner, registry):
                        return True
                return False
            for y in range(limit):
                inner[var] = y
                if not eval_base(body, inner, registry):
                    return False
            return True
    raise TypeError(f"not a Formula: {phi!r}")


# ---------------------------------------------------------------------------
# Hyper evaluation

def compile_term(t: Term, env: Mapping[str, FnExpr], registry: Registry) -> FnExpr:
    """Term as an expression of the index, arguments substituted in."""
    match t:
        case TVar(name):
            return env[name]
        case TConst(v):
            return Const(v)
        case TOp(op, args, divisor):
            parts = [compile_term(a, env, registry) for a in args]
            match op:
                case "+":
                    return Add(parts[0], parts[1])
                case "-":
                    return Sub(parts[0], parts[1])
                case "*":
                    return Mul(parts[0], parts[1])
                case "div":
                    return DivC(parts[0], divisor)
                case "mod":
                    return ModC(parts[0], divisor)
                case "pair":
                    return PairE(parts[0], parts[1])
                case "p1":
                    return P1(parts[0])
                case "p2":
                    return P2(parts[0])
                case "ifeq":
                    return IfEq(parts[0], parts[1], parts[2], parts[3])
            raise ValueError(f"bad operator {op!r}")
        case TApp(fn, args):
            parts = [compile_term(a, env, registry) for a in args]
            return Compose(registry.functions[fn].body, tuple_expr(parts))
    raise TypeError(f"not a Term: {t!r}")


def compile_formula(phi: Formula, env: Mapping[str, FnExpr],
                    registry: Registry) -> FnExpr | None:
    """Quantifier-free formulas as 0/1 expressions of the index; None
    when a bounded quantifier blocks compilation."""
    match phi:
        case AtomEq(l, r):
            return IfEq(
                compile_term(l, env, registry),
                compile_term(r, env, registry),
                Const(1),
                Const(0),
            )
        case AtomRel(rel, args):
            parts = [compile_term(a, env, registry) for a in args]
            return Compose(registry.relations[rel].indicator.body, tuple_expr(parts))
        case Not(b):
            inner = compile_formula(b, env, registry)
            return None if inner is None else IfEq(inner, Const(0), Const(1), Const(0))
        case And(l, r):
            cl, cr = compile_formula(l, env, registry), compile_formula(r, env, registry)
            if cl is None or cr is None:
                return None
            return IfEq(cl, Const(0), Const(0), IfEq(cr, Const(0), Const(0), Const(1)))
        case Or(l, r):
            cl, cr = compile_formula(l, env, registry), compile_formula(r, env, registry)
            if cl is None or cr is None:
                return None
            return IfEq(cl, Const(0), IfEq(cr, Const(0), Const(0), Const(1)), Const(1))
        case Implies(l, r):
            return compile_formula(Or(Not(l), r), env, registry)
        case Bounded(_, _, _, _):
            return None
    raise TypeError(f"not a Formula: {phi!r}")


def expand_quantifiers(phi: Formula, env: Mapping[str, FnExpr],
                       registry: Registry, horizon: int,
                       budget: int = 64) -> FnExpr | None:
    """Compile with bounded quantifiers unrolled into finite chains.

    Sound because the unrolling covers every value the bound term takes
    on 0..horizon; gives up (None) when that range exceeds the budget,
    in which case the caller falls back to pointwise evaluation.
    """
    match phi:
        case Bounded(kind, var, bound, body):
            bound_expr = compile_term(bound, env, registry)
            if is_closed(bound_expr):
                k = interpret(bound_expr, 0)
            else:
                k = int(eval_vec(bound_expr, np.arange(horizon + 1)).max())
            if k > budget:
                return None
            inner_budget = max(1, budget // max(k, 1))
            acc: FnExpr | None = None
            for y in range(k):
                inner_env = dict(env)
                inner_env[var] = Const(y)
                piece = expand_quantifiers(body, inner_env, registry, horizon, inner_budget)
                if piece is None:
                    return None
                in_range = IfEq(Sub(bound_expr, Const(y)), Const(0), Const(0), Const(1))
                if kind == "exists":
                    clause = IfEq(in_range, Const(0), Const(0),
                                  IfEq(piece, Const(0), Const(0), Const(1)))
                    acc = clause if acc is None else IfEq(
                        acc, Const(0), clause, Const(1)
                    )
                else:
                    clause = IfEq(in_range, Const(0), Const(1),
                                  IfEq(piece, Const(0), Const(0), Const(1)))
                    acc = clause if acc is None else IfEq(
                        acc, Const(0), Const(0), clause
                    )
            if acc is None:
                return Const(0 if kind == "exists" else 1)
            return acc
        case Not(b):
            inner = expand_quantifiers(b, env, registry, horizon, budget)
            return None if inner is None else IfEq(inner, Const(0), Const(1), Const(0))
        case And(l, r):
            cl = expand_quantifiers(l, env, registry, horizon, budget)
            cr = expand_quantifiers(r, env, registry, horizon, budget)
            if cl is None or cr is None:
                return None
            return IfEq(cl, Const(0), Const(0), IfEq(cr, Const(0), Const(0), Const(1)))
        case Or(l, r):
            cl = expand_quantifiers(l, env, registry, horizon, budget)
            cr = expand_quantifiers(r, env, registry, horizon, budget)
            if cl is None or cr is None:
                return None
            return IfEq(cl, Const(0), IfEq(cr, Const(0), Const(0), Const(1)), Const(1))
        case Implies(l, r):
            return expand_quantifiers(Or(Not(l), r), env, registry, horizon, budget)
        case _:
            return compile_formula(phi, env, registry)


def _pointwise_fn(phi: Formula, env: Mapping[str, FnExpr], registry: Registry):
    """Per-index truth as a composition of compiled expressions.

    Quantifiers become Python loops over a compiled body; the loop
    variable is threaded through a pair encoding so no per-iteration
    environment is built.
    """
    direct = compile_formula(phi, env, registry)
    if direct is not None:
        c = compile_fn(direct)
        return lambda m: c(m) != 0
    match phi:
        case Not(b):
            inner = _pointwise_fn(b, env, registry)
            return lambda m: not inner(m)
        case And(l, r):
            fl, fr = _pointwise_fn(l, env, registry), _pointwise_fn(r, env, registry)
            return lambda m: fl(m) and fr(m)
        case Or(l, r):
            fl, fr = _pointwise_fn(l, env, registry), _pointwise_fn(r, env, registry)
            return lambda m: fl(m) or fr(m)
        case Implies(l, r):
            fl, fr = _pointwise_fn(l, env, registry), _pointwise_fn(r, env, registry)
            return lambda m: (not fl(m)) or fr(m)
        case Bounded(kind, var, bound, body):
            bound_fn = compile_fn(compile_term(bound, env, registry))
            from .funlang import P1 as _P1, P2 as _P2, VAR as _VAR, substitute

            inner_env = {n: substitute(e, _P1(_VAR)) for n, e in env.items()}
            inner_env[var] = _P2(_VAR)
            body_fn = _pointwise_fn(body, inner_env, registry)
            if kind == "exists":
                return lambda m: any(
                    body_fn(pair_encode(m, y)) for y in range(bound_fn(m))
                )
            return lambda m: all(
                body_fn(pair_encode(m, y)) for y in range(bound_fn(m))
            )
    raise TypeError(f"not a Formula: {phi!r}")


def truth_predicate(phi: Formula, env: Mapping[str, Hyperpoint],
                    registry: Registry | None = None,
                    horizon: int | None = None) -> IndexPredicate:
    """The index set on which the formula holds pointwise."""
    registry = registry or Registry.default()
    missing = free_variables(phi) - set(env)
    if missing:
        raise KeyError(f"environment misses variables {sorted(missing)}")
    expr_env = {name: p.seq for name, p in env.items()}
    compiled = compile_formula(phi, expr_env, registry)
    if compiled is None and horizon is not None:
        compiled = expand_quantifiers(phi, expr_env, registry, horizon)
    if compiled is not None:
        return IndexPredicate.from_expr(compiled)

    names = sorted(env)
    binding = ", ".join(f"{n} := {env[n].text}" for n in names)
    text = f"sat[{formula_text(phi)} | {binding}]"
    points = [env[n] for n in names]
    fn = _pointwise_fn(phi, expr_env, registry)

    if all(isinstance(p.seq, Const) for p in points):
        # standard environment: truth is index-independent
        value = bool(fn(0))
        return IndexPredicate.from_fn(lambda _m, v=value: int(v), text)
    return IndexPredicate.from_fn(lambda m: 1 if fn(m) else 0, text)


def eval_hyper(phi: Formula, env: Mapping[str, Hyperpoint], u: Universe,
               registry: Registry | None = None) -> bool:
    """Ultrapower satisfaction: filter membership of the truth set."""
    return u.oracle.query(
        truth_predicate(phi, env, registry, horizon=u.oracle.horizon)
    )


def transfer_check(phi: Formula, env: Mapping[str, int], u: Universe,
                   registry: Registry | None = None) -> bool:
    """Standard parameters: base and hyper truth must coincide exactly."""
    base = eval_base(phi, env, registry)
    hyper_env = {name: u.standard(v) for name, v in env.items()}
    hyper = eval_hyper(phi, hyper_env, u, registry)
    return base == hyper
