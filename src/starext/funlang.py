"""Total-function expression language over the naturals.

The base structure is X = N, with 0 and 1 available as constants. Every
expression denotes a *total* function N -> N: the grammar has no unbounded
search, division and modulus only take a nonzero constant divisor, and
subtraction truncates at 0. Expressions double as index-set predicates
under the convention "0 is false, nonzero is true".

Concrete syntax accepted by :func:`parse_fn`::

    expr := term (('+' | '-' | '*') term)*      # flat, left-associative
    term := atom ('mod' NAT | 'div' NAT)*
    atom := NAT | 'x' | 'ifeq(' e ',' e ',' e ',' e ')'
          | 'pair(' e ',' e ')' | 'p1(' e ')' | 'p2(' e ')'
          | NAME '(' e ')'                      # call of a defined function
          | '(' e ')'

Note the deliberately flat arithmetic level: ``a + b * c`` parses as
``(a + b) * c``. Named definitions (``def name = expr``) are inlined at
parse time, so an FnExpr is always self-contained.

First-order formulas (:mod:`starext.transfer`) use this language for
their terms: a term is an FnExpr whose variables are :class:`Name` leaves,
and binding the names by :func:`substitute` turns it into an ordinary
expression. The tokenizer also knows the formula symbols
``= < ! & | . ->``, so formulas and expressions share one tokenizer and
one parser.

Canonical text is produced by :func:`pretty` applied to a normalized
expression (:func:`normalize`). Normalization inlines compositions and
cancels exact pairing redexes; it is what makes structurally different
routes to the same function collapse to one decision-log key. It is one
walk that substitutes and simplifies together, so a composed term is
rebuilt once, already simplified, with no substituted copy in between.

Nodes stay immutable, but each remembers what was derived from it: its
normal form, its text and whether it is closed (see :class:`FnExpr`).
Those slots hold pure functions of the node and never take part in
``==`` or ``hash``. Since ``*`` composes, new terms keep wrapping
canonical ones, and every walk stops at a node whose answer is known.
An owner that asks related questions passes :func:`normalize` a
:class:`NormalMemo`, so the walks' results outlive each call: a later
walk that meets the same node under the same replacement returns the
node built before, caches included. A :class:`~starext.hyper.Universe`
owns one for its membership queries.

Every recursive walk is a module-level function with an explicit memo,
or unbinds its nested functions before it returns, so no call leaves a
reference cycle: what a walk builds is freed by reference counting as
soon as it is dropped, and the cycle collector has nothing to find.

Evaluation: :func:`interpret` is the reference, one expression at one
natural in exact Python ints. :func:`eval_vec` is the one evaluator for
vectors (truth vectors of :class:`IndexPredicate`, sequence values,
whole-range sweeps) and equals :func:`interpret` entry by entry. An
interval pass picks its dtype: int64 when every node value and the
intermediates ``s*(s+1)`` of pair and ``8z+1`` of unpair stay below
2**62 on 0..max(xs), exact object-dtype Python ints otherwise. Given
truth vectors by canonical text, it reads the condition of a Boolean
connective of known predicates from them instead of evaluating it.
:func:`compile_fn` remains for per-index callers.
"""

from __future__ import annotations

from dataclasses import dataclass
from hashlib import sha256
from math import isqrt
from typing import Callable, Mapping

import numpy as np

from .errors import ParseError

# ---------------------------------------------------------------------------
# Cantor pairing

def pair(x: int, y: int) -> int:
    """Bijection N x N -> N, closed form (x+y)(x+y+1)/2 + y."""
    s = x + y
    return s * (s + 1) // 2 + y


def unpair(z: int) -> tuple[int, int]:
    """Inverse of :func:`pair`."""
    w = (isqrt(8 * z + 1) - 1) // 2
    y = z - w * (w + 1) // 2
    return w - y, y


# ---------------------------------------------------------------------------
# AST

class FnExpr:
    """Base class of expression nodes. Nodes are immutable and hashable.

    Three slots cache facts derived from a node: ``_nf`` its normal form
    (:func:`normalize`, whose walk swaps the node for it; ``True`` when
    that is the node itself, so that no node refers to itself and each is
    freed with its last reference),
    ``_pp`` its text and chain flag (:func:`pretty`) and ``_closed``
    (:func:`is_closed`). Each holds a pure function of the node's
    structure, is written with ``object.__setattr__`` and is not a
    dataclass field, so it never takes part in ``==``, ``hash`` or
    ``repr``; an unset slot reads as absent. A cache lives exactly as
    long as its node, and an ``_nf`` that holds a node is never rewritten.
    """

    __slots__ = ("_nf", "_pp", "_closed")


#: writes a cache slot of a frozen node (see :class:`FnExpr`)
_remember = object.__setattr__


@dataclass(frozen=True, slots=True)
class Const(FnExpr):
    value: int


@dataclass(frozen=True, slots=True)
class Var(FnExpr):
    pass


VAR = Var()

#: leaves are never looked up in the caches: reading an unset slot raises
#: and clears an AttributeError, which costs more than a leaf's answer
_LEAVES = frozenset({Const, Var})


@dataclass(frozen=True, slots=True)
class Name(FnExpr):
    """A free named variable of a formula term. Only :func:`substitute`,
    :func:`normalize` and :func:`pretty` accept it; bind every name before
    evaluating."""

    name: str


@dataclass(frozen=True, slots=True)
class Add(FnExpr):
    left: FnExpr
    right: FnExpr


@dataclass(frozen=True, slots=True)
class Sub(FnExpr):
    """Truncated subtraction: max(left - right, 0)."""

    left: FnExpr
    right: FnExpr


@dataclass(frozen=True, slots=True)
class Mul(FnExpr):
    left: FnExpr
    right: FnExpr


@dataclass(frozen=True, slots=True)
class DivC(FnExpr):
    """Floor division by a nonzero constant."""

    arg: FnExpr
    divisor: int

    def __post_init__(self):
        if self.divisor <= 0:
            raise ValueError("division only by a positive constant")


@dataclass(frozen=True, slots=True)
class ModC(FnExpr):
    """Remainder modulo a nonzero constant."""

    arg: FnExpr
    divisor: int

    def __post_init__(self):
        if self.divisor <= 0:
            raise ValueError("modulus only by a positive constant")


@dataclass(frozen=True, slots=True)
class IfEq(FnExpr):
    """ifeq(a, b, t, o): t if a = b else o."""

    a: FnExpr
    b: FnExpr
    then: FnExpr
    other: FnExpr


@dataclass(frozen=True, slots=True)
class PairE(FnExpr):
    left: FnExpr
    right: FnExpr


@dataclass(frozen=True, slots=True)
class P1(FnExpr):
    arg: FnExpr


@dataclass(frozen=True, slots=True)
class P2(FnExpr):
    arg: FnExpr


@dataclass(frozen=True, slots=True)
class Compose(FnExpr):
    """outer after inner: x -> outer(inner(x))."""

    outer: FnExpr
    inner: FnExpr


@dataclass(frozen=True, slots=True)
class Table(FnExpr):
    """Finite lookup applied to a subexpression.

    Not part of the published grammar; used internally for functions that
    are only known on a finite sample. ``default`` of None means identity
    outside the table, otherwise the given constant.
    """

    arg: FnExpr
    entries: tuple[tuple[int, int], ...]
    default: int | None

    def __post_init__(self):
        keys = [k for k, _ in self.entries]
        if keys != sorted(set(keys)):
            raise ValueError("table entries must be sorted by unique key")


def succ(e: FnExpr) -> FnExpr:
    return Add(e, Const(1))


def pred(e: FnExpr) -> FnExpr:
    return Sub(e, Const(1))


def and_(p: FnExpr, q: FnExpr) -> FnExpr:
    """Conjunction of truth values (0 false, nonzero true), as 0/1."""
    return IfEq(p, Const(0), Const(0), IfEq(q, Const(0), Const(0), Const(1)))


def or_(p: FnExpr, q: FnExpr) -> FnExpr:
    """Disjunction of truth values, as 0/1."""
    return IfEq(p, Const(0), IfEq(q, Const(0), Const(0), Const(1)), Const(1))


def not_(p: FnExpr) -> FnExpr:
    """Negation of a truth value, as 0/1."""
    return IfEq(p, Const(0), Const(1), Const(0))


#: characteristic function of the diagonal on pair-encoded arguments
CHI_DIAG = IfEq(P1(VAR), P2(VAR), Const(1), Const(0))


# ---------------------------------------------------------------------------
# Evaluation

def interpret(e: FnExpr, x: int) -> int:
    """Reference evaluator. Total for every grammar-valid expression."""
    match e:
        case Const(v):
            return v
        case Var():
            return x
        case Add(a, b):
            return interpret(a, x) + interpret(b, x)
        case Sub(a, b):
            l, r = interpret(a, x), interpret(b, x)
            return l - r if l >= r else 0
        case Mul(a, b):
            return interpret(a, x) * interpret(b, x)
        case DivC(a, d):
            return interpret(a, x) // d
        case ModC(a, d):
            return interpret(a, x) % d
        case IfEq(a, b, t, o):
            if interpret(a, x) == interpret(b, x):
                return interpret(t, x)
            return interpret(o, x)
        case PairE(a, b):
            return pair(interpret(a, x), interpret(b, x))
        case P1(a):
            return unpair(interpret(a, x))[0]
        case P2(a):
            return unpair(interpret(a, x))[1]
        case Compose(f, g):
            return interpret(f, interpret(g, x))
        case Table(a, entries, default):
            v = interpret(a, x)
            for k, out in entries:
                if k == v:
                    return out
            return v if default is None else default
        case _:
            raise TypeError(f"not an FnExpr: {e!r}")


def compile_fn(e: FnExpr) -> Callable[[int], int]:
    """Compile to a Python function.

    Generates straight-line assignments with one temp per distinct subterm,
    so shared subtrees (ubiquitous after composition inlining) are
    evaluated once.
    """
    lines: list[str] = []
    names: dict[tuple[int, str], str] = {}
    namespace: dict[str, object] = {"_pair": pair, "_unpair": unpair}

    def fresh(rhs: str) -> str:
        name = f"t{len(lines)}"
        lines.append(f"    {name} = {rhs}")
        return name

    def emit(node: FnExpr, var: str) -> str:
        key = (id(node), var)
        if key in names:
            return names[key]
        match node:
            case Const(v):
                out = repr(v)
            case Var():
                out = var
            case Add(a, b):
                out = fresh(f"{emit(a, var)} + {emit(b, var)}")
            case Sub(a, b):
                la, lb = emit(a, var), emit(b, var)
                out = fresh(f"{la} - {lb} if {la} >= {lb} else 0")
            case Mul(a, b):
                out = fresh(f"{emit(a, var)} * {emit(b, var)}")
            case DivC(a, d):
                out = fresh(f"{emit(a, var)} // {d}")
            case ModC(a, d):
                out = fresh(f"{emit(a, var)} % {d}")
            case IfEq(a, b, t, o):
                cond = fresh(f"{emit(a, var)} == {emit(b, var)}")
                out = fresh(f"{emit(t, var)} if {cond} else {emit(o, var)}")
            case PairE(a, b):
                out = fresh(f"_pair({emit(a, var)}, {emit(b, var)})")
            case P1(a):
                out = fresh(f"_unpair({emit(a, var)})[0]")
            case P2(a):
                out = fresh(f"_unpair({emit(a, var)})[1]")
            case Compose(f, g):
                out = emit(f, emit(g, var))
            case Table(a, entries, default):
                tname = f"_tab{len(namespace)}"
                namespace[tname] = dict(entries)
                av = emit(a, var)
                if default is None:
                    out = fresh(f"{tname}.get({av}, {av})")
                else:
                    out = fresh(f"{tname}.get({av}, {default})")
            case _:
                raise TypeError(f"not an FnExpr: {node!r}")
        names[key] = out
        return out

    result = emit(e, "x")
    del emit  # it refers to itself: unbound, it is freed on return
    src = "def _f(x):\n" + "\n".join(lines) + f"\n    return {result}\n"
    exec(compile(src, "<funlang>", "exec"), namespace)
    # out of its own globals, the function is freed with its last user
    return namespace.pop("_f")  # type: ignore[return-value]


# ---------------------------------------------------------------------------
# Vectorised evaluation

#: every node value and intermediate below this bound keeps int64 exact,
#: with headroom for the sums and products the evaluator forms
INT64_SAFE = 1 << 62


def _bound_pass(e: FnExpr, x_max: int, known: Mapping[str, np.ndarray] | None = None,
                shape: tuple[int, ...] = ()) -> tuple[bool, set[int], dict[int, np.ndarray]]:
    """Interval pass over ``e`` on inputs 0..x_max.

    Returns ``(fits, shared, decided)``. ``fits`` is True when every node
    value and the intermediates ``s*(s+1)`` of pair and ``8z+1`` of unpair
    stay below :data:`INT64_SAFE`; bounds saturate there, so the walk
    always finishes. ``shared`` holds the ids of the nodes reached twice
    with the same input bound, the nodes whose values :func:`eval_vec`
    keeps for reuse. ``decided`` maps the id of each ``ifeq(p, 0, t, o)``
    whose ``p`` has its text cached and a truth vector of ``shape`` in
    ``known`` to that vector; ``p`` is not walked. It is empty when ``e``
    holds a composition, since ``known`` describes the top-level input
    only.
    """
    memo: dict[tuple[int, int], int] = {}
    shared: set[int] = set()
    decided: dict[int, np.ndarray] = {}
    fits = True
    composed = False

    def cap(v: int) -> int:
        nonlocal fits
        if v >= INT64_SAFE:
            fits = False
            return INT64_SAFE
        return v

    def bound(node: FnExpr, vb: int) -> int:
        nonlocal composed
        key = (id(node), vb)
        if key in memo:
            shared.add(key[0])
            return memo[key]
        match node:
            case Const(v):
                out = v
            case Var():
                out = vb
            case Add(a, b):
                out = bound(a, vb) + bound(b, vb)
            case Sub(a, b):
                bound(b, vb)
                out = bound(a, vb)
            case Mul(a, b):
                out = bound(a, vb) * bound(b, vb)
            case DivC(a, d):
                out = bound(a, vb) // cap(d)
            case ModC(a, d):
                out = min(bound(a, vb), cap(d) - 1)
            case IfEq(a, b, t, o):
                truth = _known_truth(a, b, known, shape) if known else None
                if truth is None:
                    bound(a, vb)
                    bound(b, vb)
                else:
                    decided[key[0]] = truth
                out = max(bound(t, vb), bound(o, vb))
            case PairE(a, b):
                r = bound(b, vb)
                s = bound(a, vb) + r
                out = cap(s * (s + 1)) // 2 + r
            case P1(a) | P2(a):
                out = bound(a, vb)
                cap(8 * out + 1)
            case Compose(f, g):
                composed = True
                out = bound(f, bound(g, vb))
            case Table(a, entries, default):
                av = bound(a, vb)
                for k, _ in entries:
                    cap(k)
                outs = [v for _, v in entries]
                out = max(outs + [av if default is None else default])
            case _:
                raise TypeError(f"not an FnExpr: {node!r}")
        memo[key] = out = cap(out)
        return out

    bound(e, x_max)
    del bound  # it refers to itself: unbound, it and the memo are freed on return
    if decided and composed:
        return _bound_pass(e, x_max)
    return fits, shared, decided


def _known_truth(a: FnExpr, b: FnExpr, known: Mapping[str, np.ndarray],
                 shape: tuple[int, ...]) -> np.ndarray | None:
    """The truth vector of ``a`` from ``known``, when ``ifeq(a, b, ...)``
    tests ``a`` for falsity and ``a`` is compound with its text cached."""
    if type(b) is not Const or b.value != 0 or type(a) in _LEAVES:
        return None
    pp = getattr(a, "_pp", None)
    if pp is None:
        return None
    truth = known.get(pp[0])
    return truth if truth is not None and truth.shape == shape else None


_isqrt_obj = np.frompyfunc(isqrt, 1, 1)


def _unpair_vec(z, exact: bool):
    if not isinstance(z, np.ndarray):
        return unpair(z)
    if exact:
        w = (_isqrt_obj(8 * z + 1) - 1) // 2
    else:
        # for z < 2**59 the float root is off by at most one; one integer
        # correction step in each direction makes it exact
        w = ((np.sqrt(8.0 * z + 1.0) - 1.0) / 2.0).astype(np.int64)
        w -= w * (w + 1) // 2 > z
        w += (w + 1) * (w + 2) // 2 <= z
    y = z - w * (w + 1) // 2
    return w - y, y


def eval_vec(e: FnExpr, xs, known: Mapping[str, np.ndarray] | None = None) -> np.ndarray:
    """Evaluate ``e`` at every entry of ``xs``; equal to :func:`interpret`
    entry by entry.

    An interval pass over the tree picks the dtype: int64 when every
    bound stays below :data:`INT64_SAFE` on 0..max(xs), exact object-dtype
    Python ints otherwise. Shared subtrees are evaluated once.

    ``known`` maps canonical texts to boolean truth vectors over the same
    ``xs`` (an entry of another shape is ignored). At ``ifeq(p, 0, t, o)``,
    the shape of :func:`not_`, :func:`and_` and :func:`or_`, whose ``p``
    is a compound node with its text cached by :func:`pretty` and listed
    in ``known``, the condition is the negated vector and ``p`` is not
    evaluated. This holds only in an expression without compositions,
    where every node reads the input ``xs`` itself; normal forms are such.
    """
    xs = np.asarray(xs)
    x_max = int(xs.max()) if xs.size else 0
    fits, shared, decided = _bound_pass(e, x_max, known, xs.shape)
    # the inputs must fit too, also when no node reads them
    exact = not fits or x_max >= INT64_SAFE
    dtype = object if exact else np.int64
    xs = xs.astype(dtype)
    # only values of shared nodes are kept, so the intermediates of the
    # rest are freed as soon as they are used
    memo: dict[tuple, object] = {}
    # memo keys hold the id of the variable's value, so every value bound
    # by a composition stays alive until the end
    bindings: list[object] = []

    def unp(node: FnExpr, var):
        key = ("unpair", id(node), id(var))
        if key in memo:
            return memo[key]
        out = _unpair_vec(go(node, var), exact)
        if key[1] in shared:
            memo[key] = out
        return out

    def go(node: FnExpr, var):
        key = (id(node), id(var))
        if key in memo:
            return memo[key]
        match node:
            case Const(v):
                out = v
            case Var():
                out = var
            case Add(a, b):
                out = go(a, var) + go(b, var)
            case Sub(a, b):
                d = go(a, var) - go(b, var)
                out = np.maximum(d, 0) if isinstance(d, np.ndarray) else max(d, 0)
            case Mul(a, b):
                out = go(a, var) * go(b, var)
            case DivC(a, d):
                out = go(a, var) // d
            case ModC(a, d):
                out = go(a, var) % d
            case IfEq(a, b, t, o):
                truth = decided.get(key[0]) if decided else None
                cond = go(a, var) == go(b, var) if truth is None else ~truth
                t, o = go(t, var), go(o, var)
                if isinstance(cond, np.ndarray):
                    out = np.where(cond, np.asarray(t, dtype), np.asarray(o, dtype))
                else:
                    out = t if cond else o
            case PairE(a, b):
                r = go(b, var)
                s = go(a, var) + r
                out = s * (s + 1) // 2 + r
            case P1(a):
                out = unp(a, var)[0]
            case P2(a):
                out = unp(a, var)[1]
            case Compose(f, g):
                inner = go(g, var)
                bindings.append(inner)
                out = go(f, inner)
            case Table(a, entries, default):
                out = _lookup_vec(go(a, var), entries, default, dtype)
            case _:
                raise TypeError(f"not an FnExpr: {node!r}")
        if key[0] in shared:
            memo[key] = out
        return out

    out = go(e, xs)
    del go, unp  # they refer to each other: unbound, they and the memo die on return
    if isinstance(out, np.ndarray):
        return out
    return np.full(xs.shape, out, dtype=dtype)


def _lookup_vec(v, entries, default, dtype):
    table = dict(entries)

    def get(k):
        return table.get(k, k if default is None else default)

    if not isinstance(v, np.ndarray):
        return get(v)
    if dtype is object or not entries:
        return np.array([get(k) for k in v.tolist()], dtype=dtype).reshape(v.shape)
    keys = np.array([k for k, _ in entries], dtype=dtype)
    outs = np.array([w for _, w in entries], dtype=dtype)
    pos = np.minimum(np.searchsorted(keys, v), len(keys) - 1)
    return np.where(keys[pos] == v, outs[pos], v if default is None else default)


def is_closed(e: FnExpr) -> bool:
    """True when the expression contains no input variable."""
    if type(e) in _LEAVES:
        return type(e) is Const
    closed = getattr(e, "_closed", None)
    if closed is not None:
        return closed
    match e:
        case Add(a, b) | Sub(a, b) | Mul(a, b) | PairE(a, b):
            closed = is_closed(a) and is_closed(b)
        case DivC(a, _) | ModC(a, _) | P1(a) | P2(a):
            closed = is_closed(a)
        case IfEq(a, b, t, o):
            closed = is_closed(a) and is_closed(b) and is_closed(t) and is_closed(o)
        case Compose(f, g):
            closed = is_closed(g) or is_closed(f)
        case Table(a, _, _):
            closed = is_closed(a)
        case _:
            raise TypeError(f"not an FnExpr: {e!r}")
    _remember(e, "_closed", closed)
    return closed


# ---------------------------------------------------------------------------
# Substitution and normalization

def substitute(e: FnExpr, repl: FnExpr | Mapping[str, FnExpr]) -> FnExpr:
    """Replace the input variable by ``repl``. Given a mapping instead,
    replace every :class:`Name` by its entry (KeyError when one is
    missing) and keep the input variable."""
    return _subst(e, repl, None if isinstance(repl, FnExpr) else repl, {})


def _subst(node: FnExpr, repl, names, memo: dict[int, FnExpr]) -> FnExpr:
    key = id(node)
    if key in memo:
        return memo[key]
    match node:
        case Var():
            out: FnExpr = repl if names is None else node
        case Const():
            out = node
        case Add(a, b):
            out = Add(_subst(a, repl, names, memo), _subst(b, repl, names, memo))
        case Sub(a, b):
            out = Sub(_subst(a, repl, names, memo), _subst(b, repl, names, memo))
        case Mul(a, b):
            out = Mul(_subst(a, repl, names, memo), _subst(b, repl, names, memo))
        case DivC(a, d):
            out = DivC(_subst(a, repl, names, memo), d)
        case ModC(a, d):
            out = ModC(_subst(a, repl, names, memo), d)
        case IfEq(a, b, t, o):
            out = IfEq(_subst(a, repl, names, memo), _subst(b, repl, names, memo),
                       _subst(t, repl, names, memo), _subst(o, repl, names, memo))
        case PairE(a, b):
            out = PairE(_subst(a, repl, names, memo), _subst(b, repl, names, memo))
        case P1(a):
            out = P1(_subst(a, repl, names, memo))
        case P2(a):
            out = P2(_subst(a, repl, names, memo))
        case Compose(f, g):
            # the outer function's variable is its own; names are global
            out = Compose(f if names is None else _subst(f, repl, names, memo),
                          _subst(g, repl, names, memo))
        case Table(a, entries, default):
            out = Table(_subst(a, repl, names, memo), entries, default)
        case Name(name):
            # Name cases come last here and in normalize/pretty: those
            # walks are hot, and only formula terms hold names
            out = node if names is None else names[name]
        case _:
            raise TypeError(f"not an FnExpr: {node!r}")
    memo[key] = out
    return out


class NormalMemo:
    """The memo of :func:`normalize` walks, shared by one owner's calls.

    ``table`` maps ``(id(node), id(repl))`` to the normal form of ``node``
    with its variable replaced by ``repl``, and ``roots`` holds every
    expression walked through it. A later walk that meets a node under the
    same replacement returns the very node built before, whose text,
    closedness and truth vector may already be known. Ids are only unique
    while their objects live, so the memo holds every node it keys: each is
    reached from a root through children and ``_nf`` slots (a slot that
    holds a node is never rewritten), or is a value of ``table``. Nothing
    else refers to the memo, so it dies with its owner, and it grows with
    every root: give it to an owner that lives for a bounded number of
    calls.
    """

    __slots__ = ("table", "roots")

    def __init__(self) -> None:
        self.table: dict[tuple[int, int], FnExpr] = {}
        self.roots: list[FnExpr] = []


def normalize(e: FnExpr, memo: NormalMemo | None = None) -> FnExpr:
    """Canonical form: no Compose nodes, exact redexes cancelled.

    Rewrites applied (all exact identities of the denoted functions):
      * ``Compose(f, g)``      -> f with its variable replaced by g
      * ``p1(pair(a, b))``     -> a,  ``p2(pair(a, b))`` -> b
      * ``ifeq(a, a, t, o)``   -> t  (structural identity of a)

    One walk substitutes and simplifies together: a node is visited with
    the normal form that replaces its variable, ``Compose(f, g)`` visits
    f with the normal form of g, and each rule is applied to children
    that are already normal. The rewrites are confluent, so the walk may
    swap a node whose ``_nf`` is known for that normal form, and stops
    there when the variable is not replaced.

    With ``memo`` (see :class:`NormalMemo`) the walk's results outlive the
    call, so a later call that reaches the same node under the same
    replacement stops there with the node built before.
    """
    nf = getattr(e, "_nf", None)
    if nf is not None:
        return e if nf is True else nf
    if memo is None:
        out = _normal(e, VAR, {})
    else:
        memo.roots.append(e)
        out = _normal(e, VAR, memo.table)
    if out is e:
        _remember(e, "_nf", True)  # no self-reference
    else:
        _remember(e, "_nf", out)
        if getattr(out, "_nf", None) is None:
            _remember(out, "_nf", True)
    return out


def _normal(node: FnExpr, repl: FnExpr, memo: dict[tuple[int, int], FnExpr]) -> FnExpr:
    """Normal form of ``node`` with its variable replaced by the normal
    form ``repl``. ``memo`` is keyed by the ids of both, so subtrees shared
    in the input stay shared; every node returned is held by the input, a
    known normal form or ``memo``, so those ids stay unique."""
    cls = type(node)
    if cls is Var:
        return repl
    if cls is Const:
        return node
    key = (id(node), id(repl))
    if key in memo:
        return memo[key]
    nf = getattr(node, "_nf", None)
    if nf is True:
        if repl is VAR:
            return node
    elif nf is not None:
        return nf if repl is VAR else _normal(nf, repl, memo)
    match node:
        case Compose(f, g):
            out = _normal(f, _normal(g, repl, memo), memo)
        case Add(a, b):
            out = Add(_normal(a, repl, memo), _normal(b, repl, memo))
        case Sub(a, b):
            out = Sub(_normal(a, repl, memo), _normal(b, repl, memo))
        case Mul(a, b):
            out = Mul(_normal(a, repl, memo), _normal(b, repl, memo))
        case DivC(a, d):
            out = DivC(_normal(a, repl, memo), d)
        case ModC(a, d):
            out = ModC(_normal(a, repl, memo), d)
        case IfEq(a, b, t, o):
            sa, sb = _normal(a, repl, memo), _normal(b, repl, memo)
            if sa == sb:
                out = _normal(t, repl, memo)
            else:
                out = IfEq(sa, sb, _normal(t, repl, memo), _normal(o, repl, memo))
        case PairE(a, b):
            out = PairE(_normal(a, repl, memo), _normal(b, repl, memo))
        case P1(a):
            sa = _normal(a, repl, memo)
            out = sa.left if isinstance(sa, PairE) else P1(sa)
        case P2(a):
            sa = _normal(a, repl, memo)
            out = sa.right if isinstance(sa, PairE) else P2(sa)
        case Table(a, entries, default):
            out = Table(_normal(a, repl, memo), entries, default)
        case Name():
            out = node
        case _:
            raise TypeError(f"not an FnExpr: {node!r}")
    memo[key] = out
    return out


# ---------------------------------------------------------------------------
# Pretty printing

def pretty(e: FnExpr) -> str:
    """Canonical concrete syntax. ``parse_fn(pretty(e)) == e`` for
    normalized, Table-free expressions.

    The result is kept on ``e`` only: kept on every subtree, the texts of
    all subtrees would stay alive."""
    pp = getattr(e, "_pp", None)
    if pp is None:
        pp = _text(e, {})
        _remember(e, "_pp", pp)
    return pp[0]


def _text(node: FnExpr, memo: dict[int, tuple[str, bool]]) -> tuple[str, bool]:
    """(text, is_chain) of ``node``, where is_chain marks a top-level + - *."""
    key = id(node)
    if key in memo:
        return memo[key]
    if type(node) not in _LEAVES:
        out = getattr(node, "_pp", None)
        if out is not None:
            return out
    match node:
        case Const(v):
            out = (str(v), False)
        case Var():
            out = ("x", False)
        case Add(a, b):
            # the left operand of a chain may itself be a chain
            out = (f"{_text(a, memo)[0]} + {_atom(b, memo)}", True)
        case Sub(a, b):
            out = (f"{_text(a, memo)[0]} - {_atom(b, memo)}", True)
        case Mul(a, b):
            out = (f"{_text(a, memo)[0]} * {_atom(b, memo)}", True)
        case DivC(a, d):
            out = (f"{_atom(a, memo)} div {d}", False)
        case ModC(a, d):
            out = (f"{_atom(a, memo)} mod {d}", False)
        case IfEq(a, b, t, o):
            out = (
                f"ifeq({_text(a, memo)[0]}, {_text(b, memo)[0]}, "
                f"{_text(t, memo)[0]}, {_text(o, memo)[0]})",
                False,
            )
        case PairE(a, b):
            out = (f"pair({_text(a, memo)[0]}, {_text(b, memo)[0]})", False)
        case P1(a):
            out = (f"p1({_text(a, memo)[0]})", False)
        case P2(a):
            out = (f"p2({_text(a, memo)[0]})", False)
        case Compose(_, _):
            out = _text(normalize(node), memo)
        case Table(a, entries, default):
            digest = sha256(repr((entries, default)).encode()).hexdigest()[:12]
            out = (f"table#{digest}({_text(a, memo)[0]})", False)
        case Name(name):
            out = (name, False)
        case _:
            raise TypeError(f"not an FnExpr: {node!r}")
    memo[key] = out
    return out


def _atom(node: FnExpr, memo: dict[int, tuple[str, bool]]) -> str:
    text, is_chain = _text(node, memo)
    return f"({text})" if is_chain else text


# ---------------------------------------------------------------------------
# Parsing

#: one-character symbols; the formula symbols = < ! & | . are here too
_SYMBOLS = {"+", "-", "*", "(", ")", ",", "=", "<", "!", "&", "|", "."}
_KEYWORDS = {"ifeq", "pair", "p1", "p2", "mod", "div"}
_ARITH = {"+": Add, "-": Sub, "*": Mul}


def _tokenize(src: str, line: int = 1, col: int = 1) -> list[tuple[str, str, int, int]]:
    """Tokens (kind, text, line, col); ``line``/``col`` place the first
    character of ``src`` in a larger text."""
    tokens = []
    i = 0
    while i < len(src):
        c = src[i]
        if c == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if c.isspace():
            i += 1
            col += 1
            continue
        if c == "#":
            while i < len(src) and src[i] != "\n":
                i += 1
            continue
        if src.startswith("->", i):
            tokens.append(("sym", "->", line, col))
            i += 2
            col += 2
            continue
        if c in _SYMBOLS:
            tokens.append(("sym", c, line, col))
            i += 1
            col += 1
            continue
        if c.isdigit():
            j = i
            while j < len(src) and src[j].isdigit():
                j += 1
            tokens.append(("nat", src[i:j], line, col))
            col += j - i
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < len(src) and (src[j].isalnum() or src[j] == "_"):
                j += 1
            tokens.append(("name", src[i:j], line, col))
            col += j - i
            i = j
            continue
        raise ParseError(f"unexpected character {c!r}", line, col)
    tokens.append(("eof", "", line, col))
    return tokens


class _Parser:
    def __init__(self, tokens, defs: Mapping[str, FnExpr] | None):
        self.tokens = tokens
        self.pos = 0
        self.defs = defs or {}

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, value: str):
        kind, text, line, col = self.next()
        if text != value:
            raise ParseError(f"expected {value!r}, found {text or 'end of input'!r}", line, col)

    def finish(self, node):
        """``node``, once the whole input is consumed."""
        kind, text, line, col = self.peek()
        if kind != "eof":
            raise ParseError(f"trailing input {text!r}", line, col)
        return node

    def parse_expr(self) -> FnExpr:
        node = self.parse_term()
        while True:
            kind, text, _, _ = self.peek()
            if kind == "sym" and text in _ARITH:
                self.next()
                node = _ARITH[text](node, self.parse_term())
            else:
                return node

    def parse_term(self) -> FnExpr:
        node = self.parse_atom()
        while True:
            kind, text, _, _ = self.peek()
            if kind == "name" and text in ("mod", "div"):
                self.next()
                nkind, ntext, line, col = self.next()
                if nkind != "nat":
                    raise ParseError(f"{text} requires a constant divisor", line, col)
                d = int(ntext)
                if d == 0:
                    raise ParseError(f"{text} by zero rejected", line, col)
                node = (ModC if text == "mod" else DivC)(node, d)
            else:
                return node

    def parse_atom(self) -> FnExpr:
        kind, text, line, col = self.next()
        if kind == "nat":
            return Const(int(text))
        if kind == "sym" and text == "(":
            node = self.parse_expr()
            self.expect(")")
            return node
        if kind == "name":
            if text == "x":
                return VAR
            if text == "ifeq":
                self.expect("(")
                a = self.parse_expr()
                self.expect(",")
                b = self.parse_expr()
                self.expect(",")
                t = self.parse_expr()
                self.expect(",")
                o = self.parse_expr()
                self.expect(")")
                return IfEq(a, b, t, o)
            if text == "pair":
                self.expect("(")
                a = self.parse_expr()
                self.expect(",")
                b = self.parse_expr()
                self.expect(")")
                return PairE(a, b)
            if text in ("p1", "p2"):
                self.expect("(")
                a = self.parse_expr()
                self.expect(")")
                return (P1 if text == "p1" else P2)(a)
            if text in ("mod", "div"):
                raise ParseError(f"{text!r} is not an atom", line, col)
            if text in self.defs:
                self.expect("(")
                arg = self.parse_expr()
                self.expect(")")
                return substitute(self.defs[text], arg)
            raise ParseError(f"unknown name {text!r}", line, col)
        raise ParseError(
            f"expected an expression, found {text or 'end of input'!r}", line, col
        )


def parse_fn(source: str, defs: Mapping[str, FnExpr] | None = None,
             line: int = 1, col: int = 1) -> FnExpr:
    """Parse one expression. ``defs`` supplies named functions for calls,
    which are inlined. ``line``/``col`` place ``source`` in a larger text,
    so errors carry positions in that text."""
    parser = _Parser(_tokenize(source, line, col), defs)
    return parser.finish(parser.parse_expr())


def parse_definition(line: str, lineno: int, defs: Mapping[str, FnExpr],
                     keyword: str = "def") -> tuple[str, FnExpr]:
    """Parse line ``lineno`` of a larger text, ``def name = expr`` with
    ``keyword`` in place of ``def``. The body may call ``defs``; a name
    already there, a keyword or ``x`` is rejected. Errors carry ``lineno``
    and the column in ``line``."""
    code = line.split("#", 1)[0]
    if not code.lstrip().startswith(keyword + " "):
        raise ParseError(f"expected '{keyword} name = expr'", lineno, 1)
    head, _, body = code.partition("=")
    name = head.strip()[len(keyword):].strip()
    if not name.isidentifier() or name in _KEYWORDS or name == "x":
        raise ParseError(f"bad definition name {name!r}", lineno, 1)
    if name in defs:
        raise ParseError(f"duplicate definition {name!r}", lineno, 1)
    if not body.strip():
        raise ParseError("empty definition body", lineno, 1)
    parser = _Parser(_tokenize(body, lineno, len(head) + 2), defs)
    return name, parser.finish(parser.parse_expr())


def parse_definitions(source: str) -> dict[str, FnExpr]:
    """Parse a block of ``def name = expr`` lines. Later definitions may
    call earlier ones."""
    defs: dict[str, FnExpr] = {}
    for lineno, line in enumerate(source.splitlines(), start=1):
        if line.split("#", 1)[0].strip():
            name, expr = parse_definition(line, lineno, defs)
            defs[name] = expr
    return defs


# ---------------------------------------------------------------------------
# Index predicates

class IndexPredicate:
    """A decidable subset of the index set N.

    ``text`` is the canonical identity: two predicates with equal text are
    the same oracle query and share a decision-log entry. Truth at n means
    the underlying value is nonzero. A predicate carries an expression,
    whose truth vector comes from :func:`eval_vec`, or only a per-index
    callable (quantified ``sat[...]`` formulas and combinations of them).
    """

    __slots__ = ("text", "expr", "_fn", "_compiled")

    def __init__(
        self,
        text: str,
        expr: FnExpr | None = None,
        fn: Callable[[int], int] | None = None,
    ):
        if expr is None and fn is None:
            raise ValueError("predicate needs an expression or a callable")
        self.text = text
        self.expr = expr
        self._fn = fn
        self._compiled: Callable[[int], int] | None = None

    def __repr__(self):
        return f"IndexPredicate({self.text!r})"

    # -- construction ------------------------------------------------------

    @classmethod
    def from_expr(cls, expr: FnExpr, memo: NormalMemo | None = None) -> "IndexPredicate":
        """The predicate of ``expr``, canonicalised through ``memo`` when
        given (see :func:`normalize`)."""
        norm = normalize(expr, memo)
        return cls(pretty(norm), expr=norm)

    @classmethod
    def from_fn(cls, fn: Callable[[int], int], text: str) -> "IndexPredicate":
        return cls(text, fn=fn)

    @classmethod
    def agreement(cls, a: FnExpr, b: FnExpr) -> "IndexPredicate":
        """The set {n : a(n) = b(n)}."""
        return cls.from_expr(IfEq(normalize(a), normalize(b), Const(1), Const(0)))

    @classmethod
    def full(cls) -> "IndexPredicate":
        return cls.from_expr(Const(1))

    @classmethod
    def empty(cls) -> "IndexPredicate":
        return cls.from_expr(Const(0))

    # -- combinators ---------------------------------------------------------

    def negate(self) -> "IndexPredicate":
        if self.expr is not None:
            return IndexPredicate.from_expr(not_(self.expr))
        return IndexPredicate(
            f"not[{self.text}]", fn=lambda n: 0 if self.truth_at(n) else 1
        )

    def conj(self, other: "IndexPredicate") -> "IndexPredicate":
        return _combine(self, other, "and")

    def disj(self, other: "IndexPredicate") -> "IndexPredicate":
        return _combine(self, other, "or")

    # -- evaluation ----------------------------------------------------------

    def constant_value(self) -> bool | None:
        """Truth value when the predicate does not depend on the index."""
        if self.expr is not None and is_closed(self.expr):
            return interpret(self.expr, 0) != 0
        return None

    def truth_at(self, n: int) -> bool:
        if self._fn is not None:
            return self._fn(n) != 0
        if self._compiled is None:
            self._compiled = compile_fn(self.expr)  # type: ignore[arg-type]
        return self._compiled(n) != 0

    def mask(self, horizon: int,
             known: Mapping[str, np.ndarray] | None = None) -> np.ndarray:
        """Boolean truth vector over indices 0..horizon inclusive.

        ``known`` maps canonical texts to truth vectors over the same
        indices, such as the oracle's mask cache; :func:`eval_vec` reads
        the conditions of Boolean connectives from it."""
        if self.expr is not None:
            return eval_vec(self.expr, np.arange(horizon + 1), known) != 0
        f = self._fn
        return np.fromiter(
            (f(n) != 0 for n in range(horizon + 1)), dtype=bool, count=horizon + 1
        )


def _combine(p: IndexPredicate, q: IndexPredicate, op: str) -> IndexPredicate:
    if p.expr is not None and q.expr is not None:
        return IndexPredicate.from_expr((and_ if op == "and" else or_)(p.expr, q.expr))
    if op == "and":
        fn = lambda n: 1 if (p.truth_at(n) and q.truth_at(n)) else 0
    else:
        fn = lambda n: 1 if (p.truth_at(n) or q.truth_at(n)) else 0
    return IndexPredicate(f"{op}[{p.text} ; {q.text}]", fn=fn)
