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

Nodes are plain slotted dataclasses, immutable by contract, and each
remembers what was derived from it: its normal form and its text (see
:class:`FnExpr`). Those caches are dataclass fields that hold pure
functions of the node, read ``None`` until computed and never take
part in ``==``, ``hash`` or ``repr``. Since
``*`` composes, new terms keep wrapping canonical ones, and every walk
stops at a node whose answer is known.
An owner that asks related questions passes :func:`normalize` a
:class:`NormalMemo`, so the walks' results outlive each call: a later
walk that meets the same node under the same replacement returns the
node built before, caches included. A :class:`~starext.hyper.Universe`
owns one for its membership queries.

Every recursive walk is a module-level function with an explicit memo,
or unbinds its nested functions before it returns, so no call leaves a
reference cycle: what a walk builds is freed by reference counting as
soon as it is dropped, and the cycle collector has nothing to find.

The walks that every query runs (:func:`normalize`'s, :func:`pretty`'s,
:func:`interpret` and the two passes of
:func:`eval_vec`) dispatch on the exact node class: ``cls = type(node)``
is tested with ``is``, most frequent class first, and fields are read
by name. A ``match`` on positional class patterns does an instance test
and a ``__match_args__`` lookup for each case it tries, about 1.5 µs on
an ``IfEq`` node against 0.4 µs for the chain of ``is`` tests, and a
run makes millions of these visits. Exact dispatch is why node classes
are final (see :class:`FnExpr`). The parser and :func:`substitute`,
which are not hot, keep their ``match``.

Evaluation: :func:`interpret` is the reference, one expression at one
natural in exact Python ints; it accepts any tree. :func:`eval_vec` is
the one evaluator for vectors (sequence values, whole-range sweeps, the
parts of a truth set) and equals :func:`interpret` entry
by entry. It takes a normal form: ``*`` composes representatives, and
:func:`normalize` inlines every composition, so every node reads the
input vector itself. :func:`eval_vec` and its interval pass raise
:class:`TypeError` on a composition. The
interval pass on 0..max(xs) picks a dtype per node: exact object-dtype
Python ints at a node whose value, intermediates (``s*(s+1)`` of pair,
``8z+1`` of unpair, a divisor, a ``Table`` key) or children may reach
2**62, int64 everywhere else; inputs past the bound are evaluated in
Python ints throughout. A call with such a node or such inputs runs a
block of inputs at a time, so its Python-int arrays grow with the block,
not with the input. An ``ifeq`` that compares a wide side with a side
that fits int64 evaluates the wide side clamped at 2**62, in int64, which
decides the comparison exactly; two wide sides compare in Python ints. A
caller that needs more than one value, a quantifier's sweep included,
makes one :func:`eval_vec` call for them.

A truth set of an :class:`IndexPredicate` is a Python int whose bit n is
set exactly when the predicate holds at n. :meth:`IndexPredicate.mask`
combines the Boolean skeleton of a predicate in bits, from the sets of
parts cached by canonical text or closed, and makes one :func:`eval_vec`
call for each other part.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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

@dataclass(slots=True, unsafe_hash=True)
class FnExpr:
    """Base class of expression nodes. Nodes are hashable, and immutable
    by contract: only the cache protocol below ever assigns a field.

    Two fields cache facts derived from a node: ``_nf`` its normal form
    (:func:`normalize`, whose walk swaps the node for it; ``True`` when
    that is the node itself, so that no node refers to itself and each is
    freed with its last reference) and ``_pp`` its text (:func:`pretty`).
    Each holds a pure function of the node's structure and is ``None``
    until computed. They are dataclass fields outside ``__init__``,
    ``==``, ``hash`` and ``repr``, so ``__match_args__`` lists only the
    structural fields and two equal nodes stay equal whatever they have
    cached. A cache lives exactly as long as its node, and an ``_nf``
    that holds a node is never rewritten.

    The node classes are plain slotted dataclasses, not frozen ones: the
    ``__init__`` of a frozen class writes each field through a call of
    the base ``__setattr__``, which more than doubles the cost of building
    a node, and ``*`` builds new nodes for every query.

    The node classes of this module are final: the walks dispatch on a
    node's exact class, so an instance of a subclass, of ``Add`` say,
    reaches their ``TypeError`` branch. A new kind of node is a new
    direct subclass of this class, with a branch in every walk.
    """

    _nf: FnExpr | bool | None = field(default=None, init=False, repr=False,
                                      compare=False, hash=False)
    _pp: str | None = field(default=None, init=False, repr=False,
                            compare=False, hash=False)


@dataclass(slots=True, unsafe_hash=True)
class Const(FnExpr):
    value: int


@dataclass(slots=True, unsafe_hash=True)
class Var(FnExpr):
    pass


VAR = Var()


@dataclass(slots=True, unsafe_hash=True)
class Name(FnExpr):
    """A free named variable of a formula term. Only :func:`substitute`,
    :func:`normalize` and :func:`pretty` accept it; bind every name before
    evaluating."""

    name: str


@dataclass(slots=True, unsafe_hash=True)
class Add(FnExpr):
    left: FnExpr
    right: FnExpr


@dataclass(slots=True, unsafe_hash=True)
class Sub(FnExpr):
    """Truncated subtraction: max(left - right, 0)."""

    left: FnExpr
    right: FnExpr


@dataclass(slots=True, unsafe_hash=True)
class Mul(FnExpr):
    left: FnExpr
    right: FnExpr


@dataclass(slots=True, unsafe_hash=True)
class DivC(FnExpr):
    """Floor division by a nonzero constant."""

    arg: FnExpr
    divisor: int

    def __post_init__(self):
        if self.divisor <= 0:
            raise ValueError("division only by a positive constant")


@dataclass(slots=True, unsafe_hash=True)
class ModC(FnExpr):
    """Remainder modulo a nonzero constant."""

    arg: FnExpr
    divisor: int

    def __post_init__(self):
        if self.divisor <= 0:
            raise ValueError("modulus only by a positive constant")


@dataclass(slots=True, unsafe_hash=True)
class IfEq(FnExpr):
    """ifeq(a, b, t, o): t if a = b else o."""

    a: FnExpr
    b: FnExpr
    then: FnExpr
    other: FnExpr


@dataclass(slots=True, unsafe_hash=True)
class PairE(FnExpr):
    left: FnExpr
    right: FnExpr


@dataclass(slots=True, unsafe_hash=True)
class P1(FnExpr):
    arg: FnExpr


@dataclass(slots=True, unsafe_hash=True)
class P2(FnExpr):
    arg: FnExpr


@dataclass(slots=True, unsafe_hash=True)
class Compose(FnExpr):
    """outer after inner: x -> outer(inner(x))."""

    outer: FnExpr
    inner: FnExpr


@dataclass(slots=True, unsafe_hash=True)
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
    cls = type(e)
    if cls is Const:
        return e.value
    if cls is IfEq:
        if interpret(e.a, x) == interpret(e.b, x):
            return interpret(e.then, x)
        return interpret(e.other, x)
    if cls is Sub:
        l, r = interpret(e.left, x), interpret(e.right, x)
        return l - r if l >= r else 0
    if cls is Add:
        return interpret(e.left, x) + interpret(e.right, x)
    if cls is ModC:
        return interpret(e.arg, x) % e.divisor
    if cls is PairE:
        return pair(interpret(e.left, x), interpret(e.right, x))
    if cls is P2:
        return unpair(interpret(e.arg, x))[1]
    if cls is Mul:
        return interpret(e.left, x) * interpret(e.right, x)
    if cls is DivC:
        return interpret(e.arg, x) // e.divisor
    if cls is P1:
        return unpair(interpret(e.arg, x))[0]
    if cls is Var:
        return x
    if cls is Compose:
        return interpret(e.outer, interpret(e.inner, x))
    if cls is Table:
        v = interpret(e.arg, x)
        for k, out in e.entries:
            if k == v:
                return out
        return v if e.default is None else e.default
    raise TypeError(f"not an FnExpr: {e!r}")


# ---------------------------------------------------------------------------
# Vectorised evaluation

#: every node value and intermediate below this bound keeps int64 exact,
#: with headroom for the sums and products the evaluator forms
INT64_SAFE = 1 << 62


def _bound_pass(e: FnExpr, x_max: int) -> tuple[dict[int, bool], set[int]]:
    """Interval pass over the normal form ``e`` on inputs 0..x_max.

    Returns ``(wide, shared)``. ``wide`` maps the id of every
    node that :func:`eval_vec` evaluates in exact Python ints to whether
    its result stays exact. A node is there when its own value, one of
    its intermediates (the ``s*(s+1)`` of pair, the ``8z+1`` of unpair, a
    divisor, a ``Table`` key) or the value of a child it reads may reach
    :data:`INT64_SAFE`. Its result stays exact when its own value may
    reach the bound; at the root also when an intermediate may, so that
    the result of :func:`eval_vec` is exact whenever its root needed
    exact ints of its own. Bounds saturate at :data:`INT64_SAFE`, so the
    walk always finishes, and a saturated bound stands for any larger
    value: only a rule that holds for every larger value brings it back
    below (``mod`` does, by its divisor; ``div`` keeps it saturated).

    ``shared`` holds the ids of the nodes reached twice, the nodes whose
    values :func:`eval_vec` keeps for reuse.

    A composition, or any other node outside the evaluable grammar,
    raises :class:`TypeError`.
    """
    memo: dict[int, int] = {}
    shared: set[int] = set()
    wide: dict[int, bool] = {}

    def bound(node: FnExpr) -> int:
        key = id(node)
        if key in memo:
            shared.add(key)
            return memo[key]
        cls = type(node)
        # the largest intermediate, and the largest value of a child that
        # ``out`` does not bound
        inter = child = 0
        if cls is Const:
            out = node.value
        elif cls is Var:
            out = x_max
        elif cls is IfEq:
            child = max(bound(node.a), bound(node.b))
            out = max(bound(node.then), bound(node.other))
        elif cls is Sub:
            child = bound(node.right)
            out = bound(node.left)
        elif cls is Add:
            out = bound(node.left) + bound(node.right)
        elif cls is ModC:
            child, inter = bound(node.arg), node.divisor
            out = min(child, inter - 1)
        elif cls is PairE:
            r = bound(node.right)
            s = bound(node.left) + r
            inter = s * (s + 1)
            out = inter // 2 + r
        elif cls is P1 or cls is P2:
            out = bound(node.arg)
            inter = 8 * out + 1
        elif cls is Mul:
            left, right = bound(node.left), bound(node.right)
            child = max(left, right)
            out = left * right
        elif cls is DivC:
            child, inter = bound(node.arg), node.divisor
            out = child // inter if child < INT64_SAFE else child
        elif cls is Table:
            child = bound(node.arg)
            inter = node.entries[-1][0] if node.entries else 0
            out = max([v for _, v in node.entries]
                      + [child if node.default is None else node.default])
        else:
            raise TypeError(f"not an FnExpr in normal form: {node!r}")
        if out >= INT64_SAFE:
            out = INT64_SAFE
            wide[key] = True
        elif inter >= INT64_SAFE:
            wide[key] = node is e
        elif child >= INT64_SAFE:
            wide[key] = False
        memo[key] = out
        return out

    bound(e)
    del bound  # it refers to itself: unbound, it and the memo are freed on return
    return wide, shared


_isqrt_obj = np.frompyfunc(isqrt, 1, 1)


def _unpair_vec(z):
    """:func:`unpair` of a scalar, an int64 array or an object array."""
    if not isinstance(z, np.ndarray):
        return unpair(z)
    if z.dtype == object:
        w = (_isqrt_obj(8 * z + 1) - 1) // 2
    else:
        # for z < 2**59 the float root is off by at most one; one integer
        # correction step in each direction makes it exact
        w = ((np.sqrt(8.0 * z + 1.0) - 1.0) / 2.0).astype(np.int64)
        w -= w * (w + 1) // 2 > z
        w += (w + 1) * (w + 2) // 2 <= z
    y = z - w * (w + 1) // 2
    return w - y, y


#: the largest s with s(s + 1) / 2 below :data:`INT64_SAFE`: a pair whose
#: components sum past it is at least the bound
_PAIR_SUM_MAX = 3_037_000_499

#: a call with a wide node, or with inputs past :data:`INT64_SAFE`, is
#: evaluated this many inputs at a time, so its Python-int arrays grow
#: with the block and not with the input
EVAL_BLOCK = 2048


def eval_vec(e: FnExpr, xs) -> np.ndarray:
    """Evaluate the normal form ``e`` at every entry of ``xs``; equal to
    :func:`interpret` entry by entry. A composition raises
    :class:`TypeError`: evaluate :func:`normalize`'s result instead.

    Values are int64 arrays, and exact object-dtype Python ints only where
    a node needs them. An interval pass over the tree on 0..max(xs) (see
    :func:`_bound_pass`) lists the nodes whose value, intermediates or
    children may reach :data:`INT64_SAFE`. Such a node lifts its operands
    to Python ints, so that no sum, product, comparison or lookup depends
    on NumPy's promotion of int64 against Python ints, and casts its
    result back to int64 when its own bound fits. Inputs that reach the
    bound are evaluated in Python ints throughout. The result is object
    dtype exactly then and when the root's own value or an intermediate
    of it may reach the bound. Shared subtrees are evaluated once.

    A call with a node on that list, or with inputs past the bound, runs
    over consecutive blocks of :data:`EVAL_BLOCK` inputs and joins their
    results; the one interval pass over all of ``xs`` fixes every node's
    dtype, so the blocks agree with each other and with an unblocked call.

    An ``ifeq`` on that list that compares a wide side with a narrow one
    evaluates the wide side clamped, as min(value, C) in int64 with
    C = :data:`INT64_SAFE`. Every value of the narrow side is below C, so
    the clamped values decide the comparison exactly. With a and b the
    clamped operands, a sum is min(a, C - b) + b, a product is C where
    b is nonzero and a > C // b, a pair is C once a + b passes
    :data:`_PAIR_SUM_MAX`, and any other wide node is evaluated exactly,
    then clamped. Two wide sides compare in Python ints.
    """
    xs = np.asarray(xs)
    x_max = int(xs.max()) if xs.size else 0
    wide, shared = _bound_pass(e, x_max)
    # the inputs must fit too, also when no node reads them
    if x_max >= INT64_SAFE:
        wide, dtype = {}, object
    else:
        dtype = np.int64
    shape, flat = xs.shape, xs.reshape(-1).astype(dtype)
    # kept per block: the values of shared nodes (the intermediates of
    # the rest are freed as soon as they are used), both projections of a
    # shared node unpaired once, and clamped values of shared nodes
    memo: dict[int, object] = {}
    halves: dict[int, tuple] = {}
    clamps: dict[int, object] = {}

    def unp(node: FnExpr, ev):
        key = id(node)
        if key in halves:
            return halves[key]
        out = _unpair_vec(ev(node))
        if key in shared:
            halves[key] = out
        return out

    def lifted(node: FnExpr):
        # the value of ``node`` in Python ints
        v = go(node)
        return v.astype(object) if type(v) is np.ndarray and v.dtype != object else v

    def clamped(node: FnExpr):
        # min(value of ``node``, INT64_SAFE), in int64 or a Python int
        key = id(node)
        if not wide.get(key):
            return go(node)
        if key in clamps:
            return clamps[key]
        cls = type(node)
        if cls is Add or cls is Mul or cls is PairE:
            a, b = clamped(node.left), clamped(node.right)
            if type(a) is not np.ndarray and type(b) is not np.ndarray:
                # Python ints: exact, then clamped
                out = min(a + b if cls is Add else a * b if cls is Mul else pair(a, b),
                          INT64_SAFE)
            elif cls is Add:
                out = np.minimum(a, INT64_SAFE - b) + b
            elif cls is Mul:
                q = INT64_SAFE // np.maximum(b, 1)
                out = np.where(a > q, INT64_SAFE, np.minimum(a, q) * b)
            else:
                # components past the limit sum past it all the same
                a = np.minimum(a, _PAIR_SUM_MAX + 1)
                b = np.minimum(b, _PAIR_SUM_MAX + 1)
                s = a + b
                t = np.minimum(s, _PAIR_SUM_MAX)
                out = np.where(s > _PAIR_SUM_MAX, INT64_SAFE,
                               np.minimum(t * (t + 1) // 2 + b, INT64_SAFE))
        else:
            v = go(node)
            out = (np.minimum(v, INT64_SAFE).astype(np.int64) if type(v) is np.ndarray
                   else min(v, INT64_SAFE))
        if key in shared:
            clamps[key] = out
        return out

    def go(node: FnExpr):
        key = id(node)
        if key in memo:
            return memo[key]
        cls = type(node)
        # a node in ``wide`` reads its children through ``lifted``
        lift = key in wide
        ev = lifted if lift else go
        if cls is Const:
            out = node.value
        elif cls is Var:
            out = xs
        elif cls is IfEq:
            a, b = node.a, node.b
            if not lift:
                cond = go(a) == go(b)
            elif wide.get(id(a)) and wide.get(id(b)):
                cond = lifted(a) == lifted(b)
            else:
                cond = clamped(a) == clamped(b)
            # the branches fit in int64 unless the node's own bound does not
            t, o = go(node.then), go(node.other)
            if isinstance(cond, np.ndarray):
                dt = object if lift and wide[key] else dtype
                out = np.where(cond, np.asarray(t, dt), np.asarray(o, dt))
            else:
                out = t if cond else o
        elif cls is Sub:
            d = ev(node.left) - ev(node.right)
            out = np.maximum(d, 0) if isinstance(d, np.ndarray) else max(d, 0)
        elif cls is Add:
            out = ev(node.left) + ev(node.right)
        elif cls is ModC:
            out = ev(node.arg) % node.divisor
        elif cls is PairE:
            r = ev(node.right)
            s = ev(node.left) + r
            out = s * (s + 1) // 2 + r
        elif cls is P2:
            out = unp(node.arg, ev)[1]
        elif cls is Mul:
            out = ev(node.left) * ev(node.right)
        elif cls is DivC:
            out = ev(node.arg) // node.divisor
        elif cls is P1:
            out = unp(node.arg, ev)[0]
        elif cls is Table:
            out = _lookup_vec(ev(node.arg), node.entries, node.default)
        else:
            raise TypeError(f"not an FnExpr in normal form: {node!r}")
        if lift and type(out) is np.ndarray:
            # back to int64 when the node's own bound fits
            out = out.astype(object if wide[key] else np.int64, copy=False)
        if key in shared:
            memo[key] = out
        return out

    # the first block is all of the inputs unless the call is blocked
    blocked = (wide or dtype is object) and flat.size > EVAL_BLOCK
    xs = flat[:EVAL_BLOCK] if blocked else flat
    out = go(e)
    # a value that reads no input is the same in every block
    if blocked and isinstance(out, np.ndarray):
        first, out = out, np.empty(flat.size, out.dtype)
        out[:EVAL_BLOCK] = first
        for start in range(EVAL_BLOCK, flat.size, EVAL_BLOCK):
            xs = flat[start:start + EVAL_BLOCK]
            memo.clear()
            halves.clear()
            clamps.clear()
            out[start:start + EVAL_BLOCK] = go(e)
    del go, unp, lifted, clamped  # they refer to each other: unbound, they and the memos die on return
    if isinstance(out, np.ndarray):
        return out.reshape(shape)
    if wide.get(id(e)):
        dtype = object  # the root's result stays exact
    return np.full(shape, out, dtype=dtype)


def _lookup_vec(v, entries, default):
    table = dict(entries)

    def get(k):
        return table.get(k, k if default is None else default)

    if not isinstance(v, np.ndarray):
        return get(v)
    if v.dtype == object or not entries:
        return np.array([get(k) for k in v.tolist()], dtype=v.dtype).reshape(v.shape)
    keys = np.array([k for k, _ in entries], dtype=v.dtype)
    outs = np.array([w for _, w in entries], dtype=v.dtype)
    pos = np.minimum(np.searchsorted(keys, v), len(keys) - 1)
    return np.where(keys[pos] == v, outs[pos], v if default is None else default)


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
    same replacement returns the very node built before, whose text and
    truth set may already be known. Ids are only unique while their
    objects live, so the memo holds every node it keys: each is
    reached from a root through children and ``_nf`` fields (a field that
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
    nf = e._nf
    if nf is not None:
        return e if nf is True else nf
    if memo is None:
        out = _normal(e, VAR, {})
    else:
        memo.roots.append(e)
        out = _normal(e, VAR, memo.table)
    if out is e:
        e._nf = True  # no self-reference
    else:
        e._nf = out
        if out._nf is None:
            out._nf = True
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
    nf = node._nf
    if nf is True:
        if repl is VAR:
            return node
    elif nf is not None:
        return nf if repl is VAR else _normal(nf, repl, memo)
    if cls is IfEq:
        sa, sb = _normal(node.a, repl, memo), _normal(node.b, repl, memo)
        if sa == sb:
            out = _normal(node.then, repl, memo)
        else:
            out = IfEq(sa, sb, _normal(node.then, repl, memo),
                       _normal(node.other, repl, memo))
    elif cls is Compose:
        out = _normal(node.outer, _normal(node.inner, repl, memo), memo)
    elif cls is PairE:
        out = PairE(_normal(node.left, repl, memo), _normal(node.right, repl, memo))
    elif cls is Add:
        out = Add(_normal(node.left, repl, memo), _normal(node.right, repl, memo))
    elif cls is Sub:
        out = Sub(_normal(node.left, repl, memo), _normal(node.right, repl, memo))
    elif cls is P2:
        sa = _normal(node.arg, repl, memo)
        out = sa.right if type(sa) is PairE else P2(sa)
    elif cls is ModC:
        out = ModC(_normal(node.arg, repl, memo), node.divisor)
    elif cls is P1:
        sa = _normal(node.arg, repl, memo)
        out = sa.left if type(sa) is PairE else P1(sa)
    elif cls is Mul:
        out = Mul(_normal(node.left, repl, memo), _normal(node.right, repl, memo))
    elif cls is DivC:
        out = DivC(_normal(node.arg, repl, memo), node.divisor)
    elif cls is Table:
        out = Table(_normal(node.arg, repl, memo), node.entries, node.default)
    elif cls is Name:
        out = node
    else:
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
    pp = e._pp
    if pp is None:
        pp = e._pp = _text(e, {})
    return pp


def _text(node: FnExpr, memo: dict[int, str]) -> str:
    """The text of ``node``."""
    key = id(node)
    if key in memo:
        return memo[key]
    cls = type(node)
    if cls is Const:
        out = str(node.value)
    elif cls is Var:
        out = "x"
    else:
        out = node._pp
        if out is not None:
            return out
        if cls is IfEq:
            out = (f"ifeq({_text(node.a, memo)}, {_text(node.b, memo)}, "
                   f"{_text(node.then, memo)}, {_text(node.other, memo)})")
        elif cls is Add:
            # the left operand of a chain may itself be a chain
            out = f"{_text(node.left, memo)} + {_atom(node.right, memo)}"
        elif cls is Sub:
            out = f"{_text(node.left, memo)} - {_atom(node.right, memo)}"
        elif cls is PairE:
            out = f"pair({_text(node.left, memo)}, {_text(node.right, memo)})"
        elif cls is ModC:
            out = f"{_atom(node.arg, memo)} mod {node.divisor}"
        elif cls is P2:
            out = f"p2({_text(node.arg, memo)})"
        elif cls is Mul:
            out = f"{_text(node.left, memo)} * {_atom(node.right, memo)}"
        elif cls is DivC:
            out = f"{_atom(node.arg, memo)} div {node.divisor}"
        elif cls is P1:
            out = f"p1({_text(node.arg, memo)})"
        elif cls is Compose:
            out = _text(normalize(node), memo)
        elif cls is Table:
            digest = sha256(repr((node.entries, node.default)).encode()).hexdigest()[:12]
            out = f"table#{digest}({_text(node.arg, memo)})"
        elif cls is Name:
            out = node.name
        else:
            raise TypeError(f"not an FnExpr: {node!r}")
    memo[key] = out
    return out


def _atom(node: FnExpr, memo: dict[int, str]) -> str:
    """The text of ``node``, in parentheses when it is a chain: a
    top-level + - *, of the normal form for a ``Compose``."""
    text = _text(node, memo)
    if type(node) is Compose:
        node = normalize(node)
    return f"({text})" if type(node) in (Add, Sub, Mul) else text


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
    whose truth set :meth:`mask` builds, or a vector function
    from an array of indices to their boolean truth values (the
    ``sat[...]`` predicates of :func:`starext.transfer.truth_predicate`).
    Combine predicates by their expressions: ``from_expr(and_(p, q))``.

    An expression predicate holds a normal form and its text:
    ``text == pretty(expr)``, as :meth:`from_expr` builds it. That text
    contains the letter ``x`` exactly when the expression reads the
    index: ``Var`` prints as ``x``, a node's text contains its children's,
    and no keyword, numeral or ``table#<hex>`` digest contains an ``x``.
    """

    __slots__ = ("text", "expr", "vec")

    def __init__(
        self,
        text: str,
        expr: FnExpr | None = None,
        vec: Callable[[np.ndarray], np.ndarray] | None = None,
    ):
        if expr is None and vec is None:
            raise ValueError("predicate needs an expression or a vector function")
        self.text = text
        self.expr = expr
        self.vec = vec

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
    def agreement(cls, a: FnExpr, b: FnExpr) -> "IndexPredicate":
        """The set {n : a(n) = b(n)}."""
        return cls.from_expr(IfEq(normalize(a), normalize(b), Const(1), Const(0)))

    # -- evaluation ----------------------------------------------------------

    def constant_value(self) -> bool | None:
        """Truth value when the predicate does not depend on the index,
        that is, when it holds an expression and its text has no ``x``."""
        if self.expr is not None and "x" not in self.text:
            return interpret(self.expr, 0) != 0
        return None

    def mask(self, horizon: int, cache: Mapping[str, int] | None = None) -> int:
        """Truth set over indices 0..horizon inclusive, as an int whose
        bit n is set exactly when the predicate holds at n.

        ``cache`` maps canonical texts to truth sets over the same
        indices, such as the oracle's mask cache. The Boolean skeleton of
        the expression is combined in bits from it (see
        :func:`_truth_bits`), and each other part is one :func:`eval_vec`
        call."""
        if self.expr is None:
            return _bits_of(self.vec(np.arange(horizon + 1)))  # type: ignore[misc]
        return _truth_bits(self.expr, horizon, (1 << horizon + 1) - 1,
                           {} if cache is None else cache)


def _truth_bits(node: FnExpr, horizon: int, full: int, cache: Mapping[str, int],
                evaluate: bool = True) -> int | None:
    """The truth set over 0..horizon of the normal form ``node``, as bits;
    ``full`` has the bits 0..horizon set. With ``evaluate`` false, ``None``
    when the set needs an :func:`eval_vec` call.

    A node with its text cached by :func:`pretty` has the set listed under
    that text in ``cache``, or every index or none when the text is closed
    (no ``x`` in it); so has a ``Const``. Every node of a normal form reads
    the index itself, so the set cached under a node's text is the node's
    own. At ``ifeq(p, 0, t, o)``, the shape of :func:`not_`, :func:`and_`
    and :func:`or_`, whose ``p`` has a set found so, with no
    :func:`eval_vec` call, the set is ``(P & O) | (T & ~P)`` for the sets
    P, T and O of ``p``, ``t`` and ``o``. Any other node is one
    :func:`eval_vec` call."""
    cls = type(node)
    if cls is Const:
        return full if node.value else 0
    pp = node._pp
    if pp is not None:
        bits = cache.get(pp)
        if bits is not None:
            return bits
        if "x" not in pp:
            return full if interpret(node, 0) else 0
    if cls is IfEq and type(node.b) is Const and node.b.value == 0:
        p = _truth_bits(node.a, horizon, full, cache, False)
        if p is not None:
            t = _truth_bits(node.then, horizon, full, cache, evaluate)
            o = _truth_bits(node.other, horizon, full, cache, evaluate)
            if t is not None and o is not None:
                return (p & o) | (t & (full ^ p))
    if not evaluate:
        return None
    return _bits_of(eval_vec(node, np.arange(horizon + 1)) != 0)


def _bits_of(truth: np.ndarray) -> int:
    """The int whose bit n is set exactly when ``truth[n]`` is."""
    return int.from_bytes(np.packbits(truth, bitorder="little"), "little")
