import gc
import random
from dataclasses import dataclass
from hashlib import sha256
from math import isqrt

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from starext.errors import ParseError, Undecidable
from starext.funlang import (
    CHI_DIAG,
    VAR,
    Add,
    Compose,
    Const,
    DivC,
    FnExpr,
    IfEq,
    IndexPredicate,
    ModC,
    Mul,
    Name,
    NormalMemo,
    P1,
    P2,
    PairE,
    Sub,
    Table,
    Var,
    _bound_pass,
    _normal,
    _text,
    and_,
    eval_vec,
    interpret,
    normalize,
    not_,
    or_,
    pair,
    parse_definitions,
    parse_fn,
    pretty,
    substitute,
    unpair,
)
from starext import funlang
from starext.gen import rand_expr, rand_indicator, rand_nary, rand_point_expr
from starext.hyper import Hyperpoint, StarSet, set_complement, set_intersection, set_union
from starext.transfer import And, Not, Or, eval_hyper, parse_formula, truth_predicate

from .conftest import make_universe, trees, truth_vector


# -- parsing ---------------------------------------------------------------

def test_parse_basic_productions():
    assert parse_fn("x + 1") == Add(VAR, Const(1))
    assert parse_fn("ifeq(x mod 2, 0, 1, 0)") == IfEq(
        ModC(VAR, 2), Const(0), Const(1), Const(0)
    )
    assert parse_fn("p1(x)") == P1(VAR)
    assert parse_fn("pair(x, 3)") == PairE(VAR, Const(3))


def test_flat_arithmetic_is_left_associative():
    assert parse_fn("x + 1 * 2") == Mul(Add(VAR, Const(1)), Const(2))
    assert parse_fn("x + (1 * 2)") == Add(VAR, Mul(Const(1), Const(2)))


def test_mod_div_bind_tighter_than_chain():
    assert parse_fn("x + x mod 3") == Add(VAR, ModC(VAR, 3))
    assert parse_fn("x mod 3 mod 2") == ModC(ModC(VAR, 3), 2)


def test_division_by_zero_rejected_at_parse_time():
    with pytest.raises(ParseError):
        parse_fn("x div 0")
    with pytest.raises(ParseError):
        parse_fn("x mod 0")


def test_parse_error_positions():
    with pytest.raises(ParseError) as err:
        parse_fn("x + $")
    assert err.value.line == 1
    assert err.value.col == 5
    with pytest.raises(ParseError) as err:
        parse_formula("v = w $")
    assert (err.value.line, err.value.col) == (1, 7)
    with pytest.raises(ParseError) as err:
        parse_definitions("def a = x\ndef b = x + $")
    assert (err.value.line, err.value.col) == (2, 13)


def test_named_definitions_inline():
    defs = parse_definitions("def sq = x * x\ndef quad = sq(sq(x))")
    assert interpret(defs["quad"], 2) == 16
    assert parse_fn("sq(x + 1)", defs) == Mul(Add(VAR, Const(1)), Add(VAR, Const(1)))


def test_duplicate_definition_rejected():
    with pytest.raises(ParseError):
        parse_definitions("def a = x\ndef a = x + 1")


_BRANCHES = [
    (2, lambda draw, a, b: Add(a, b)),
    (2, lambda draw, a, b: Sub(a, b)),
    (2, lambda draw, a, b: Mul(a, b)),
    (1, lambda draw, a: DivC(a, draw(st.integers(1, 9)))),
    (1, lambda draw, a: ModC(a, draw(st.integers(1, 9)))),
    (4, lambda draw, a, b, t, o: IfEq(a, b, t, o)),
    (2, lambda draw, a, b: PairE(a, b)),
    (1, lambda draw, a: P1(a)),
    (1, lambda draw, a: P2(a)),
]

_node = trees(st.integers(0, 9).map(Const) | st.just(VAR), _BRANCHES)


@settings(max_examples=150, deadline=None)
@given(_node)
def test_pretty_parse_round_trip(ast):
    assert parse_fn(pretty(ast)) == ast


def test_round_trip_on_random_generated_sources():
    rng = random.Random(11)
    for _ in range(100):
        src = pretty(rand_expr(rng, depth=4))
        first = parse_fn(src)
        assert parse_fn(pretty(first)) == first


# -- evaluation --------------------------------------------------------------

def test_eval_examples():
    assert interpret(Const(7), 3) == 7
    assert interpret(parse_fn("x + 1"), 4) == 5


def test_diagonal_characteristic():
    assert interpret(CHI_DIAG, pair(5, 5)) == 1
    assert interpret(CHI_DIAG, pair(5, 6)) == 0


def test_truncated_subtraction_and_predecessor():
    assert interpret(parse_fn("x - 5"), 3) == 0
    assert interpret(parse_fn("x - 1"), 0) == 0
    assert interpret(parse_fn("x - 1"), 9) == 8


def test_table_node_eval():
    from starext.funlang import Table

    t = Table(VAR, ((1, 10), (2, 20)))
    assert interpret(t, 1) == 10
    assert interpret(t, 5) == 5  # identity outside the table


def test_table_text_is_pinned():
    # the digest hashes the entries with a trailing None
    assert pretty(Table(VAR, ((1, 2),))) == "table#c24861054bcd(x)"


# -- exact-type dispatch against the match-based walks -------------------------

def _ref_interpret(e, x):
    """:func:`interpret` as a ``match`` on positional class patterns."""
    match e:
        case Const(v):
            return v
        case Var():
            return x
        case Add(a, b):
            return _ref_interpret(a, x) + _ref_interpret(b, x)
        case Sub(a, b):
            l, r = _ref_interpret(a, x), _ref_interpret(b, x)
            return l - r if l >= r else 0
        case Mul(a, b):
            return _ref_interpret(a, x) * _ref_interpret(b, x)
        case DivC(a, d):
            return _ref_interpret(a, x) // d
        case ModC(a, d):
            return _ref_interpret(a, x) % d
        case IfEq(a, b, t, o):
            if _ref_interpret(a, x) == _ref_interpret(b, x):
                return _ref_interpret(t, x)
            return _ref_interpret(o, x)
        case PairE(a, b):
            return pair(_ref_interpret(a, x), _ref_interpret(b, x))
        case P1(a):
            return unpair(_ref_interpret(a, x))[0]
        case P2(a):
            return unpair(_ref_interpret(a, x))[1]
        case Compose(f, g):
            return _ref_interpret(f, _ref_interpret(g, x))
        case Table(a, entries):
            v = _ref_interpret(a, x)
            for k, out in entries:
                if k == v:
                    return out
            return v
        case _:
            raise TypeError(f"not an FnExpr: {e!r}")


def _ref_text(node):
    """(text, is_chain) of ``node`` as a ``match``, reading no cache."""
    def atom(n):
        text, is_chain = _ref_text(n)
        return f"({text})" if is_chain else text

    match node:
        case Const(v):
            return (str(v), False)
        case Var():
            return ("x", False)
        case Add(a, b):
            return (f"{_ref_text(a)[0]} + {atom(b)}", True)
        case Sub(a, b):
            return (f"{_ref_text(a)[0]} - {atom(b)}", True)
        case Mul(a, b):
            return (f"{_ref_text(a)[0]} * {atom(b)}", True)
        case DivC(a, d):
            return (f"{atom(a)} div {d}", False)
        case ModC(a, d):
            return (f"{atom(a)} mod {d}", False)
        case IfEq(a, b, t, o):
            return (f"ifeq({_ref_text(a)[0]}, {_ref_text(b)[0]}, "
                    f"{_ref_text(t)[0]}, {_ref_text(o)[0]})", False)
        case PairE(a, b):
            return (f"pair({_ref_text(a)[0]}, {_ref_text(b)[0]})", False)
        case P1(a):
            return (f"p1({_ref_text(a)[0]})", False)
        case P2(a):
            return (f"p2({_ref_text(a)[0]})", False)
        case Compose(_, _):
            return _ref_text(normalize(node))
        case Table(a, entries):
            digest = sha256(repr((entries, None)).encode()).hexdigest()[:12]
            return (f"table#{digest}({_ref_text(a)[0]})", False)
        case Name(name):
            return (name, False)
        case _:
            raise TypeError(f"not an FnExpr: {node!r}")


def _ref_is_closed(e):
    """Whether the normal form ``e`` reads no input, as a ``match``: the
    reference for :meth:`IndexPredicate.constant_value`'s text rule."""
    match e:
        case Const():
            return True
        case Var():
            return False
        case Add(a, b) | Sub(a, b) | Mul(a, b) | PairE(a, b):
            return _ref_is_closed(a) and _ref_is_closed(b)
        case DivC(a, _) | ModC(a, _) | P1(a) | P2(a):
            return _ref_is_closed(a)
        case IfEq(a, b, t, o):
            return (_ref_is_closed(a) and _ref_is_closed(b) and _ref_is_closed(t)
                    and _ref_is_closed(o))
        case Table(a, _):
            return _ref_is_closed(a)
        case _:
            raise TypeError(f"not an FnExpr: {e!r}")


def _outcome(fn, *args):
    """The value of ``fn(*args)``, or the type of the exception it raises."""
    try:
        return fn(*args)
    except TypeError:
        return TypeError


#: constants on both sides of 2**63
_big = st.one_of(st.integers(0, 9), st.integers(2**63 - 3, 2**63 + 3), st.integers(0, 2**70))

#: a Table's keys: 0..9 in full, so that every argument value in that
#: range, common among the drawn trees, hits an entry, most of them past
#: the first; then up to three keys from ``_big``
_table_entries = st.builds(
    lambda outs, more: tuple(sorted({**more, **dict(enumerate(outs))}.items())),
    st.lists(_big, min_size=10, max_size=10),
    st.dictionaries(_big, _big, max_size=3),
)

#: the branches of every node class, compositions and tables included
_ALL_BRANCHES = _BRANCHES + [
    (2, lambda draw, f, g: Compose(f, g)),
    (1, lambda draw, a: Table(a, draw(_table_entries))),
]

#: every node class of the language, free names included
_any_node = trees(
    _big.map(Const) | st.just(VAR) | st.sampled_from(["v", "w"]).map(Name),
    _ALL_BRANCHES)


@settings(max_examples=200, deadline=None)
@given(st.one_of(_node, _any_node), st.one_of(st.integers(0, 300), st.integers(2**63 - 3, 2**70)))
def test_dispatch_matches_match_walks(e, x):
    # names are unbound here, so interpret may meet one and raise; both
    # walks must then raise alike
    assert _outcome(interpret, e, x) == _outcome(_ref_interpret, e, x)
    assert pretty(e) == _ref_text(e)[0]
    assert _text(e, {}) == _ref_text(e)[0]


def _funlang_node_classes():
    return [cls for cls in vars(funlang).values()
            if isinstance(cls, type) and issubclass(cls, FnExpr) and cls is not FnExpr]


def test_node_classes_are_final():
    classes = _funlang_node_classes()
    assert Add in classes and Name in classes and Table in classes
    for cls in classes:
        assert cls.__subclasses__() == [], cls


#: a fresh instance of each node class, and its structural fields in order
_NODE_SAMPLES = {
    Const: (lambda: Const(3), ("value",)),
    Var: (lambda: Var(), ()),
    Name: (lambda: Name("v"), ("name",)),
    Add: (lambda: Add(VAR, Const(1)), ("left", "right")),
    Sub: (lambda: Sub(VAR, Const(1)), ("left", "right")),
    Mul: (lambda: Mul(VAR, VAR), ("left", "right")),
    DivC: (lambda: DivC(VAR, 2), ("arg", "divisor")),
    ModC: (lambda: ModC(VAR, 3), ("arg", "divisor")),
    IfEq: (lambda: IfEq(VAR, Const(0), Const(1), Const(0)), ("a", "b", "then", "other")),
    PairE: (lambda: PairE(VAR, Const(2)), ("left", "right")),
    P1: (lambda: P1(VAR), ("arg",)),
    P2: (lambda: P2(VAR), ("arg",)),
    Compose: (lambda: Compose(Add(VAR, Const(1)), VAR), ("outer", "inner")),
    Table: (lambda: Table(VAR, ((1, 2), (4, 0))), ("arg", "entries")),
}

_CACHES = ("_nf", "_pp")


def test_node_samples_cover_every_class():
    assert set(_NODE_SAMPLES) == set(_funlang_node_classes())


@pytest.mark.parametrize("cls", list(_NODE_SAMPLES), ids=lambda cls: cls.__name__)
def test_node_contract(cls):
    make, structural = _NODE_SAMPLES[cls]
    node = make()
    # a fresh node has computed nothing
    assert [getattr(node, name) for name in _CACHES] == [None, None]
    # caches are not structure: whatever two equal nodes hold, they stay equal
    other = make()
    other._nf, other._pp = True, "cached"
    assert node == other and other == node
    assert hash(node) == hash(other)
    assert repr(node) == repr(other)
    assert "cached" not in repr(other)
    assert cls.__match_args__ == structural
    assert not hasattr(node, "__dict__")


@dataclass(slots=True, unsafe_hash=True)
class _Foreign(FnExpr):
    """A node class the walks do not know."""

    arg: FnExpr


def _go_alone(e):
    """``eval_vec``'s walk without the interval pass that precedes it."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(funlang, "_bound_pass", lambda *args: ({}, set()))
        return eval_vec(e, np.arange(5))


@pytest.mark.parametrize("walk", [
    lambda e: interpret(e, 3),
    pretty,
    lambda e: _normal(e, VAR, {}),
    lambda e: _bound_pass(e, 10),
    _go_alone,
], ids=["interpret", "_text", "_normal", "_bound_pass", "eval_vec"])
def test_walks_reject_foreign_node_classes(walk):
    for e in (_Foreign(VAR), Add(Const(1), _Foreign(VAR))):
        with pytest.raises(TypeError, match="not an FnExpr"):
            walk(e)


@pytest.mark.parametrize("walk", [
    lambda e: _bound_pass(e, 10),
    lambda e: eval_vec(e, np.arange(5)),
], ids=["_bound_pass", "eval_vec"])
def test_evaluation_walks_reject_compositions(walk):
    """Evaluation takes normal forms: a composition it reaches raises
    instead of giving a value, while interpret, normalize and pretty
    accept any tree."""
    closed = Compose(Add(VAR, Const(1)), Const(2))
    for e in (closed, Add(Const(1), closed), IfEq(Const(0), Const(1), closed, VAR)):
        with pytest.raises(TypeError, match="normal form"):
            walk(e)
        n = normalize(e)
        assert interpret(e, 3) == interpret(n, 3)
        assert pretty(e) == pretty(n)
        walk(n)


# -- pairing -----------------------------------------------------------------

def test_pairing_base_cases():
    assert pair(0, 0) == 0
    assert unpair(pair(1, 2)) == (1, 2)


def test_pairing_closed_formula():
    # independent evaluation of the closed form
    for x, y in [(1, 2), (0, 7), (13, 5), (100, 99)]:
        expected = (x + y) * (x + y + 1) // 2 + y
        assert pair(x, y) == expected


def test_pairing_bijection_exhaustive():
    seen = set()
    for x in range(1000):
        for y in range(1000):
            z = (x + y) * (x + y + 1) // 2 + y
            assert pair(x, y) == z
            assert z not in seen
            seen.add(z)
    # spot-check the inverse on the same grid
    for z in range(10_000):
        x, y = unpair(z)
        assert pair(x, y) == z


@given(st.integers(0, 10**12), st.integers(0, 10**12))
def test_pairing_bijection_large(x, y):
    assert unpair(pair(x, y)) == (x, y)


def test_pairing_uniqueness_of_preimage():
    # for all x, y there is exactly one z with p1(z) = x and p2(z) = y
    for x in range(25):
        for y in range(25):
            z = pair(x, y)
            assert isqrt(8 * z + 1) >= 0
            assert unpair(z) == (x, y)


# -- normalization ------------------------------------------------------------

def test_normalize_inlines_composition():
    e = Compose(parse_fn("x * 2"), parse_fn("x + 1"))
    assert normalize(e) == parse_fn("(x + 1) * 2")


def test_normalize_cancels_projections():
    e = P1(PairE(parse_fn("x + 1"), parse_fn("x * x")))
    assert normalize(e) == parse_fn("x + 1")
    e2 = Compose(CHI_DIAG, PairE(parse_fn("x mod 2"), Const(0)))
    assert pretty(normalize(e2)) == "ifeq(x mod 2, 0, 1, 0)"


def test_normalize_folds_syntactically_equal_ifeq():
    e = IfEq(parse_fn("x + 1"), parse_fn("x + 1"), Const(1), Const(0))
    assert normalize(e) == Const(1)


def test_normalize_preserves_semantics():
    rng = random.Random(5)
    for _ in range(300):
        outer = rand_expr(rng, depth=3)
        inner = rand_expr(rng, depth=2)
        composed = Compose(outer, inner)
        norm = normalize(composed)
        for x in (0, 1, 17, 256):
            assert interpret(norm, x) == interpret(composed, x)


@settings(max_examples=150, deadline=None)
@given(_node)
def test_normalize_is_idempotent(ast):
    once = normalize(ast)
    assert normalize(once) == once


def test_substitute_replaces_variable():
    e = substitute(parse_fn("x * x"), parse_fn("x + 2"))
    assert interpret(e, 3) == 25


# -- normalize against the two-pass algorithm --------------------------------

def _rebuild(e, f):
    """A new node like ``e`` with ``f`` applied to each expression child."""
    return type(e)(*(f(c) if isinstance(c, FnExpr) else c
                     for c in (getattr(e, name) for name in e.__match_args__)))


def _ref_substitute(e, repl):
    if isinstance(e, Var):
        return repl
    if isinstance(e, Compose):
        return Compose(e.outer, _ref_substitute(e.inner, repl))
    return _rebuild(e, lambda c: _ref_substitute(c, repl))


def _ref_normalize(e):
    """The two-pass algorithm, with no memo and no cache: inline every
    composition by substitution, then simplify once, bottom up."""
    def inline(node):
        if isinstance(node, Compose):
            return _ref_substitute(inline(node.outer), inline(node.inner))
        return _rebuild(node, inline)

    def simp(node):
        match node:
            case IfEq(a, b, t, o):
                sa, sb = simp(a), simp(b)
                return simp(t) if sa == sb else IfEq(sa, sb, simp(t), simp(o))
            case P1(a):
                sa = simp(a)
                return sa.left if isinstance(sa, PairE) else P1(sa)
            case P2(a):
                sa = simp(a)
                return sa.right if isinstance(sa, PairE) else P2(sa)
        return _rebuild(node, simp)

    return simp(inline(e))


def _composition_tree(rng, depth, warm):
    """Nested compositions of generated terms, the shapes ``*`` builds;
    each node's normal form and text are cached first with probability
    ``warm``."""
    if depth == 0:
        e = rng.choice((rand_expr, rand_indicator, rand_point_expr))(rng)
    else:
        sub = lambda: _composition_tree(rng, depth - 1, warm)  # noqa: E731
        kind = rng.randrange(6)
        if kind == 0:
            e = Compose(rng.choice((rand_expr, rand_indicator))(rng), sub())
        elif kind == 1:
            e = Compose(sub(), sub())
        elif kind == 2:
            e = PairE(sub(), Compose(sub(), sub()))
        elif kind == 3:
            # an agreement set, sometimes of a term with itself
            a = sub()
            e = Compose(CHI_DIAG, PairE(a, a if rng.random() < 0.3 else sub()))
        elif kind == 4:
            e = and_(Compose(rand_indicator(rng), sub()), sub())
        else:
            e = Compose(P1(VAR) if rng.random() < 0.5 else P2(VAR),
                        Compose(PairE(VAR, Table(VAR, ((1, 5), (3, 0)))), sub()))
    if rng.random() < warm:
        normalize(e)
        pretty(e)
    return e


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 3), st.sampled_from([0.0, 0.5, 1.0]))
def test_normalize_matches_two_pass_algorithm(seed, depth, warm):
    e = _composition_tree(random.Random(seed), depth, warm)
    ref = _ref_normalize(e)
    n = normalize(e)
    assert n == ref
    assert pretty(n) == pretty(ref) == pretty(Compose(VAR, e))


# -- garbage -------------------------------------------------------------------

def _member_queries(e):
    """The five queries of a boolean-suite point, through one universe's
    normal-form memo; ``e`` is an indicator composed with a point."""
    u = make_universe(horizon=256)
    a, b = StarSet(normalize(e.outer)), StarSet(normalize(e))
    xi = u.point(e.inner)
    try:
        for s in (a, b, set_union(a, b), set_intersection(a, b), set_complement(a)):
            u.member(xi, s)
    except Undecidable:
        pass


def _los_queries(e):
    """The five queries of a Łoś group about the point ``e``, compiled
    through one universe's memos."""
    u = make_universe(horizon=256)
    phi = parse_formula("v mod 3 = 0 | v < 40")
    psi = parse_formula("exists y < 5 . v = y + 2")
    env = {"v": u.point(e)}
    try:
        for f in (phi, Not(phi), psi, And(phi, psi), Or(phi, psi)):
            eval_hyper(f, env, u)
    except Undecidable:
        pass


def _sat_mask(e):
    """Connectives of a quantified formula about the point ``e``, each a
    predicate on the ``sat`` path, masked."""
    phi = parse_formula("exists y < v mod 67 . forall z < y div 4 . z + y = v")
    env = {"v": Hyperpoint(e)}
    for f in (Not(phi), And(Not(phi), phi), Or(And(Not(phi), phi), phi)):
        truth_predicate(f, env).mask(300)


_WALKS = {
    "normalize": normalize,
    "normalize_memo": lambda e: normalize(e, NormalMemo()),
    "member_queries": _member_queries,
    "rand_nary": lambda e: rand_nary(random.Random(pretty(e)), 3),
    "pretty": pretty,
    "substitute": lambda e: substitute(e, PairE(VAR, Const(1))),
    "eval_vec": lambda e: (eval_vec(normalize(e), np.arange(300)),
                           eval_vec(normalize(e), np.array([2**63, 5], dtype=object))),
    "_bound_pass": lambda e: _bound_pass(normalize(e), 300),
    "sat_mask": _sat_mask,
    "los_queries": _los_queries,
}


@pytest.mark.parametrize("walk", sorted(_WALKS))
def test_walks_leave_no_reference_cycles(walk):
    """What a walk builds is freed by reference counting alone."""
    rng = random.Random(4)
    enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        for _ in range(100):
            _WALKS[walk](Compose(rand_indicator(rng), rand_point_expr(rng)))
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


# -- per-node caches -----------------------------------------------------------

def _fresh(e, memo=None):
    """A never-cached copy of ``e``, rebuilt node by node (sharing kept)."""
    memo = {} if memo is None else memo
    if not isinstance(e, FnExpr):
        return e
    if id(e) not in memo:
        memo[id(e)] = type(e)(*(_fresh(getattr(e, f), memo) for f in e.__match_args__))
    return memo[id(e)]


def _warm(e):
    normalize(e)
    pretty(e)
    return e


#: how the star extension wraps canonical terms in new ones
_SHAPES = {
    "compose": lambda f, g, p: Compose(f, Compose(g, p)),
    "pair": lambda f, g, p: PairE(Compose(f, p), normalize(Compose(g, p))),
    "and": lambda f, g, p: and_(normalize(Compose(f, p)), Compose(g, p)),
    "agree": lambda f, g, p: Compose(CHI_DIAG, PairE(Compose(f, p), Compose(g, p))),
}


@settings(max_examples=200, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.sampled_from(sorted(_SHAPES)),
    st.lists(st.booleans(), min_size=4, max_size=4),
)
def test_caches_match_fresh_computation(seed, shape, warm):
    rng = random.Random(seed)
    f, g = rand_expr(rng), rand_expr(rng)
    p = rand_point_expr(rng)
    if warm[0]:
        p = _warm(normalize(p))
    for child, w in ((f, warm[1]), (g, warm[2]), (p, warm[3])):
        if w:
            _warm(child)
    e = _SHAPES[shape](f, g, p)
    if warm[0]:
        _warm(e)
    n = normalize(e)
    assert normalize(n) is n
    # a normal form marks itself without referring to itself
    assert all(ref is not n for ref in gc.get_referents(n))
    assert n == normalize(_fresh(e))
    assert pretty(e) == pretty(_fresh(e))
    assert pretty(n) == pretty(_fresh(n)) == pretty(normalize(_fresh(e)))
    for node in (e, n, f, p):
        copy = _fresh(node)
        assert node == copy
        assert hash(node) == hash(copy)
        assert repr(node) == repr(copy)


# -- index predicates ----------------------------------------------------------

def test_predicate_combinators_match_pointwise_sets():
    rng = random.Random(9)
    for _ in range(12):
        p = IndexPredicate.from_expr(
            IfEq(rand_expr(rng, 2), rand_expr(rng, 2), Const(1), Const(0))
        )
        q = IndexPredicate.from_expr(
            IfEq(rand_expr(rng, 2), rand_expr(rng, 2), Const(1), Const(0))
        )
        both, either, neg = (IndexPredicate.from_expr(e)
                             for e in (and_(p.expr, q.expr), or_(p.expr, q.expr), not_(p.expr)))
        for n in range(1000):
            pn, qn = interpret(p.expr, n) != 0, interpret(q.expr, n) != 0
            assert (interpret(both.expr, n) != 0) == (pn and qn)
            assert (interpret(either.expr, n) != 0) == (pn or qn)
            assert (interpret(neg.expr, n) != 0) == (not pn)


def test_predicate_masks_match_pointwise():
    rng = random.Random(10)
    p = IndexPredicate.from_expr(IfEq(ModC(VAR, 3), Const(1), Const(1), Const(0)))
    mask = truth_vector(p.mask(999), 999)
    for n in range(1000):
        assert mask[n] == (n % 3 == 1)
    nm = truth_vector(IndexPredicate.from_expr(not_(p.expr)).mask(999), 999)
    assert (nm == ~mask).all()


def test_agreement_predicate_text_is_canonical():
    a = parse_fn("x + 1")
    b = parse_fn("x * 2")
    p = IndexPredicate.agreement(a, b)
    assert p.text == "ifeq(x + 1, x * 2, 1, 0)"
    same = IndexPredicate.agreement(a, a)
    assert same.constant_value() is True


def test_constant_predicates():
    assert IndexPredicate.from_expr(Const(1)).constant_value() is True
    assert IndexPredicate.from_expr(Const(0)).constant_value() is False


#: trees of every evaluable node class; ``Name``, which no predicate
#: holds, is left out, and three leaves in four are constants, so that
#: closed trees are common
_predicate_node = trees(
    st.one_of(_big.map(Const), _big.map(Const), _big.map(Const), st.just(VAR)),
    _ALL_BRANCHES)


@settings(max_examples=300, deadline=None)
@example(P2(PairE(VAR, Const(3))))  # closed only once normalized
@example(Compose(Const(2**63), VAR))
@example(Table(Const(2**63 + 1), ((2**63 + 1, 0),)))
@example(Table(ModC(VAR, 1), ((0, 7),)))  # constant in value, yet reads x
@given(_predicate_node)
def test_constant_value_reads_closedness_off_the_text(e):
    n = normalize(e)
    pred = IndexPredicate.from_expr(e)
    assert pred.text == pretty(n)
    const = pred.constant_value()
    assert (const is not None) == _ref_is_closed(n)
    if const is not None:
        assert const == (interpret(n, 0) != 0)


def _constants(e):
    """The values of the ``Const`` nodes of ``e``."""
    if type(e) is Const:
        return [e.value]
    return [v for name in e.__match_args__ if isinstance(child := getattr(e, name), FnExpr)
            for v in _constants(child)]


@st.composite
def _standard_queries(draw):
    """A normal form f and a constant c, half the time one of f's own and
    otherwise a drawn k. Random trees seldom meet a rule at x = c, so f
    may hold ``ifeq(a, a[x := k], t, o)``, where one fires when c = k."""
    k = draw(_big)
    meets = (3, lambda draw, a, t, o: IfEq(a, substitute(a, Const(k)), t, o))
    f = normalize(draw(trees(_big.map(Const) | st.just(VAR), _ALL_BRANCHES + [meets] * 3)))
    own = _constants(f)
    c = draw(st.sampled_from(own) if own and draw(st.booleans()) else st.just(k))
    return f, c


@settings(max_examples=200, deadline=None)
@given(_standard_queries())
def test_standard_point_predicate_matches_normal_form(query):
    # the predicate of f at a standard point c, printed by substitution
    # when no rule can fire, against the normal form of a separate copy
    f, c = query
    pred = IndexPredicate.from_expr(Compose(f, Const(c)))
    n = normalize(Compose(f, Const(c)))
    assert pred.text == pretty(n)
    assert pred.constant_value() == (interpret(f, c) != 0)
    horizon = 20
    assert pred.mask(horizon) == ((1 << horizon + 1) - 1 if interpret(f, c) else 0)


@pytest.mark.parametrize("f, text", [
    ("ifeq(x, 8, 1, 0)", "ifeq(7, 8, 1, 0)"),  # no rule fires: substitution
    ("ifeq(x, 7, 1, 0)", "1"),
    ("p1(ifeq(x, 7, pair(3, x), pair(x, 4)))", "3"),
    ("ifeq(x mod 7, 0, 1, 0)", "ifeq(7 mod 7, 0, 1, 0)"),  # a 7 that is no constant
])
def test_standard_point_predicate_text_at_seven(f, text):
    pred = IndexPredicate.from_expr(Compose(normalize(parse_fn(f)), Const(7)))
    assert pred.text == text
    assert pred.constant_value() == (interpret(parse_fn(text), 0) != 0)
