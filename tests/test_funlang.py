import gc
import random
from math import isqrt

import numpy as np
import pytest
from hypothesis import given, settings
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
    NormalMemo,
    P1,
    P2,
    PairE,
    Sub,
    Table,
    Var,
    _bound_pass,
    and_,
    compile_fn,
    eval_vec,
    interpret,
    is_closed,
    normalize,
    pair,
    parse_definitions,
    parse_fn,
    pretty,
    substitute,
    unpair,
)
from starext.gen import rand_expr, rand_indicator, rand_nary, rand_point_expr
from starext.hyper import StarSet, set_complement, set_intersection, set_union
from starext.transfer import parse_formula

from .conftest import make_universe


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


_node = st.deferred(
    lambda: st.one_of(
        st.integers(0, 9).map(Const),
        st.just(VAR),
        st.tuples(_node, _node).map(lambda t: Add(*t)),
        st.tuples(_node, _node).map(lambda t: Sub(*t)),
        st.tuples(_node, _node).map(lambda t: Mul(*t)),
        st.tuples(_node, st.integers(1, 9)).map(lambda t: DivC(*t)),
        st.tuples(_node, st.integers(1, 9)).map(lambda t: ModC(*t)),
        st.tuples(_node, _node, _node, _node).map(lambda t: IfEq(*t)),
        st.tuples(_node, _node).map(lambda t: PairE(*t)),
        _node.map(P1),
        _node.map(P2),
    )
)


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


def test_compiled_agrees_with_interpreter_fuzz():
    rng = random.Random(3)
    checked = 0
    while checked < 10_000:
        e = rand_expr(rng, depth=4)
        f = compile_fn(e)
        for x in (0, 1, 2, rng.randrange(100), rng.randrange(10_000)):
            assert f(x) == interpret(e, x)
            checked += 1


def test_table_node_eval():
    from starext.funlang import Table

    t = Table(VAR, ((1, 10), (2, 20)), None)
    assert interpret(t, 1) == 10
    assert interpret(t, 5) == 5  # identity default
    t0 = Table(VAR, ((1, 10),), 0)
    assert interpret(t0, 7) == 0
    assert compile_fn(t0)(1) == 10


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


def test_is_closed():
    assert is_closed(parse_fn("pair(3, 4) mod 7"))
    assert not is_closed(parse_fn("x mod 7"))
    assert is_closed(Compose(Const(5), VAR))


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
                        Compose(PairE(VAR, Table(VAR, ((1, 5), (3, 0)), None)), sub()))
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


_WALKS = {
    "normalize": normalize,
    "normalize_memo": lambda e: normalize(e, NormalMemo()),
    "member_queries": _member_queries,
    "rand_nary": lambda e: rand_nary(random.Random(pretty(e)), 3),
    "pretty": pretty,
    "substitute": lambda e: substitute(e, PairE(VAR, Const(1))),
    "eval_vec": lambda e: (eval_vec(e, np.arange(300)),
                           eval_vec(e, np.array([2**63, 5], dtype=object))),
    "_bound_pass": lambda e: _bound_pass(e, 300),
    "compile_fn": compile_fn,
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
    is_closed(e)
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
    assert is_closed(e) == is_closed(_fresh(e))
    assert is_closed(n) == is_closed(_fresh(n))
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
        conj, disj, neg = p.conj(q), p.disj(q), p.negate()
        for n in range(1000):
            pn, qn = p.truth_at(n), q.truth_at(n)
            assert conj.truth_at(n) == (pn and qn)
            assert disj.truth_at(n) == (pn or qn)
            assert neg.truth_at(n) == (not pn)


def test_predicate_masks_match_pointwise():
    rng = random.Random(10)
    p = IndexPredicate.from_expr(IfEq(ModC(VAR, 3), Const(1), Const(1), Const(0)))
    mask = p.mask(999)
    for n in range(1000):
        assert mask[n] == (n % 3 == 1)
    nm = p.negate().mask(999)
    assert (nm == ~mask).all()


def test_agreement_predicate_text_is_canonical():
    a = parse_fn("x + 1")
    b = parse_fn("x * 2")
    p = IndexPredicate.agreement(a, b)
    assert p.text == "ifeq(x + 1, x * 2, 1, 0)"
    same = IndexPredicate.agreement(a, a)
    assert same.constant_value() is True


def test_constant_predicates():
    assert IndexPredicate.full().constant_value() is True
    assert IndexPredicate.empty().constant_value() is False
