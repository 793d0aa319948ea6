"""Differential tests: the vectorised evaluator against the reference
interpreter, and every truth vector against its pointwise definition."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from starext.funlang import (
    INT64_SAFE,
    VAR,
    Add,
    Compose,
    Const,
    DivC,
    IfEq,
    IndexPredicate,
    ModC,
    Mul,
    P1,
    P2,
    PairE,
    Sub,
    Table,
    and_,
    eval_vec,
    interpret,
    normalize,
    not_,
    or_,
    pair,
    parse_fn,
    pretty,
    unpair,
)
from starext.gen import rand_expr, rand_indicator, rand_point_expr
from starext.hyper import StarSet

from .conftest import make_universe


def assert_matches_interpret(e, xs):
    got = eval_vec(e, xs)
    ref = [interpret(e, int(x)) for x in xs]
    assert got.tolist() == ref
    # the interval pass never lets a value reach int64's danger zone
    if got.dtype == np.int64:
        assert max(ref, default=0) < INT64_SAFE
    else:
        assert got.dtype == object
    return got


def _table(arg, mapping, default):
    return Table(arg, tuple(sorted(mapping.items())), default)


_leaves = st.one_of(st.just(VAR), st.integers(0, 40).map(Const))


def _extend(children):
    return st.one_of(
        st.builds(Add, children, children),
        st.builds(Sub, children, children),
        st.builds(Mul, children, children),
        st.builds(DivC, children, st.integers(1, 9)),
        st.builds(ModC, children, st.integers(1, 9)),
        st.builds(IfEq, children, children, children, children),
        st.builds(PairE, children, children),
        st.builds(P1, children),
        st.builds(P2, children),
        st.builds(Compose, children, children),
        st.builds(
            _table,
            children,
            st.dictionaries(st.integers(0, 60), st.integers(0, 2**70), max_size=5),
            st.none() | st.integers(0, 9),
        ),
    )


exprs = st.recursive(_leaves, _extend, max_leaves=10)


@settings(max_examples=300)
@given(exprs)
def test_eval_vec_matches_interpret_on_trees(e):
    assert_matches_interpret(e, np.arange(65))


@settings(max_examples=300)
@given(st.integers(0, 2**32), st.integers(1, 5), st.booleans())
def test_eval_vec_matches_interpret_on_rand_expr(seed, depth, compose):
    rng = random.Random(seed)
    e = rand_expr(rng, depth)
    if compose:
        e = Compose(e, rand_point_expr(rng))
    assert_matches_interpret(e, np.arange(301))


@pytest.mark.parametrize("inner", [
    lambda k: Add(Const(10**20), Const(k)),  # short-lived scalar values
    lambda k: Add(VAR, Const(k)),
], ids=["scalar", "vector"])
def test_compositions_sharing_one_outer_function(inner):
    # one outer function under many compositions with distinct inner values
    f = Mul(P1(VAR), Const(3))
    e = Const(0)
    for k in range(1, 40):
        e = Add(e, Compose(f, inner(k)))
    assert_matches_interpret(e, np.arange(50))


def _pair_chain(depth):
    e = VAR
    for _ in range(depth):
        e = PairE(e, VAR)
    return e


@pytest.mark.parametrize("depth, dtype", [(1, np.int64), (2, np.int64),
                                          (3, object), (5, object)])
def test_nested_pair_chains_pick_the_exact_dtype(depth, dtype):
    got = assert_matches_interpret(_pair_chain(depth), np.arange(1001))
    assert got.dtype == dtype
    if dtype is object:
        assert max(got.tolist()) >= 2**63


def test_projections_of_huge_pairs_are_exact():
    # values pass 2**63 inside, but the projections bring them back down
    e = P2(P2(PairE(VAR, _pair_chain(4))))
    got = assert_matches_interpret(e, np.arange(1001))
    assert got.dtype == object
    assert got.tolist() == list(range(1001))


def test_value_vectors_past_int64():
    vals = [2**64 + 5, 2**70, 3, pair(2**40, 2**41)]
    for e in (P1(VAR), P2(VAR), ModC(VAR, 7), Add(VAR, Const(1)),
              _table(VAR, {3: 2**65}, None), Const(9)):
        got = eval_vec(e, np.array(vals, dtype=object))
        assert got.tolist() == [interpret(e, v) for v in vals]


def test_closed_expression_fills_the_vector():
    got = eval_vec(parse_fn("pair(3, 4) mod 5"), np.arange(10))
    assert got.dtype == np.int64
    assert got.tolist() == [pair(3, 4) % 5] * 10


def _triangular_boundaries(limit):
    w, zs = 1, []
    while w * (w + 1) // 2 < limit:
        t = w * (w + 1) // 2
        zs += [t - 1, t, t + 1]
        w = w * 3 // 2 + 1
    return zs


def test_unpair_at_triangular_boundaries():
    zs = _triangular_boundaries(2**61)
    int64_side = [z for z in zs if 8 * z + 1 < INT64_SAFE]
    exact_side = [z for z in zs if 8 * z + 1 >= INT64_SAFE]
    assert int64_side and exact_side
    for part, dtype in ((int64_side, np.int64), (exact_side, object)):
        xs = np.array(part, dtype=dtype)
        p1, p2 = eval_vec(P1(VAR), xs), eval_vec(P2(VAR), xs)
        assert p1.dtype == dtype
        assert list(zip(p1.tolist(), p2.tolist())) == [unpair(z) for z in part]


def test_unpair_near_the_int64_limit():
    # largest inputs the int64 path accepts, and their triangular neighbours
    top = (INT64_SAFE - 2) // 8
    w = int((2 * top) ** 0.5)
    zs = sorted({top, top - 1} | {w * (w + 1) // 2 + d for d in (-1, 0, 1)})
    zs = [z for z in zs if z <= top]
    for e in (P1(VAR), P2(VAR)):
        got = eval_vec(e, np.array(zs))
        assert got.dtype == np.int64
        assert got.tolist() == [interpret(e, z) for z in zs]


# -- truth vectors ---------------------------------------------------------------

H = 400


def assert_mask_is_pointwise(pred):
    mask = pred.mask(H)
    assert mask.dtype == bool and mask.shape == (H + 1,)
    assert mask.tolist() == [pred.truth_at(n) for n in range(H + 1)]


def test_agreement_masks_are_pointwise():
    rng = random.Random(11)
    for _ in range(40):
        a, b = rand_point_expr(rng), rand_point_expr(rng)
        assert_mask_is_pointwise(IndexPredicate.agreement(a, b))
    chain = _pair_chain(4)
    assert_mask_is_pointwise(IndexPredicate.agreement(chain, Add(chain, ModC(VAR, 2))))
    assert_mask_is_pointwise(
        IndexPredicate.agreement(P1(_pair_chain(4)), _pair_chain(3))
    )


def test_member_masks_are_pointwise():
    u = make_universe()
    rng = random.Random(12)
    for _ in range(40):
        xi = u.point(rand_point_expr(rng))
        a = StarSet(rand_indicator(rng))
        assert_mask_is_pointwise(u._member_predicate(xi, a))


def test_combinator_masks_are_pointwise():
    rng = random.Random(13)
    sat = IndexPredicate.from_fn(lambda n: int(n % 7 in (1, 4)), "sat[test]")
    for _ in range(20):
        p = IndexPredicate.from_expr(rand_indicator(rng))
        q = IndexPredicate.from_expr(rand_indicator(rng))
        for pred in (p.conj(q), p.disj(q), p.negate(), q.negate().negate(),
                     p.conj(sat), sat.disj(q), sat.negate()):
            assert_mask_is_pointwise(pred)


def test_values_are_python_ints():
    u = make_universe()
    xi = u.point(_pair_chain(3))
    vals = xi.values(50)
    assert all(type(v) is int for v in vals)
    assert vals == [interpret(xi.seq, n) for n in range(51)]
    small = u.point("x * x").values(20)
    assert all(type(v) is int for v in small)


# -- truth vectors read from known ones -------------------------------------------

#: the int64 path, and the object path forced by inputs past int64
_KNOWN_INPUTS = {
    "int64": np.arange(300),
    "object": np.array([2**63 + 11 * k for k in range(30)] + list(range(30)), dtype=object),
}


def _connective_tree(rng, parts, depth):
    if depth == 0 or rng.random() < 0.25:
        return rng.choice(parts)
    pick = rng.randrange(3)
    if pick == 0:
        return not_(_connective_tree(rng, parts, depth - 1))
    op = and_ if pick == 1 else or_
    return op(_connective_tree(rng, parts, depth - 1), _connective_tree(rng, parts, depth - 1))


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(sorted(_KNOWN_INPUTS)))
def test_known_truth_vectors_give_the_same_values(seed, path):
    """and/or/not trees over predicates with known truth vectors, each
    present, absent or of another length, evaluate as without them."""
    rng = random.Random(seed)
    xs = _KNOWN_INPUTS[path]
    parts = [normalize(Compose(rand_indicator(rng), rand_point_expr(rng))) for _ in range(4)]
    known = {}
    for part in parts:
        text = pretty(part)
        kind = rng.randrange(3)
        if kind == 0:
            known[text] = eval_vec(part, xs) != 0
        elif kind == 1:
            known[text] = np.ones(len(xs) + 1, dtype=bool)
    tree = normalize(_connective_tree(rng, parts, 3))
    got = eval_vec(tree, xs, known)
    assert got.tolist() == eval_vec(tree, xs).tolist()
    assert got.tolist() == [interpret(tree, int(x)) for x in xs]


def test_known_truth_vectors_are_read_at_the_top_level_only():
    xs = np.arange(50)
    p = normalize(parse_fn("ifeq(x mod 3, 0, 1, 0)"))
    # a wrong vector shows whether it was read
    wrong = {pretty(p): np.ones(50, dtype=bool)}
    assert eval_vec(not_(p), xs, wrong).tolist() == [0] * 50
    assert eval_vec(not_(p), xs).tolist() == [int(x % 3 != 0) for x in range(50)]
    # under a composition the input is another one, so nothing is read
    shifted = Compose(not_(p), Add(VAR, Const(1)))
    assert eval_vec(shifted, xs, wrong).tolist() == [int((x + 1) % 3 != 0) for x in range(50)]
    # nor for a text never cached on the node, or a vector of another length
    assert eval_vec(not_(parse_fn("ifeq(x mod 3, 0, 1, 0)")), xs, wrong).tolist() == \
        eval_vec(not_(p), xs).tolist()
    assert eval_vec(not_(p), xs, {pretty(p): np.ones(51, dtype=bool)}).tolist() == \
        eval_vec(not_(p), xs).tolist()
