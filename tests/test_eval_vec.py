"""Differential tests: the vectorised evaluator against the reference
interpreter, and every truth vector against its pointwise definition."""

import random
import tracemalloc
from collections import OrderedDict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from starext.funlang import (
    INT64_SAFE,
    _bound_pass,
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
from starext import funlang
from starext.errors import Undecidable
from starext.gen import rand_expr, rand_indicator, rand_point_expr
from starext.hyper import StarSet
from starext.oracle import OracleConfig, OracleState

from .conftest import make_universe, trees, truth_vector


def assert_matches_interpret(e, xs, source=None):
    """``eval_vec(e, xs)`` against :func:`interpret` of ``source``, by
    default ``e`` itself; a composed ``source`` is given as its normal
    form ``e``."""
    got = eval_vec(e, xs)
    ref = [interpret(e if source is None else source, int(x)) for x in xs]
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
    assert_matches_interpret(normalize(e), np.arange(65), e)


@settings(max_examples=300)
@given(st.integers(0, 2**32), st.integers(1, 5), st.booleans())
def test_eval_vec_matches_interpret_on_rand_expr(seed, depth, compose):
    rng = random.Random(seed)
    e = rand_expr(rng, depth)
    if compose:
        e = Compose(e, rand_point_expr(rng))
    assert_matches_interpret(normalize(e), np.arange(301), e)


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
    assert_matches_interpret(normalize(e), np.arange(50), e)


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


# -- exact ints only where a node needs them ------------------------------------

#: subtrees whose values pass 2**62 on inputs up to 10**4; the first is a
#: comparison side of a mask-h10k query (seed 1)
_HUGE = [
    Mul(VAR, Mul(PairE(Const(4), VAR), PairE(Const(4), VAR))),
    _pair_chain(3),
    Mul(Mul(VAR, VAR), Mul(Mul(VAR, VAR), Mul(VAR, VAR))),
    Const(2**62),
    Const(2**70),
]

#: subtrees whose bound is 0
_ZERO = [Const(0), ModC(VAR, 1), Sub(Const(0), VAR)]

#: small keys the arguments hit, and keys at and past 2**62
_KEYS = st.sampled_from([0, 1, 2, 3, 7, 2**62 - 1, 2**62, 2**62 + 1, 2**70])

_DIVISORS = st.integers(1, 9) | st.integers(2**62 - 2, 2**62 + 2) | st.just(2**70)

#: the leaves, and the branches as (arity, build(draw, *children)) pairs
_wide_leaf = st.sampled_from(_HUGE) | st.just(VAR) | st.integers(0, 9).map(Const)

_WIDE_BRANCHES = [
    (2, lambda draw, a, b: Add(a, b)),
    (2, lambda draw, a, b: Sub(a, b)),
    (2, lambda draw, a, b: Mul(a, b)),
    (1, lambda draw, a: Mul(a, draw(st.sampled_from(_ZERO)))),
    (1, lambda draw, a: DivC(a, draw(_DIVISORS))),
    (1, lambda draw, a: ModC(a, draw(_DIVISORS))),
    (4, lambda draw, a, b, t, o: IfEq(a, b, t, o)),
    (2, lambda draw, a, b: PairE(a, b)),
    (1, lambda draw, a: P1(a)),
    (1, lambda draw, a: P2(a)),
    (1, lambda draw, a: _table(a, draw(st.dictionaries(_KEYS, _KEYS, max_size=4)),
                               draw(st.none() | _KEYS))),
]

#: nodes that bring a huge value ``t`` back below 2**62
_DOWN = [
    lambda t, s: ModC(t, 7),
    lambda t, s: DivC(t, 2**70),
    lambda t, s: IfEq(s, t, Const(0), Const(1)),
    lambda t, s: IfEq(t, t, s, Const(1)),
    lambda t, s: Sub(s, t),
    lambda t, s: Mul(t, Sub(s, s)),
    lambda t, s: P1(P2(PairE(s, PairE(s, t)))),
    lambda t, s: _table(t, {0: 5, 2**62: 1, 2**70: 2}, 3),
]

_wide_trees = st.builds(
    lambda down, t, s: down(t, s),
    st.sampled_from(_DOWN),
    trees(_wide_leaf, _WIDE_BRANCHES, st.integers(1, 12)),
    _wide_leaf,
)


@settings(max_examples=300, deadline=None)
@given(_wide_trees, st.lists(st.integers(0, 10**4), min_size=1, max_size=8))
def test_eval_vec_matches_interpret_past_int64(e, xs):
    """Trees whose values pass 2**62 and come back down: exact ints where
    a node needs them, int64 elsewhere, and the values of interpret."""
    got = assert_matches_interpret(e, np.array(xs))
    wide, _ = _bound_pass(e, max(xs))
    assert (got.dtype == object) == bool(wide.get(id(e)))


#: trees with exact nodes, their inputs and the dtype of their result
_PINNED = {
    # the product passes 2**62 at H = 10**4, the comparison brings it down
    "wide-ifeq": (parse_fn("ifeq(2, x * (pair(4, x) * pair(4, x)), 0, 1)"),
                  np.arange(10**4 + 1), np.int64),
    # a saturated bound divided stays saturated: the values are ~2**100
    "div-saturated": (DivC(Mul(VAR, Const(2**101)), 2), np.arange(6), object),
    "mul-by-zero-bound": (Mul(VAR, Const(2**70)), np.array([0]), np.int64),
    "sub-huge-right": (Sub(VAR, Const(2**70)), np.arange(6), np.int64),
}


@pytest.mark.parametrize("row", sorted(_PINNED))
def test_pinned_wide_rows(row):
    e, xs, dtype = _PINNED[row]
    got = assert_matches_interpret(e, xs)
    assert got.dtype == dtype


# -- wide comparisons decided without building the wide side ---------------------

#: pair components: narrow ones, and ones past 2**63 at every input >= 1
_PAST_2_63 = [Mul(VAR, Const(2**63)), Add(VAR, Const(2**63)), _pair_chain(4)]
_pair_component = (st.sampled_from(_PAST_2_63 + [VAR, Mul(VAR, VAR), Add(VAR, Const(1))])
                   | st.integers(0, 9).map(Const))
_pair_trees = trees(_pair_component, [(2, lambda draw, a, b: PairE(a, b))],
                    st.integers(1, 7))


def _near_copy(e, draw):
    """A copy of the pair tree ``e`` whose leaves are kept or nudged by one."""
    if type(e) is PairE:
        return PairE(_near_copy(e.left, draw), _near_copy(e.right, draw))
    return Add(e, Const(1)) if draw(st.integers(0, 3)) == 0 else e


@st.composite
def _pair_comparisons(draw):
    """``ifeq(p, q, 1, 0)`` where p and q are pairs, each with a component
    past 2**63, and q is another pair tree or a near copy of p."""
    def side():
        big, other = draw(st.sampled_from(_PAST_2_63)), draw(_pair_trees)
        return PairE(big, other) if draw(st.booleans()) else PairE(other, big)

    p = side()
    q = _near_copy(p, draw) if draw(st.booleans()) else side()
    return IfEq(p, q, Const(1), Const(0))


@settings(max_examples=200, deadline=None)
@given(_pair_comparisons(), st.lists(st.integers(1, 10**4), min_size=1, max_size=8))
def test_pairs_past_2_63_compare_by_components(e, xs):
    got = assert_matches_interpret(e, np.array(xs))
    assert got.dtype == np.int64


_X6 = Mul(VAR, Mul(VAR, Mul(VAR, Mul(VAR, Mul(VAR, VAR)))))


def _row(a, b, hits):
    return IfEq(a, b, Const(1), Const(0)), hits


#: ifeq rows with a wide pair, product or sum on one side, on 0..2000,
#: where x**6 passes 2**62, and the inputs where the sides are equal
_WIDE_EQ = {
    "pair-vs-pair-first-equal": _row(PairE(_X6, VAR), PairE(_X6, Add(VAR, Const(1))), []),
    "pair-vs-pair": _row(PairE(_X6, VAR), PairE(parse_fn("x*x*x*x*x*x"), ModC(VAR, 7)),
                         list(range(7))),
    "pair-vs-narrow": _row(PairE(_X6, VAR), PairE(VAR, VAR), [0, 1]),
    "pair-vs-narrow-first-equal": _row(PairE(_X6, VAR), PairE(VAR, Const(2)), []),
    # the narrow side on the left
    "narrow-vs-pair": _row(PairE(VAR, Const(5)), PairE(_X6, Add(VAR, Const(4))), [1]),
    "nested-wide-pair-vs-narrow": _row(PairE(PairE(_X6, Const(3)), ModC(VAR, 5)),
                                       PairE(PairE(VAR, Const(3)), ModC(VAR, 5)), [0, 1]),
    "nested-pair-vs-narrow": _row(PairE(PairE(Const(4), VAR), Mul(PairE(VAR, VAR), _X6)),
                                  PairE(PairE(Const(4), VAR), Mul(VAR, Const(3))), [0]),
    # pair(2**30, 0) is too large to unpair in int64
    "too-large-to-unpair": _row(PairE(Mul(VAR, Const(2**21)), ModC(VAR, 512)),
                                Const(pair(2**30, 0)), [512]),
    # an int64 array holding pair(s, 0) for the largest s with s(s+1)/2
    # below 2**62, which the int64 unpair's correction step overflows at
    "array-too-large-to-unpair": _row(PairE(Add(VAR, Const(3037000499 - 512)), ModC(VAR, 512)),
                                      IfEq(VAR, Const(512), Const(pair(3037000499, 0)), Const(0)),
                                      [512]),
    "product": _row(Mul(VAR, _X6), Const(128), [2]),
    "zero-factor-against-zero": _row(Mul(ModC(VAR, 2), PairE(_X6, Const(1))), Const(0),
                                     list(range(0, 2001, 2))),
    "zero-factor-against-x": _row(VAR, Mul(ModC(VAR, 2), _X6), [0, 1]),
    "sum": _row(Add(_X6, VAR), Const(66), [2]),
    # past x = 0 the other side is smaller than the known addend 5x
    "sum-past-the-other-side": _row(Add(Mul(VAR, Const(5)), PairE(_X6, VAR)), VAR, [0]),
    "sum-of-wide-parts": _row(Add(_X6, _X6), Mul(VAR, Const(2)), [0, 1]),
    # the clamped side at the clamp: a sum worth 2**62 - 1 at x = 1998,
    # and one worth 2**62 at x = 2000, against the largest narrow value
    "sum-just-below-the-clamp": _row(Add(VAR, Const(2**62 - 1999)), Const(2**62 - 1), [1998]),
    "sum-at-the-clamp": _row(Add(Add(VAR, VAR), Const(2**62 - 4000)), Const(2**62 - 1), []),
    "saturated-times-zero-factor": _row(Mul(Mul(VAR, Const(2**70)), ModC(VAR, 2)), Const(0),
                                        list(range(0, 2001, 2))),
    # l + r reaches 3,037,000,499 at x = 995 and passes it after
    "pair-crossing-the-sum-limit": _row(PairE(Add(VAR, Const(3037000499 - 1000)), Const(5)),
                                        Const(pair(3037000499 - 5, 5)), [995]),
    "p2-of-wide-product-in-pair": _row(PairE(P2(Mul(_X6, _X6)), ModC(VAR, 3)),
                                       Const(pair(0, 1)), [1]),
    # the subtraction is 0 up to x = 1024 and passes 2**62 by x = 2000
    "wide-subtraction-in-pair": _row(PairE(Sub(_X6, Mul(Mul(VAR, VAR), Const(2**40))), VAR),
                                     PairE(Const(0), VAR), list(range(1025))),
}


@pytest.mark.parametrize("row", sorted(_WIDE_EQ))
def test_wide_comparisons_against_narrow_sides(row):
    e, hits = _WIDE_EQ[row]
    wide, _ = _bound_pass(e, 2000)
    assert wide.get(id(e.a)) or wide.get(id(e.b))
    got = assert_matches_interpret(e, np.arange(2001))
    assert got.dtype == np.int64
    assert np.flatnonzero(got).tolist() == hits


# -- evaluation a block at a time -------------------------------------------------

#: the block size the blocked evaluations below are run with
_BLOCK = 16

#: entries past 2**62, for inputs evaluated in Python ints
_BIG_INPUTS = [2**62, 2**62 + 1, 2**64 + 5, 2**70, pair(2**40, 2**41)]


@st.composite
def _blocked_inputs(draw):
    """One to three blocks of inputs plus a remainder, shuffled, with
    repeats; past 2**62 in some draws, as an object array."""
    size = draw(st.integers(1, 3)) * _BLOCK + draw(st.integers(0, _BLOCK - 1))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    pool = [rng.randrange(10**4) for _ in range(size // 2 + 1)] + [0, 1, 10**4]
    if draw(st.booleans()):
        pool += _BIG_INPUTS
    xs = rng.choices(pool, k=size)
    return np.array(xs, dtype=object if max(xs) >= INT64_SAFE else np.int64)


_any_wide_tree = trees(_wide_leaf, _WIDE_BRANCHES, st.integers(1, 12))

_closed_leaf = st.sampled_from([Const(2**62), Const(2**70)]) | st.integers(0, 9).map(Const)

#: trees with a wide root, trees that come back down, closed trees, and
#: trees under a Table
_blocked_trees = st.one_of(
    _any_wide_tree,
    _wide_trees,
    trees(_closed_leaf, _WIDE_BRANCHES, st.integers(1, 12)),
    st.builds(_table, _any_wide_tree, st.dictionaries(_KEYS, _KEYS, max_size=4),
              st.none() | _KEYS),
)


def _eval_in_blocks(e, xs, block):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(funlang, "EVAL_BLOCK", block)
        return eval_vec(e, xs)


@settings(max_examples=300, deadline=None)
@given(_blocked_trees, _blocked_inputs())
def test_blocked_evaluation_matches_interpret(e, xs):
    """Blocks of inputs give the values of interpret, and the dtype of
    one evaluation over all of them."""
    got = _eval_in_blocks(e, xs, _BLOCK)
    assert got.tolist() == [interpret(e, x) for x in xs.tolist()]
    assert got.dtype == _eval_in_blocks(e, xs, len(xs)).dtype


def test_blocked_evaluation_keeps_the_input_shape():
    e = PairE(_X6, VAR)
    xs = np.arange(0, 1000 * (2 * _BLOCK + 3), 1000).reshape(1, -1)
    got = _eval_in_blocks(e, xs, _BLOCK)
    assert got.shape == xs.shape and got.dtype == object
    assert got.tolist() == [[interpret(e, x) for x in xs[0].tolist()]]


def _traced_peak(run) -> int:
    """The peak of the memory that tracemalloc traces while ``run`` runs."""
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


#: mask-h10k queries with wide nodes: one compares a side evaluated
#: clamped, one compares two wide sides in Python ints. Built in Python
#: ints over all of 0..10**4 at once, their masks traced 2.6 and 2.2 MiB.
_WIDE_MASKS = {
    "clamped-side": "ifeq((pair(3, x * x) * 9) div 6 * pair(pair(3, x * x) - 2, "
                    "pair(pair(3, x * x), pair(3, x * x))), x, 1, 0)",
    "two-wide-sides": "ifeq(pair(x, x * x) + 6 - pair(pair(x, x * x), pair(x, x * x)), "
                      "pair(x, x * x) * pair(x, x * x) - (pair(x, x * x) + 0), 1, 0)",
}


@pytest.mark.parametrize("row", sorted(_WIDE_MASKS))
def test_wide_masks_trace_less_than_a_mebibyte(row):
    pred = IndexPredicate.from_expr(parse_fn(_WIDE_MASKS[row]))
    horizon = 10**4
    out = []
    assert _traced_peak(lambda: out.append(pred.mask(horizon))) < 2**20
    # a sample of the indices, the blocks' edges among them
    ns = sorted({0, 1, 2047, 2048, 2049, 4096, 8191, 8192, horizon}
                | set(range(0, horizon, 97)))
    assert [out[0] >> n & 1 for n in ns] == [int(interpret(pred.expr, n) != 0) for n in ns]


# -- truth vectors ---------------------------------------------------------------

H = 400


def truth(pred):
    """The reference truth of an expression predicate at one index."""
    return lambda n: interpret(pred.expr, n) != 0


def assert_mask_is_pointwise(pred, reference=None):
    """``reference(n)`` is the truth at n, by default :func:`truth`."""
    reference = reference or truth(pred)
    bits = pred.mask(H)
    assert type(bits) is int
    mask = truth_vector(bits, H)
    assert mask.tolist() == [reference(n) for n in range(H + 1)]


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
    for _ in range(20):
        p, q = rand_indicator(rng), rand_indicator(rng)
        pt = truth(IndexPredicate.from_expr(p))
        qt = truth(IndexPredicate.from_expr(q))
        for expr, reference in (
            (and_(p, q), lambda n: pt(n) and qt(n)),
            (or_(p, q), lambda n: pt(n) or qt(n)),
            (not_(p), lambda n: not pt(n)),
            (not_(not_(q)), qt),
        ):
            assert_mask_is_pointwise(IndexPredicate.from_expr(expr), reference)


def test_values_are_python_ints():
    u = make_universe()
    xi = u.point(_pair_chain(3))
    vals = xi.values(50)
    assert all(type(v) is int for v in vals)
    assert vals == [interpret(xi.seq, n) for n in range(51)]
    small = u.point("x * x").values(20)
    assert all(type(v) is int for v in small)


# -- truth sets combined from cached ones -------------------------------------------

#: the shapes of and/or/not trees over the indices of their parts
_connective_shapes = trees(
    st.integers(0, 3),
    [(1, lambda draw, p: ("not", p)),
     (2, lambda draw, p, q: (draw(st.sampled_from(["and", "or"])), p, q))],
    st.integers(1, 12),
)


def _connectives(shape, parts):
    """The tree of ``shape`` over ``parts``."""
    if isinstance(shape, int):
        return parts[shape]
    if shape[0] == "not":
        return not_(_connectives(shape[1], parts))
    op = and_ if shape[0] == "and" else or_
    return op(_connectives(shape[1], parts), _connectives(shape[2], parts))


def _leaves(shape):
    if isinstance(shape, int):
        return {shape}
    return set().union(*map(_leaves, shape[1:]))


def _ref_bits(e, horizon):
    """The truth set of ``e`` over 0..horizon as an int, from eval_vec."""
    truth = (eval_vec(e, np.arange(horizon + 1)) != 0).tolist()
    return int("".join("1" if t else "0" for t in reversed(truth)), 2)


def _count_eval_vec(mp):
    """Patch ``eval_vec`` for the mask builder; the list the calls go to."""
    calls = []

    def counted(*args):
        calls.append(args)
        return eval_vec(*args)

    mp.setattr(funlang, "eval_vec", counted)
    return calls


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1), _connective_shapes,
       st.lists(st.sampled_from(["cached", "evicted", "closed"]), min_size=4, max_size=4),
       st.sampled_from([64, 256, 10_000]))
def test_known_truth_vectors_give_the_same_values(seed, shape, kinds, horizon):
    """and/or/not trees over indicator parts, each cached, evicted (its
    text printed, its set not in the cache) or closed: the mask combined
    from the cache has the bits of eval_vec over the whole tree without
    it, and makes no eval_vec call when every part is cached or closed."""
    rng = random.Random(seed)
    parts, cache = [], OrderedDict()
    for kind in kinds:
        point = Const(rng.randrange(1000)) if kind == "closed" else rand_point_expr(rng)
        part = normalize(Compose(rand_indicator(rng), point))
        if kind == "cached":
            cache[pretty(part)] = _ref_bits(part, horizon)
        else:
            pretty(part)
        parts.append(part)
    pred = IndexPredicate.from_expr(_connectives(shape, parts))
    want = eval_vec(pred.expr, np.arange(horizon + 1)) != 0
    with pytest.MonkeyPatch.context() as mp:
        calls = _count_eval_vec(mp)
        got = pred.mask(horizon, cache)
    assert (truth_vector(got, horizon) == want).all()
    if all(kinds[k] != "evicted" for k in _leaves(shape)):
        assert calls == []


def test_known_truth_vectors_are_read_at_the_top_level_only(monkeypatch):
    horizon = 49
    p = normalize(parse_fn("ifeq(x mod 3, 0, 1, 0)"))
    # a wrong set shows whether it was read
    wrong = {pretty(p): (1 << horizon + 1) - 1}
    assert IndexPredicate.from_expr(not_(p)).mask(horizon, wrong) == 0
    assert truth_vector(IndexPredicate.from_expr(not_(p)).mask(horizon), horizon).tolist() == \
        [x % 3 != 0 for x in range(50)]
    # under a composition the input is another one: the normal form
    # rebuilds p on it, a node with no text cached, so nothing is read
    shifted = IndexPredicate.from_expr(Compose(not_(p), Add(VAR, Const(1))))
    assert truth_vector(shifted.mask(horizon, wrong), horizon).tolist() == \
        [(x + 1) % 3 != 0 for x in range(50)]
    # nor for a text never cached on the node
    fresh = IndexPredicate.from_expr(not_(parse_fn("ifeq(x mod 3, 0, 1, 0)")))
    assert fresh.mask(horizon, wrong) == IndexPredicate.from_expr(not_(p)).mask(horizon)
    # a closed condition is read off its text, with no eval_vec call
    yes = normalize(Compose(p, Const(3)))
    pretty(yes)
    calls = _count_eval_vec(monkeypatch)
    both = IndexPredicate.from_expr(and_(yes, p))
    assert both.mask(horizon, {pretty(p): 0b1001}) == 0b1001
    assert calls == []


def _connective_tree(rng, parts, depth):
    if depth == 0 or rng.random() < 0.25:
        return rng.choice(parts)
    pick = rng.randrange(3)
    if pick == 0:
        return not_(_connective_tree(rng, parts, depth - 1))
    op = and_ if pick == 1 else or_
    return op(_connective_tree(rng, parts, depth - 1), _connective_tree(rng, parts, depth - 1))


def _query(state, expr):
    pred = IndexPredicate.from_expr(expr)
    try:
        state.query(pred)
    except Undecidable:
        pass  # the truth vector is cached all the same
    return pred.text


@pytest.mark.parametrize("seed", range(12))
def test_known_truth_vectors_read_through_the_packed_mask_cache(seed):
    """The oracle's mask cache holds each truth set as an int with no bit
    past the horizon, and the connectives it combines from cached parts
    get the values they have without the cache."""
    rng = random.Random(seed)
    horizon = 300
    cache = OrderedDict()
    state = OracleState(OracleConfig(horizon=horizon), mask_cache=cache)
    parts = [normalize(Compose(rand_indicator(rng), rand_point_expr(rng))) for _ in range(4)]
    for part in rng.sample(parts, rng.randrange(5)):
        _query(state, part)
    tree = normalize(_connective_tree(rng, parts, 3))
    text = _query(state, tree)
    assert cache and all(type(v) is int for v in cache.values())
    if text in cache:
        got = truth_vector(cache[text], horizon)
        assert got.tolist() == [interpret(tree, n) != 0 for n in range(horizon + 1)]
    # a wrong set in the cache shows that it is read
    p = normalize(parse_fn("ifeq(x mod 3, 0, 1, 0)"))
    cache[_query(state, p)] = (1 << horizon + 1) - 1
    assert cache[_query(state, not_(p))] == 0
