import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from starext.errors import MalformedIndicator
from starext.funlang import (
    Compose,
    Const,
    IfEq,
    IndexPredicate,
    VAR,
    interpret,
    normalize,
    parse_fn,
    pretty,
)
from starext.gen import rand_expr, rand_indicator, rand_point_expr
from starext.hyper import (
    StarSet,
    diagonal_composite,
    set_complement,
    set_intersection,
    set_union,
)
from tests.conftest import make_universe


# -- standard embedding ---------------------------------------------------------

def test_standard_points_distinct(u):
    assert not u.eq(u.standard(0), u.standard(1))
    assert u.eq(u.standard(3), u.standard(3))
    assert not u.eq(u.standard(3), u.standard(4))


def test_star_of_successor_on_standard(u):
    assert u.eq(u.star_apply(parse_fn("x + 1"), u.standard(4)), u.standard(5))


def test_star_of_constant_on_nonstandard(u):
    omega = u.point(VAR)
    image = u.star_apply(Const(7), omega)
    assert image.values(50) == [7] * 51
    assert u.eq(image, u.standard(7))


def test_standard_embedding_fixed_by_star(u):
    rng = random.Random(2)
    for _ in range(30):
        f = rand_expr(rng, 3)
        x = rng.randrange(200)
        assert u.eq(u.star_apply(f, u.standard(x)), u.standard(interpret(f, x)))


# -- equality ---------------------------------------------------------------------

def test_eq_is_oracle_decision_on_agreement(u):
    par = u.point("x mod 2")
    d = u.eq(par, u.standard(0))
    # brute-force the agreement set and compare with the logged decision
    expected_mask = [n % 2 == 0 for n in range(u.oracle.horizon + 1)]
    pred = IndexPredicate.agreement(par.seq, Const(0))
    assert list(pred.mask(u.oracle.horizon)) == expected_mask
    assert u.oracle.decided(pred) == d


def test_eq_reflexive_symmetric(u):
    rng = random.Random(4)
    for _ in range(20):
        a = u.point(rand_point_expr(rng))
        b = u.point(rand_point_expr(rng))
        assert u.eq(a, a)
        assert u.eq(a, b) == u.eq(b, a)


def test_eq_transitive_relative_to_filter(u):
    a = u.point("x")
    b = u.point("ifeq(x, 3, 0, x)")     # differs finitely from a
    c = u.point("ifeq(x, 8, 1, x)")     # differs finitely from b
    assert u.eq(a, b) and u.eq(b, c)
    assert u.eq(a, c)


# -- star application ----------------------------------------------------------------

def test_star_identity_is_identity(u):
    xi = u.point("pair(x, x * 2)")
    assert u.star_apply(VAR, xi) is xi  # same interned point


def test_composition_pointwise_identity(u):
    omega = u.point(VAR)
    f, g = parse_fn("x + 1"), parse_fn("x * 2")
    lhs = u.star_apply(g, u.star_apply(f, omega))
    rhs = u.star_apply(Compose(g, f), omega)
    assert lhs.text == rhs.text
    assert lhs.values(1000) == rhs.values(1000)


def test_diagonal_composite_tracks_equality(u):
    rng = random.Random(8)
    for _ in range(30):
        f, g = rand_expr(rng, 2), rand_expr(rng, 2)
        xi = u.point(rand_point_expr(rng))
        ind = u.star_apply(diagonal_composite(f, g), xi)
        same = u.eq(u.star_apply(f, xi), u.star_apply(g, xi))
        assert u.eq(ind, u.standard(1)) == same
        assert u.eq(ind, u.standard(0)) == (not same)


# -- set extensions --------------------------------------------------------------------

def test_member_standard_points(u):
    evens = u.star_set("ifeq(x mod 2, 0, 1, 0)", tag="evens")
    assert u.member(u.standard(4), evens)
    assert not u.member(u.standard(3), evens)


def test_member_nonstandard_complement(u):
    evens = u.star_set("ifeq(x mod 2, 0, 1, 0)")
    odds = u.star_set("ifeq(x mod 2, 0, 0, 1)")
    omega = u.point(VAR)
    assert u.member(omega, evens) != u.member(omega, odds)


def test_membership_commutes_with_boolean_ops():
    rng = random.Random(12)
    for _ in range(40):
        u = make_universe(horizon=1000)
        a = StarSet(rand_indicator(rng), tag="a")
        b = StarSet(rand_indicator(rng), tag="b")
        xi = u.point(rand_point_expr(rng))
        ia, ib = u.member(xi, a), u.member(xi, b)
        assert u.member(xi, set_union(a, b)) == (ia or ib)
        assert u.member(xi, set_intersection(a, b)) == (ia and ib)
        assert u.member(xi, set_complement(a)) == (not ia)


# -- the normal-form memo of a universe -------------------------------------------

def _boolean_family(rng):
    """Two random sets and their union, intersection and complement; the
    indicators are normalized, as the suites make them, or left raw."""
    a, b = (StarSet(normalize(ind) if rng.random() < 0.7 else ind)
            for ind in (rand_indicator(rng), rand_indicator(rng)))
    return [a, b, set_union(a, b), set_intersection(a, b), set_complement(a)]


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([256, 700]))
def test_member_memo_matches_stateless_path(seed, horizon):
    """Membership predicates built through one universe's memo equal the
    ones built without a memo, while the sets queried before are dropped
    and new ones take their place (and perhaps their ids)."""
    rng = random.Random(seed)
    u = make_universe(horizon=horizon)
    points = [u.point(rand_point_expr(rng)) for _ in range(3)]
    known: dict[str, np.ndarray] = {}
    for _ in range(4):
        family = _boolean_family(rng)
        for xi in rng.sample(points, len(points)):
            for s in family:
                got = u._member_predicate(xi, s)
                ref = IndexPredicate.from_expr(Compose(s.indicator, xi.seq))
                assert got.text == ref.text
                assert got.expr == ref.expr
                mask = got.mask(horizon, known)
                assert np.array_equal(mask, ref.mask(horizon))
                known[got.text] = mask
        del family, s


def test_boolean_queries_reuse_the_parts_normal_forms():
    u = make_universe(horizon=256)
    a = StarSet(normalize(parse_fn("ifeq(x mod 3, 1, 1, 0)")), tag="a")
    b = StarSet(normalize(parse_fn("ifeq(x mod 5, 2, 1, 0)")), tag="b")
    xi = u.point("x * x + 7")
    in_a = u._member_predicate(xi, a).expr
    in_b = u._member_predicate(xi, b).expr
    union = u._member_predicate(xi, set_union(a, b)).expr
    assert isinstance(union, IfEq) and union.a is in_a and union.then.a is in_b
    assert u._member_predicate(xi, set_complement(a)).expr.a is in_a
    assert pretty(union) == pretty(normalize(Compose(set_union(a, b).indicator, xi.seq)))
    # a sibling starts its own memo
    sibling = u.with_fresh_filter()
    assert sibling._member_predicate(xi, a).expr is not in_a


def test_standard_part_recovers_base_set(u):
    ind = parse_fn("ifeq(x mod 3, 1, 1, 0)")
    a = u.star_set(ind, tag="mod3=1")
    for x in range(0, 300, 7):
        assert u.member(u.standard(x), a) == (x % 3 == 1)


def test_malformed_indicator_rejected(u):
    with pytest.raises(MalformedIndicator):
        u.star_set("x + 2")


# -- equalizers -------------------------------------------------------------------------

def test_equalizer_of_equal_functions_is_full(u):
    f = parse_fn("x * 3")
    eqz = u.equalizer(f, f)
    rng = random.Random(3)
    for _ in range(10):
        assert u.member(u.point(rand_point_expr(rng)), eqz)


def test_equalizer_reduction_shares_predicate_text(u):
    f, g = parse_fn("x mod 2"), Const(0)
    omega = u.point(VAR)
    eqz = u.equalizer(f, g)
    member_pred = u._member_predicate(omega, eqz)
    fa, ga = u.star_apply(f, omega), u.star_apply(g, omega)
    eq_pred = IndexPredicate.agreement(fa.seq, ga.seq)
    assert member_pred.text == eq_pred.text
    assert u.member(omega, eqz) == u.eq(fa, ga)


def test_disjoint_functions_have_disjoint_extensions(u):
    f, g = VAR, parse_fn("x + 3")  # never equal on the base set
    eqz = u.equalizer(f, g)
    rng = random.Random(6)
    for _ in range(10):
        xi = u.point(rand_point_expr(rng))
        assert not u.member(xi, eqz)
        assert not u.eq(u.star_apply(f, xi), u.star_apply(g, xi))


# -- finite sets ----------------------------------------------------------------------------

def test_decide_finite_standard_member(u):
    assert u.decide_finite(u.standard(2), [1, 2, 3]) == 2


def test_decide_finite_nonmember(u):
    omega = u.point(VAR)
    assert u.decide_finite(omega, [1, 2, 3]) is None


def test_decide_finite_bounded_point(u):
    xi = u.point("x mod 3")
    result = u.decide_finite(xi, [0, 1, 2])
    assert result in (0, 1, 2)
    # exactly one level set accepted: the others are rejected
    others = [a for a in (0, 1, 2) if a != result]
    for a in others:
        assert not u.eq(xi, u.standard(a))


def test_decide_finite_no_false_resolution(u):
    xi = u.point("x mod 5")  # takes values outside {0, 1}
    result = u.decide_finite(xi, [0, 1])
    if result is not None:
        assert result in (0, 1)


# -- injectivity and ranges -----------------------------------------------------------------

def test_injective_function_preserves_distinctness(u):
    f = parse_fn("x * 2")  # injective on all of the base set
    a = u.point(VAR)
    b = u.point("ifeq(x, 5, 0, x)")
    if u.eq(u.star_apply(f, a), u.star_apply(f, b)):
        assert u.eq(a, b)
    c = u.point("x + 1")
    assert not u.eq(u.star_apply(f, a), u.star_apply(f, c))
    assert not u.eq(a, c)


def test_range_membership_for_bounded_points(u):
    f = parse_fn("x * 3")
    xi = u.point("x mod 6")
    image = u.image_set(f, range(6), tag="3*[0..5]")
    assert u.member(u.star_apply(f, xi), image)


def test_image_of_standard_point(u):
    f = parse_fn("x * x")
    image = u.image_set(f, range(10))
    assert u.member(u.star_apply(f, u.standard(4)), image)
    assert not u.member(u.standard(17), image)


# -- printing ---------------------------------------------------------------------------------

def test_point_and_set_display(u):
    omega = u.point(VAR)
    assert repr(omega) == "[n -> x]"
    evens = u.star_set("ifeq(x mod 2, 0, 1, 0)")
    assert repr(evens) == "{x : ifeq(x mod 2, 0, 1, 0)(x)=1}"
