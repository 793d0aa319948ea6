import random

import pytest

from starext.funlang import Const, VAR, parse_fn
from starext.gen import rand_expr, rand_point_expr
from starext.topology import (
    BasicClosed,
    closed_member,
    covers_standard,
    star_preimage,
)
from tests.conftest import make_universe


def test_identity_fiber_contains_the_point(u):
    xi = u.point("pair(x, x)")
    assert closed_member(u, xi, BasicClosed(((VAR, xi),)))


def test_mismatched_constant_fiber_is_empty(u):
    closed = BasicClosed(((Const(5), u.standard(4)),))
    rng = random.Random(1)
    for _ in range(8):
        assert not closed_member(u, u.point(rand_point_expr(rng)), closed)


def test_parity_fiber_matches_oracle_decision(u):
    omega = u.point(VAR)
    closed = BasicClosed(((parse_fn("x mod 2"), u.standard(0)),))
    evens = u.star_set("ifeq(x mod 2, 0, 1, 0)")
    assert closed_member(u, omega, closed) == u.member(omega, evens)


def test_partition_cover_is_everything(u):
    closed = BasicClosed((
        (parse_fn("ifeq(x mod 3, 1, 1, 0)"), u.standard(1)),
        (parse_fn("ifeq(x mod 3, 1, 0, 1)"), u.standard(1)),
    ))
    assert covers_standard(u, closed) is None
    rng = random.Random(2)
    for _ in range(10):
        assert closed_member(u, u.point(rand_point_expr(rng)), closed)


def test_non_cover_reports_least_witness(u):
    closed = BasicClosed(((parse_fn("x mod 2"), u.standard(0)),))
    assert covers_standard(u, closed) == 1


def test_cover_requires_standard_targets(u):
    omega = u.point(VAR)
    with pytest.raises(ValueError):
        covers_standard(u, BasicClosed(((VAR, omega),)))


def test_preimage_identity(u):
    xi = u.point("x * 7")
    closed = BasicClosed(((parse_fn("x mod 5"), u.standard(2)),))
    pre = star_preimage(VAR, closed)
    assert closed_member(u, xi, pre) == closed_member(u, xi, closed)


def test_preimage_shifts_the_fiber(u):
    closed = BasicClosed(((VAR, u.standard(5)),))
    pre = star_preimage(parse_fn("x + 1"), closed)
    assert closed_member(u, u.standard(4), pre)
    assert not closed_member(u, u.standard(5), pre)


def test_continuity_biconditional_random():
    rng = random.Random(7)
    for _ in range(40):
        u = make_universe(horizon=1000)
        f = rand_expr(rng, 3)
        closed = BasicClosed(tuple(
            (rand_expr(rng, 2), u.point(rand_point_expr(rng)))
            for _ in range(rng.randrange(1, 4))
        ))
        xi = u.point(rand_point_expr(rng))
        assert closed_member(u, u.star_apply(f, xi), closed) == \
            closed_member(u, xi, star_preimage(f, closed))


def test_membership_monotone_under_added_pairs(u):
    xi = u.point("x + 2")
    closed = BasicClosed(((VAR, xi),))
    bigger = closed.with_pair(Const(0), u.standard(9))
    assert closed_member(u, xi, closed)
    assert closed_member(u, xi, bigger)


def test_nonstandard_target_excludes_standard_points(u):
    omega = u.point(VAR)
    closed = BasicClosed(((parse_fn("x * 2"), omega),))
    for x in range(0, 40, 3):
        assert not closed_member(u, u.standard(x), closed)


def test_separating_closed_set(u):
    """{omega} under the identity listing, the surrogate for T1
    separation: a point not equal to omega is outside it."""
    omega = u.point(VAR)
    sep = BasicClosed(((VAR, omega),))
    assert closed_member(u, omega, sep)
    assert not closed_member(u, u.standard(3), sep)
    assert not closed_member(u, u.point("x * 2"), sep)
