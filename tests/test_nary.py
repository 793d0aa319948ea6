import random

import pytest

from starext.funlang import VAR, Name, interpret, parse_fn
from starext.gen import rand_nary, rand_point_expr
from starext.nary import (
    NaryFn,
    alternative_decompositions,
    default_decomposition,
    encode_args,
    projection,
    star_nary_direct,
    star_nary_parametric,
    tuple_expr,
)
from starext.transfer import AtomRel, eval_hyper
from tests.conftest import make_universe

ADDITION = NaryFn(2, parse_fn("p1(x) + p2(x)"), name="add")
MULTIPLICATION = NaryFn(2, parse_fn("p1(x) * p2(x)"), name="mul")


def test_encoding_and_projections_invert():
    for n in range(1, 5):
        values = [3 * i + 1 for i in range(n)]
        z = encode_args(values)
        for i in range(n):
            assert interpret(projection(i + 1, n), z) == values[i]


def test_nary_apply():
    assert ADDITION.apply(3, 4) == 7
    assert MULTIPLICATION.apply(3, 4) == 12
    f3 = NaryFn(3, parse_fn("p2(p1(x)) + p2(x)"))
    assert f3.apply(1, 2, 3) == 5


def test_arity_validation():
    with pytest.raises(ValueError):
        ADDITION.apply(1)
    with pytest.raises(ValueError):
        NaryFn(0, VAR)


def test_direct_route_pointwise(u):
    omega = u.point(VAR)
    r = star_nary_direct(u, ADDITION, [omega, u.standard(1)])
    assert u.eq(r, u.point("x + 1"))
    assert r.values(100) == [n + 1 for n in range(101)]


def test_direct_route_projection_is_argument(u):
    proj2 = NaryFn(2, projection(2, 2))
    a, b = u.point(VAR), u.point("x * x")
    assert u.eq(star_nary_direct(u, proj2, [a, b]), b)


def test_binary_diagonal_reflexive(u):
    chi2 = NaryFn(2, parse_fn("ifeq(p1(x), p2(x), 1, 0)"))
    xi = u.point("pair(x, 3)")
    assert u.eq(star_nary_direct(u, chi2, [xi, xi]), u.standard(1))


def test_parametric_unary_is_star_apply(u):
    f = NaryFn(1, parse_fn("x * 2 + 1"))
    xi = u.point("x + 4")
    assert u.eq(
        star_nary_parametric(u, f, [xi]),
        u.star_apply(f.body, xi),
    )


def realizes(u, decomposition, args) -> bool:
    """Whether star(fs[i])(zeta) equals args[i] for every i, through the
    oracle, for the decomposition (fs, zeta_seq)."""
    fs, zeta_seq = decomposition
    zeta = u.point(zeta_seq)
    return all(u.eq(u.star_apply(f, zeta), arg) for f, arg in zip(fs, args))


def test_parametric_route_matches_direct(u):
    omega, sq = u.point(VAR), u.point("x * x")
    assert realizes(u, default_decomposition([omega, sq]), [omega, sq])
    p = star_nary_parametric(u, ADDITION, [omega, sq])
    d = star_nary_direct(u, ADDITION, [omega, sq])
    assert p.values(500) == [n + n * n for n in range(501)]
    assert u.eq(p, d)


def test_alternative_decompositions_stay_in_class():
    rng = random.Random(5)
    for trial in range(12):
        u = make_universe(horizon=1000)
        arity = rng.randrange(1, 4)
        fn = rand_nary(rng, arity)
        args = [u.point(rand_point_expr(rng)) for _ in range(arity)]
        direct = star_nary_direct(u, fn, args)
        for dec in alternative_decompositions(args, 10, rng):
            assert realizes(u, dec, args)
            alt = star_nary_parametric(u, fn, args, decomposition=dec)
            assert u.eq(alt, direct)


def test_invalid_decomposition_rejected(u):
    omega, sq = u.point(VAR), u.point("x * x")
    fs, _ = default_decomposition([omega, sq])
    wrong = (fs, u.standard(3).seq)  # constant point cannot realize omega
    assert not realizes(u, wrong, [omega, sq])


def rel_holds(u, rel: str, args) -> bool:
    """The extended relation ``rel`` of the default registry at hyperpoint
    arguments: the truth of the atom ``rel(a0, a1, ...)``."""
    names = [f"a{i}" for i in range(len(args))]
    return eval_hyper(AtomRel(rel, tuple(map(Name, names))), dict(zip(names, args)), u)


def test_star_rel_equality_reflexive(u):
    xi = u.point("x * 3")
    assert rel_holds(u, "eq", [xi, xi])


def test_star_rel_less_than_standard(u):
    assert rel_holds(u, "lt", [u.standard(2), u.standard(5)])
    assert not rel_holds(u, "lt", [u.standard(5), u.standard(2)])


def test_star_rel_less_than_full_truth_set(u):
    omega = u.point(VAR)
    succ = u.point("x + 1")
    assert rel_holds(u, "lt", [omega, succ])


def test_composition_preservation_footnote(u):
    rng = random.Random(9)
    for _ in range(15):
        n, m = rng.randrange(1, 4), rng.randrange(1, 4)
        outer = rand_nary(rng, n)
        inners = [rand_nary(rng, m) for _ in range(n)]
        args = [u.point(rand_point_expr(rng)) for _ in range(m)]
        lhs = star_nary_direct(
            u, outer, [star_nary_direct(u, psi, args) for psi in inners]
        )
        from starext.funlang import Compose

        composed = NaryFn(m, Compose(outer.body, tuple_expr([p.body for p in inners])))
        assert u.eq(lhs, star_nary_direct(u, composed, args))
