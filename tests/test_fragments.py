import pytest

from starext.errors import NotRepresentable
from starext.fragments import (
    ACCEPT,
    REJECT,
    build_check_set,
    build_fragment,
    check_equivalence_filter_law,
    check_star_tracking,
    check_tracking_negative,
    composite_fallback,
    product_filter_member,
    refinement_violation,
    refines,
    surjectivity_probe,
    witness_table,
)
from starext.funlang import Const, VAR, parse_definitions, parse_fn
from tests.conftest import make_universe

TAGGED_DEFS = """
def untag = p2(x)
def tag1 = pair(1, x)
def tag2 = pair(2, x)
def move1 = pair(1, p2(x))
def move2 = pair(2, p2(x))
def id = x
"""


def tagged_fragment(horizon=2000, sample_stop=100):
    u = make_universe(horizon=horizon)
    registry = list(parse_definitions(TAGGED_DEFS).items())
    base = [u.point(VAR, "omega"), u.point("pair(1, x)", "t1"), u.point("pair(2, x)", "t2")]
    frag = build_fragment(u, registry, base, list(range(sample_stop)))
    return u, frag


def test_fragment_closure_and_dedup():
    u = make_universe()
    registry = [("id", VAR), ("succ", parse_fn("x + 1")), ("c3", Const(3))]
    base = [u.point(VAR, "omega")]
    frag = build_fragment(u, registry, base, list(range(50)), depth=2)
    texts = [p.text for p in frag.points]
    assert len(texts) == len(set(texts))
    assert "x" in texts and "x + 1" in texts and "3" in texts
    # closure depth 2 reaches two successors
    assert "x + 1 + 1" in texts


def test_check_set_constant_target():
    u = make_universe()
    registry = [("c5", Const(5)), ("id", VAR), ("dbl", parse_fn("x * 2"))]
    pts = [u.point(VAR, "omega"), u.standard(5), u.point("x * 2", "dbl")]
    frag = build_fragment(u, registry, pts, list(range(60)))
    cs = build_check_set(frag, u.standard(5))
    # every point reaches the constant, via the constant function
    assert cs.indices() == {0, 1, 2}
    assert all(name == "c5" for _, name, _ in cs.members)
    # so the whole witness table carries the constant's value
    tab = witness_table(frag, cs)
    assert all(v == 5 for row in tab.values for v in row)


def test_check_set_projection_witness():
    u = make_universe()
    registry = [("first", parse_fn("p1(x)")), ("id", VAR)]
    zeta = u.point("pair(x, x * x)", "zeta")
    omega = u.point(VAR, "omega")
    frag = build_fragment(u, registry, [omega, zeta], list(range(60)))
    cs = build_check_set(frag, omega)
    by_index = {i: name for i, name, _ in cs.members}
    assert by_index[frag.point_index(zeta)] == "first"


def test_reach_sets_intersect_on_directed_fragment():
    u, frag = tagged_fragment()
    sets = [build_check_set(frag, p).indices() for p in frag.points]
    for a in sets:
        for b in sets:
            assert a & b


def test_witness_table_rows():
    u, frag = tagged_fragment()
    omega = frag.points[0]
    cs = build_check_set(frag, omega)
    tab = witness_table(frag, cs)
    oi = frag.point_index(omega)
    # the row of omega itself is the identity
    assert tab.values[oi] == list(frag.sample)
    # tagged rows extract the payload
    from starext.funlang import unpair

    t1 = frag.point_index(frag.points[1])
    assert tab.values[t1] == [unpair(x)[1] for x in frag.sample]


def test_table_equivalence_relation():
    u, frag = tagged_fragment()
    cs = build_check_set(frag, frag.points[1])
    tab = witness_table(frag, cs)
    # same witness value means related
    assert tab.related((0, 3), (0, 3))
    from starext.funlang import pair

    encoded = pair(7, 3)
    if encoded < len(frag.sample):
        assert tab.related((1, encoded), (0, 3))


def test_equivalence_filter_law_holds_on_tagged_fragment():
    u, frag = tagged_fragment()
    check_sets = {i: build_check_set(frag, p) for i, p in enumerate(frag.points)}
    tables = {i: witness_table(frag, cs) for i, cs in check_sets.items()}
    assert check_equivalence_filter_law(frag, check_sets, tables) == []


def test_refinement_detects_violations():
    u, frag = tagged_fragment()
    cs0 = build_check_set(frag, frag.points[0])
    t0 = witness_table(frag, cs0)
    total = witness_table(frag, cs0)
    total.codes[:] = 0  # collapse to the total relation
    assert refines(t0, total)
    assert not refines(total, t0)
    pair = refinement_violation(total, t0)
    assert pair is not None
    (i, x), (j, y) = pair
    assert total.related((i, x), (j, y)) and not t0.related((i, x), (j, y))


def test_point_ultrafilter_membership():
    u, frag = tagged_fragment()
    evens = u.star_set("ifeq(x mod 2, 0, 1, 0)")
    assert u.member(u.standard(4), evens)
    omega = frag.points[0]
    d = u.member(omega, evens)
    odds = u.star_set("ifeq(x mod 2, 0, 0, 1)")
    assert u.member(omega, odds) == (not d)


def test_product_filter_trivial_sets():
    u, frag = tagged_fragment()
    check_sets = {i: build_check_set(frag, p) for i, p in enumerate(frag.points)}
    assert product_filter_member(frag, lambda i: Const(1), check_sets) == ACCEPT
    assert product_filter_member(frag, lambda i: Const(0), check_sets) == REJECT


def test_tracking_claim_identity():
    u, frag = tagged_fragment()
    rep = check_star_tracking(frag, frag.points[0], VAR, "id")
    assert rep.ok and rep.forward_fail == 0


def test_tracking_claim_all_registry_functions():
    u, frag = tagged_fragment()
    for name, g in frag.registry:
        for i, alpha in enumerate(frag.points):
            rep = check_star_tracking(frag, alpha, g, name)
            assert rep.ok, (name, alpha.name, rep.details, rep.product_verdict)
            assert rep.forward_undecided == 0


def test_tracking_negative_rejected():
    u, frag = tagged_fragment()
    omega = frag.points[0]
    # standard 0 is not the successor image of omega
    verdict = check_tracking_negative(
        frag, omega, parse_fn("x + 1"), "succ", u.standard(0)
    )
    assert verdict == REJECT
    # nor is a different fragment point the identity image
    verdict = check_tracking_negative(frag, omega, VAR, "id", frag.points[1])
    assert verdict == REJECT


def test_surjectivity_probe_recovers_table():
    u, frag = tagged_fragment()
    cs = build_check_set(frag, frag.points[0])
    tab = witness_table(frag, cs)
    beta = surjectivity_probe(frag, frag.points[0], tab.values, alpha_cs=cs)
    assert u.eq(beta, frag.points[0])


def test_surjectivity_probe_constant_table():
    u, frag = tagged_fragment()
    const_tab = [[4] * len(frag.sample) for _ in frag.points]
    beta = surjectivity_probe(frag, frag.points[0], const_tab)
    assert u.eq(beta, u.standard(4))


def test_surjectivity_probe_rejects_nonconstant_class():
    u, frag = tagged_fragment()
    tab = [list(frag.sample) for _ in frag.points]
    tab[1][0] = 99  # breaks constancy: (t1, 0) is related to (omega, 0)
    with pytest.raises(NotRepresentable):
        surjectivity_probe(frag, frag.points[0], tab)


def test_composite_fallback_supplies_witness():
    u, frag = tagged_fragment()
    omega = frag.points[0]
    cs = build_check_set(frag, omega)
    g = parse_fn("x * 2 + 1")
    beta = u.star_apply(g, omega)
    bcs = build_check_set(frag, beta, fallback=composite_fallback(g, "odd", cs))
    assert bcs.indices() == cs.indices()
