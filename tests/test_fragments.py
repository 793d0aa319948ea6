import numpy as np
import pytest

from starext.errors import NotRepresentable
from starext.fragments import (
    ACCEPT,
    REJECT,
    CheckSet,
    WitnessTable,
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
from starext.funlang import Const, VAR, eval_vec, parse_definitions, parse_fn, pretty
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
    assert tab.codes[0, 3] == tab.codes[0, 3]
    from starext.funlang import pair

    encoded = pair(7, 3)
    if encoded < len(frag.sample):
        assert tab.codes[1, encoded] == tab.codes[0, 3]


def loop_witness_table(frag, check_set):
    """:func:`witness_table` cell by cell: each new value gets the next code."""
    n_pts, n_smp = len(frag.points), len(frag.sample)
    codes = np.empty((n_pts, n_smp), dtype=np.int64)
    encode = {}
    row_exprs = []
    values = []
    witness_by_index = {i: expr for i, _, expr in check_set.members}
    sample = np.array(frag.sample)
    row_cache = {}
    for i in range(n_pts):
        row_expr = witness_by_index.get(i, VAR)
        key = pretty(row_expr)
        if key not in row_cache:
            row_cache[key] = eval_vec(row_expr, sample).tolist()
        row_vals = row_cache[key]
        row_exprs.append(row_expr)
        values.append(row_vals)
        for j, v in enumerate(row_vals):
            code = encode.get(v)
            if code is None:
                code = len(encode)
                encode[v] = code
            codes[i, j] = code
    return WitnessTable(check_set.target, check_set, codes, row_exprs, values)


#: witnesses whose values pass int64 on the sample, and small ones that
#: share some of their values (0 among them)
BIG = parse_fn("x * 9223372036854775808 * 4 + x mod 2")
BIG_SHIFTED = parse_fn("x * 9223372036854775808 * 4 + 1")
SMALL = parse_fn("x mod 3")


@pytest.mark.parametrize("rows", ["check-sets", "object", "mixed"])
def test_witness_table_matches_cell_loop(rows):
    u, frag = tagged_fragment(sample_stop=60)
    if rows == "check-sets":
        check_sets = [build_check_set(frag, p) for p in frag.points]
    else:
        # every row is object dtype, or object rows sit beside the int64
        # rows of a small witness and of the identity
        witnesses = {"object": {0: BIG, 1: BIG_SHIFTED, 2: BIG},
                     "mixed": {0: BIG, 2: SMALL}}[rows]
        check_sets = [CheckSet(frag.points[0], [(i, f"w{i}", w) for i, w in witnesses.items()])]
    for cs in check_sets:
        got, want = witness_table(frag, cs), loop_witness_table(frag, cs)
        assert got.codes.dtype == want.codes.dtype
        assert got.codes.shape == want.codes.shape
        assert (got.codes == want.codes).all()
        assert got.values == want.values
        assert got.row_exprs == want.row_exprs
    if rows != "check-sets":
        assert max(map(max, got.values)) >= 2**64


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
    assert total.codes[i, x] == total.codes[j, y] and t0.codes[i, x] != t0.codes[j, y]


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


def alpha_parts(frag, alpha) -> dict:
    """alpha's check set and witness table, as the tracking checks take them."""
    cs = build_check_set(frag, alpha)
    return {"alpha_cs": cs, "alpha_tab": witness_table(frag, cs)}


def test_tracking_claim_identity():
    u, frag = tagged_fragment()
    omega = frag.points[0]
    rep = check_star_tracking(frag, omega, VAR, "id", **alpha_parts(frag, omega))
    assert rep.ok and rep.forward_fail == 0


def test_tracking_claim_all_registry_functions():
    u, frag = tagged_fragment()
    for name, g in frag.registry:
        for i, alpha in enumerate(frag.points):
            rep = check_star_tracking(frag, alpha, g, name, **alpha_parts(frag, alpha))
            assert rep.ok, (name, alpha.name, rep.details, rep.product_verdict)
            assert rep.forward_undecided == 0


def test_tracking_negative_rejected():
    u, frag = tagged_fragment()
    omega = frag.points[0]
    # standard 0 is not the successor image of omega
    parts = alpha_parts(frag, omega)
    verdict = check_tracking_negative(
        frag, omega, parse_fn("x + 1"), "succ", u.standard(0), **parts
    )
    assert verdict == REJECT
    # nor is a different fragment point the identity image
    verdict = check_tracking_negative(frag, omega, VAR, "id", frag.points[1], **parts)
    assert verdict == REJECT


def test_surjectivity_probe_recovers_table():
    u, frag = tagged_fragment()
    cs = build_check_set(frag, frag.points[0])
    tab = witness_table(frag, cs)
    beta = surjectivity_probe(frag, frag.points[0], tab.values, alpha_cs=cs, alpha_tab=tab)
    assert u.eq(beta, frag.points[0])


def test_surjectivity_probe_constant_table():
    u, frag = tagged_fragment()
    const_tab = [[4] * len(frag.sample) for _ in frag.points]
    beta = surjectivity_probe(frag, frag.points[0], const_tab,
                              **alpha_parts(frag, frag.points[0]))
    assert u.eq(beta, u.standard(4))


def test_surjectivity_probe_rejects_nonconstant_class():
    u, frag = tagged_fragment()
    tab = [list(frag.sample) for _ in frag.points]
    tab[1][0] = 99  # breaks constancy: (t1, 0) is related to (omega, 0)
    parts = alpha_parts(frag, frag.points[0])
    with pytest.raises(NotRepresentable):
        surjectivity_probe(frag, frag.points[0], tab, **parts)


def test_composite_fallback_supplies_witness():
    u, frag = tagged_fragment()
    omega = frag.points[0]
    cs = build_check_set(frag, omega)
    g = parse_fn("x * 2 + 1")
    beta = u.star_apply(g, omega)
    bcs = build_check_set(frag, beta, fallback=composite_fallback(g, "odd", cs))
    assert bcs.indices() == cs.indices()
