import ast
import gc
import inspect
import random
import types
from pathlib import Path

import pytest

import starext

from starext import axioms
from starext.axioms import (
    FAIL,
    PASS,
    ToyExtension,
    UltrapowerExtension,
    broken_comp_toy,
    broken_diag_toy,
    check_composition,
    check_diagonal,
    check_directedness,
    check_irredundant,
    honest_toy,
    puritz_leq,
    redundant_toy,
)
from starext.cli import main
from starext.errors import NotSupported, Undecidable
from starext.fragments import build_check_set, build_fragment
from starext.funlang import Const, VAR, interpret, pair, parse_fn, pretty
from starext.gen import rand_expr, rand_point_expr
from starext.topology import BasicClosed, closed_member
from tests.conftest import LATE_WITNESS, undecided_universe

REGISTRY = [
    ("id", VAR),
    ("c0", Const(0)),
    ("c5", Const(5)),
    ("succ", parse_fn("x + 1")),
    ("dbl", parse_fn("x * 2")),
    ("sq", parse_fn("x * x")),
    ("parity", parse_fn("x mod 2")),
    ("first", parse_fn("p1(x)")),
]


def hyper_ext(u):
    return UltrapowerExtension(u, REGISTRY)


# -- the checkers' protocol -----------------------------------------------------

def _checker_calls() -> dict[str, set[str]]:
    """For each function of ``axioms`` that takes an ``ext``, the names it
    reads off ``ext``."""
    calls = {}
    for node in ast.parse(inspect.getsource(axioms)).body:
        if isinstance(node, ast.FunctionDef) and "ext" in (a.arg for a in node.args.args):
            calls[node.name] = {
                sub.attr for sub in ast.walk(node)
                if isinstance(sub, ast.Attribute) and isinstance(sub.value, ast.Name)
                and sub.value.id == "ext"}
    return calls


@pytest.mark.parametrize("cls", [UltrapowerExtension, ToyExtension],
                         ids=lambda cls: cls.__name__)
def test_both_extensions_define_what_the_checkers_call(cls):
    calls = _checker_calls()
    assert set(calls) == {"check_composition", "check_diagonal", "check_directedness",
                          "check_irredundant", "puritz_leq"}
    used = set().union(*calls.values())
    assert {"star", "eq", "realize_pair", "describe_point"} <= used
    assert sorted(name for name in used if name not in vars(cls)) == []


# -- checkers on the ultrapower model ------------------------------------------

def test_composition_passes_on_model(u):
    ext = hyper_ext(u)
    rng = random.Random(1)
    for _ in range(25):
        f, g = rand_expr(rng, 3), rand_expr(rng, 3)
        xi = u.point(rand_point_expr(rng))
        assert check_composition(ext, f, g, xi).status == PASS


def test_composition_identity_case(u):
    ext = hyper_ext(u)
    xi = u.point("x * x")
    assert check_composition(ext, VAR, VAR, xi).status == PASS


def test_diagonal_passes_on_model(u):
    ext = hyper_ext(u)
    rng = random.Random(2)
    for _ in range(25):
        f, g = rand_expr(rng, 2), rand_expr(rng, 2)
        xi = u.point(rand_point_expr(rng))
        assert check_diagonal(ext, f, g, xi).status == PASS


def test_diagonal_equal_functions_always_one(u):
    ext = hyper_ext(u)
    f = parse_fn("x + 2")
    xi = u.point(VAR)
    value = ext.star(ext.diagonal(f, f), xi)
    assert u.eq(value, u.standard(1))


def realize_verified_pair(ext, xi, eta):
    """``ext.realize_pair``, with both projection equations asserted."""
    zeta, pr1, pr2 = ext.realize_pair(xi, eta)
    assert ext.eq(ext.star(pr1, zeta), xi)
    assert ext.eq(ext.star(pr2, zeta), eta)
    return zeta, pr1, pr2


def test_directedness_standard_pair(u):
    ext = hyper_ext(u)
    zeta, p1h, p2h = realize_verified_pair(ext, u.standard(3), u.standard(3))
    assert u.eq(zeta, u.standard(pair(3, 3)))


def test_directedness_recovers_both_points(u):
    ext = hyper_ext(u)
    omega = u.point(VAR)
    sq = u.point("x * x")
    zeta, p1h, p2h = realize_verified_pair(ext, omega, sq)
    assert u.star_apply(p1h, zeta).values(300) == omega.values(300)
    assert u.star_apply(p2h, zeta).values(300) == sq.values(300)


def test_directedness_uniqueness_up_to_finite_change(u):
    ext = hyper_ext(u)
    omega = u.point(VAR)
    sq = u.point("x * x")
    zeta, _, _ = realize_verified_pair(ext, omega, sq)
    perturbed = u.point(parse_fn(f"ifeq(x, 4, 0, {pretty(zeta.seq)})"))
    assert u.eq(perturbed, zeta)


def test_irredundancy_identity_witness(u):
    ext = hyper_ext(u)
    xi = u.point("pair(x, x + 1)")
    out = check_irredundant(ext, xi)
    assert out.status == PASS and "identity" in out.witness


def test_irredundancy_standard_point_constant_witness(u):
    ext = UltrapowerExtension(u, [("c5", Const(5))])
    out = check_irredundant(ext, u.standard(5), extra_points=[u.point(VAR)])
    assert out.status == PASS


# -- Puritz order -----------------------------------------------------------------

def test_puritz_standard_below_everything(u):
    ext = UltrapowerExtension(u, [(f"c{k}", Const(k)) for k in range(8)])
    omega = u.point(VAR)
    found = puritz_leq(ext, u.standard(5), omega)
    assert found == Const(5)


def test_puritz_successor_witness(u):
    ext = hyper_ext(u)
    omega = u.point(VAR)
    eta = u.point("x + 1")
    found = puritz_leq(ext, eta, omega)
    assert found is not None
    assert pretty(found) == "x + 1"


def test_puritz_nothing_nonstandard_below_standard(u):
    ext = UltrapowerExtension(u, [(f"c{k}", Const(k)) for k in range(6)])
    omega = u.point(VAR)
    assert puritz_leq(ext, omega, u.standard(0)) is None


def test_puritz_directedness_via_pairing(u):
    ext = hyper_ext(u)
    rng = random.Random(3)
    for _ in range(20):
        xi = u.point(rand_point_expr(rng))
        eta = u.point(rand_point_expr(rng))
        assert check_directedness(ext, xi, eta).status == PASS


# -- toy extensions ------------------------------------------------------------------

def all_pairs_points(toy):
    for f in toy.function_handles():
        for g in toy.function_handles():
            for p in toy.all_points():
                yield f, g, p


def test_honest_toy_passes_everything():
    toy = honest_toy()
    for f, g, p in all_pairs_points(toy):
        assert check_composition(toy, f, g, p).status == PASS
        assert check_diagonal(toy, f, g, p).status == PASS
    pts = list(toy.all_points())
    for p in pts:
        assert check_irredundant(toy, p, extra_points=pts).status == PASS


def test_broken_comp_caught_with_witness():
    toy = broken_comp_toy()
    fails = [
        check_composition(toy, f, g, p)
        for f, g, p in all_pairs_points(toy)
        if check_composition(toy, f, g, p).status == FAIL
    ]
    assert fails
    assert "succ" in fails[0].witness and "dbl" in fails[0].witness
    # the other two laws are untouched
    for f, g, p in all_pairs_points(toy):
        assert check_diagonal(toy, f, g, p).status == PASS
    pts = list(toy.all_points())
    assert all(check_irredundant(toy, p, extra_points=pts).status == PASS for p in pts)


def test_broken_diag_caught_with_witness():
    toy = broken_diag_toy()
    fails = [
        out for f, g, p in all_pairs_points(toy)
        if (out := check_diagonal(toy, f, g, p)).status == FAIL
    ]
    assert fails
    for f, g, p in all_pairs_points(toy):
        assert check_composition(toy, f, g, p).status == PASS


def test_redundant_toy_exhausts_search():
    toy = redundant_toy()
    pts = list(toy.all_points())
    rho = toy.carrier_size - 1
    out = check_irredundant(toy, rho, extra_points=pts)
    assert out.status == FAIL
    assert out.witness == str(rho)
    # everything else is reachable and the other laws hold
    for p in pts[:-1]:
        assert check_irredundant(toy, p, extra_points=pts).status == PASS
    for f, g, p in all_pairs_points(toy):
        assert check_composition(toy, f, g, p).status == PASS
        assert check_diagonal(toy, f, g, p).status == PASS


def test_toys_do_not_support_pairing():
    toy = honest_toy()
    with pytest.raises(NotSupported):
        toy.realize_pair(0, 1)
    assert check_directedness(toy, 0, 1).status == FAIL


def test_toy_table_validation():
    with pytest.raises(ValueError):
        ToyExtension("bad", 3, 3, {"f": ((0, 1), (0, 1, 2))})
    with pytest.raises(ValueError):
        ToyExtension("bad", 2, 3, {"f": ((0, 1), (1, 1, 0))})  # star must extend base


def test_standard_sample_is_fixed_by_star(u):
    ext = hyper_ext(u)
    for name, expr in REGISTRY:
        for x in range(8):
            image = ext.star(expr, u.standard(x))
            assert u.eq(image, u.standard(interpret(expr, x)))


# -- a kept Undecidable leaves no reference cycle -----------------------------------

# each scan keeps an Undecidable, then raises it (build_check_set records
# it in the check set), or decides after all

def _closed_member(decides):
    u = undecided_universe(1 if decides else float("inf"))
    closed = BasicClosed(((VAR, u.standard(1)), (parse_fn("x + 1"), u.standard(2))))
    if decides:
        assert closed_member(u, u.point("x * x"), closed)
    else:
        with pytest.raises(Undecidable):
            closed_member(u, u.point("x * x"), closed)


def _puritz_leq(decides):
    u = undecided_universe(1 if decides else float("inf"))
    if decides:
        assert puritz_leq(hyper_ext(u), u.standard(5), u.point(VAR)) is not None
    else:
        with pytest.raises(Undecidable):
            puritz_leq(hyper_ext(u), u.standard(5), u.point(VAR))


def _check_irredundant(decides):
    # the identity check is the search's first pair, the next one is
    # undecided too
    u = undecided_universe(2 if decides else float("inf"))
    if decides:
        assert check_irredundant(hyper_ext(u), u.point("x * x")).status == PASS
    else:
        with pytest.raises(Undecidable):
            check_irredundant(hyper_ext(u), u.point("x * x"))


def _build_check_set(decides):
    # the first point's first candidate is undecided; the second decides
    # it, or is undecided too
    u = undecided_universe(1 if decides else float("inf"))
    frag = build_fragment(u, LATE_WITNESS, [u.point(VAR)], range(4))
    check_set = build_check_set(frag, u.standard(5))
    assert bool(check_set.members) == decides
    assert bool(check_set.undecided) != decides


_SOURCES = str(Path(starext.__file__).resolve().parent)


def _starext_cycles(run):
    """The starext objects, and the frames of starext code, that ``run``
    leaves for the cycle collector. Objects of other modules, argparse's
    and inspect's among them, are not counted."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        run()
        gc.set_debug(gc.DEBUG_SAVEALL)
        gc.collect()
        return [o for o in gc.garbage
                if type(o).__module__.startswith("starext")
                or isinstance(o, types.FrameType)
                and str(Path(o.f_code.co_filename).resolve()).startswith(_SOURCES)]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        if enabled:
            gc.enable()


@pytest.mark.parametrize("scan", [_closed_member, _puritz_leq, _check_irredundant,
                                  _build_check_set],
                         ids=lambda scan: scan.__name__.strip("_"))
@pytest.mark.parametrize("decides", [False, True], ids=["undecided", "decides"])
def test_kept_undecidable_leaves_no_reference_cycles(scan, decides):
    """What a scan that keeps an Undecidable builds is freed by reference
    counting alone."""
    assert _starext_cycles(lambda: scan(decides)) == []


def test_a_run_with_undecidable_checks_leaves_no_reference_cycles(tmp_path):
    # this seed's topology and axioms checks meet undecidable queries
    argv = ["standard", "--horizon", "256", "--seed", "2", "--suite", "topology",
            "--suite", "axioms", "--out", str(tmp_path)]
    assert _starext_cycles(lambda: main(argv)) == []
