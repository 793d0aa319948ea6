import random
from collections import OrderedDict
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from starext.errors import ParseError, Undecidable
from starext.funlang import (
    P1,
    P2,
    VAR,
    Const,
    DivC,
    ModC,
    Mul,
    Name,
    Var,
    interpret,
    pair,
    parse_fn,
    substitute,
)
from starext.gen import rand_formula
from starext.hyper import Hyperpoint, Universe
from starext import funlang, transfer
from starext.nary import NaryFn
from starext.oracle import OracleConfig, OracleState
from starext.transfer import (
    And,
    AtomEq,
    Bounded,
    Implies,
    Not,
    Or,
    DEFAULT_REGISTRY,
    Registry,
    compile_formula,
    eval_base,
    eval_hyper,
    formula_text,
    free_variables,
    parse_formula,
    transfer_check,
    truth_predicate,
)
from tests.conftest import make_universe, truth_vector


def registry_with(**fns) -> Registry:
    return DEFAULT_REGISTRY.with_functions(
        {name: NaryFn(1, parse_fn(src), name=name) for name, src in fns.items()}
    )


# -- parsing --------------------------------------------------------------------

def test_parse_shapes():
    phi = parse_formula("x + 0 = x")
    assert isinstance(phi, AtomEq)
    psi = parse_formula("exists y < x . y + y = x")
    assert isinstance(psi, Bounded) and psi.kind == "exists"
    chi = parse_formula("!(0 = 1) & (x = x | x < 1)")
    assert isinstance(chi, And)


def test_parse_implication_right_associative():
    phi = parse_formula("x = 0 -> x = 1 -> x = 2")
    assert formula_text(phi) == "(x = 0 -> (x = 1 -> x = 2))"


def test_parse_relation_by_name():
    reg = DEFAULT_REGISTRY
    phi = parse_formula("lt(x, y)", reg)
    assert formula_text(phi) == "lt(x, y)"


def test_parse_registry_function_calls():
    reg = registry_with(sq="x * x")
    phi = parse_formula("sq(v) = v * v", reg)
    assert eval_base(phi, {"v": 9}, reg)


def test_parse_errors():
    with pytest.raises(ParseError):
        parse_formula("x +")
    with pytest.raises(ParseError):
        parse_formula("forall y . y = y")  # missing bound
    with pytest.raises(ParseError):
        parse_formula("unknown_rel(x, y) =")


def test_free_variables_tracking():
    phi = parse_formula("exists y < x . y + z = x")
    assert free_variables(phi) == {"x", "z"}


# -- base evaluation ----------------------------------------------------------------

def test_eval_base_examples():
    assert eval_base(parse_formula("x + 0 = x"), {"x": 7})
    assert eval_base(parse_formula("exists y < x . y + y = x"), {"x": 6})
    assert not eval_base(parse_formula("exists y < x . y + y = x"), {"x": 7})
    assert eval_base(parse_formula("!(0 = 1)"), {})


def test_eval_base_bounded_forall():
    assert eval_base(parse_formula("forall y < x . y < x"), {"x": 5})
    assert eval_base(parse_formula("forall y < 0 . 0 = 1"), {})  # vacuous


def test_eval_base_missing_variable():
    with pytest.raises(KeyError):
        eval_base(parse_formula("x = 0"), {})


# -- hyper evaluation ----------------------------------------------------------------

def test_standard_env_truth_sets_are_trivial(u):
    phi = parse_formula("v + 1 = 2")
    pred_true = truth_predicate(phi, {"v": u.standard(1)}, horizon=u.oracle.horizon)
    pred_false = truth_predicate(phi, {"v": u.standard(5)}, horizon=u.oracle.horizon)
    assert pred_true.constant_value() is True or pred_true.mask(100).all()
    assert pred_false.constant_value() is False or not pred_false.mask(100).any()


def test_atom_agrees_with_equalizer_membership(u):
    reg = registry_with(f="x mod 2", g="0")
    omega = u.point(VAR)
    phi = parse_formula("f(v) = g(v)", reg)
    via_formula = eval_hyper(phi, {"v": omega}, u, reg)
    eqz = u.equalizer(parse_fn("x mod 2"), Const(0))
    assert via_formula == u.member(omega, eqz)


def test_quantified_truth_set_is_evens():
    u = make_universe(horizon=512)
    omega = u.point(VAR)
    evens = u.star_set("ifeq(x mod 2, 0, 1, 0)")
    d = u.member(omega, evens)
    phi = parse_formula("exists y < x . y + y = x")
    assert eval_hyper(phi, {"x": omega}, u) == d


def test_expanded_quantifier_matches_pointwise():
    u = make_universe(horizon=512)
    omega = u.point(VAR)
    phi = parse_formula("exists y < (x mod 9) . y * y = x mod 9")
    pred = truth_predicate(phi, {"x": omega}, horizon=512)
    mask = truth_vector(pred.mask(512), 512)
    for m in range(0, 512, 11):
        expected = any(y * y == m % 9 for y in range(m % 9))
        assert bool(mask[m]) == expected


def test_transfer_examples(u):
    for src, env in [
        ("x + 0 = x", {"x": 7}),
        ("exists y < x . y + y = x", {"x": 6}),
        ("exists y < x . y + y = x", {"x": 7}),
        ("0 = 1", {}),
        ("x < x + 1 & !(x = x + 1)", {"x": 3}),
        ("forall y < x . y < x", {"x": 5}),
    ]:
        assert transfer_check(parse_formula(src), env, u)


def test_transfer_random_sentences():
    rng = random.Random(17)
    reg = registry_with(sq="x * x", half="x div 2")
    for _ in range(60):
        u = make_universe(horizon=500)
        phi = rand_formula(rng, ["v", "w"], reg, depth=2)
        env = {"v": rng.randrange(300), "w": rng.randrange(300)}
        assert transfer_check(phi, env, u, reg)


def test_los_negation_law():
    rng = random.Random(23)
    reg = DEFAULT_REGISTRY
    for _ in range(25):
        u = make_universe(horizon=500)
        phi = rand_formula(rng, ["v"], reg, depth=2, allow_quantifier=False)
        env = {"v": u.point("x + 3")}
        a = eval_hyper(phi, env, u, reg)
        assert eval_hyper(Not(phi), env, u, reg) == (not a)


def test_los_connective_laws():
    rng = random.Random(29)
    reg = DEFAULT_REGISTRY
    for _ in range(25):
        u = make_universe(horizon=500)
        phi = rand_formula(rng, ["v"], reg, depth=1, allow_quantifier=False)
        psi = rand_formula(rng, ["v"], reg, depth=1, allow_quantifier=False)
        env = {"v": u.point("x * 2")}
        a, b = eval_hyper(phi, env, u, reg), eval_hyper(psi, env, u, reg)
        assert eval_hyper(And(phi, psi), env, u, reg) == (a and b)
        assert eval_hyper(Or(phi, psi), env, u, reg) == (a or b)


LOS_H = 256
#: points bound to v; at the first two, ``v mod 67`` exceeds the unrolling
#: budget of 64 on 0..LOS_H, so a quantifier bounded by it takes the sat path
_LOS_POINTS = ["x", "x + 3", "x * 2", "ifeq(x mod 3, 0, x, 7)"]


def _los_phi(rng, reg, kind):
    if kind == "plain":
        return rand_formula(rng, ["v"], reg, depth=2, allow_quantifier=False)
    bound = ModC(Name("v"), 67) if kind == "sat" else rng.choice([ModC(Name("v"), 5),
                                                                  Const(4)])
    body = rand_formula(rng, ["v", "y"], reg, depth=1, allow_quantifier=False)
    return Bounded(rng.choice(["exists", "forall"]), "y", bound, body)


def _outcome(query, pred):
    try:
        return query(pred)
    except Undecidable as exc:
        return str(exc)


#: phi, psi and the point of a group asked without a registry
_LOS_DEFAULT = ("v mod 3 = 0 | v < 40", "v mod 4 = 1", "x + 3")


@pytest.mark.parametrize("kind", ["plain", "unrolled", "sat", "default"])
def test_los_group_reuses_compiled_parts(monkeypatch, kind):
    """The five queries of one Łoś group, compiled through the universe:
    the texts and decisions of uncached predicates, and the masks of
    !phi, phi & psi and phi | psi read the sets of phi and psi from the
    mask cache. The ``default`` group is asked without a registry, and
    reuses its parts all the same."""
    rng = random.Random(f"los-reuse:{kind}")
    reg = DEFAULT_REGISTRY
    reads: list[list[str]] = []
    real_bits = funlang._truth_bits

    def truth_bits(node, horizon, full, cache, *args):
        if node._pp is not None and node._pp in cache:
            reads[-1].append(node._pp)
        return real_bits(node, horizon, full, cache, *args)

    monkeypatch.setattr(funlang, "_truth_bits", truth_bits)
    checked = 0
    for trial in range(1 if kind == "default" else 8):
        if kind == "default":
            phi, psi, src = *map(parse_formula, _LOS_DEFAULT[:2]), _LOS_DEFAULT[2]
        else:
            phi = _los_phi(rng, reg, kind)
            psi = rand_formula(rng, ["v"], reg, depth=1, allow_quantifier=False)
            src = _LOS_POINTS[trial % (2 if kind == "sat" else len(_LOS_POINTS))]
        group = [phi, Not(phi), psi, And(phi, psi), Or(phi, psi)]
        cache: OrderedDict[str, int] = OrderedDict()
        u = Universe(OracleState(OracleConfig(horizon=LOS_H), mask_cache=cache))
        seen: list[tuple] = []  # (predicate, mask-cache texts before its query)
        real_query = u.oracle.query

        def query(pred):
            seen.append((pred, set(cache)))
            reads.append([])
            return real_query(pred)

        monkeypatch.setattr(u.oracle, "query", query)
        env = {"v": u.point(src)}
        if kind == "default":
            verdicts = [_outcome(lambda f: eval_hyper(f, env, u), f) for f in group]
        else:
            verdicts = [_outcome(lambda f: eval_hyper(f, env, u, reg), f) for f in group]
        group_reads = reads[-len(group):]
        group_formulas = len(u.formulas)
        reads.append([])  # the reads of the uncached queries below

        fresh = make_universe(horizon=LOS_H)
        plain = [truth_predicate(f, {"v": fresh.point(src)}, reg, horizon=LOS_H)
                 for f in group]
        assert [p.text for p in plain] == [pred.text for pred, _ in seen]
        assert [_outcome(fresh.oracle.query, p) for p in plain] == verdicts
        assert fresh.oracle.log.to_text() == u.oracle.log.to_text()
        if kind == "sat":
            assert plain[0].text.startswith("sat[")
        # the memo tells environments apart: phi at another point of u
        other = {"v": u.point("x + 5")}
        assert (truth_predicate(phi, other, reg, horizon=LOS_H, universe=u).text
                == truth_predicate(phi, other, reg, horizon=LOS_H).text)

        for k, parts in ((1, [0]), (3, [0, 2]), (4, [0, 2])):
            pred, cached_before = seen[k]
            if (pred.expr is None or pred.text in cached_before
                    or pred.constant_value() is not None):
                continue  # no mask built for this query
            for j in parts:
                part = seen[j][0]
                if (part.expr is not None and type(part.expr) not in (Const, Var)
                        and part.text in cached_before):
                    assert part.text in group_reads[k], (k, part.text)
                    checked += 1
    if kind == "default":
        assert sum(map(len, group_reads)) == 5
        assert group_formulas == 7
    elif kind != "sat":
        # (a sat formula's connectives take the sat path, which reads none)
        assert checked >= 20


def test_formula_text_reused_as_predicate_id():
    u = make_universe(horizon=256)
    omega = u.point(VAR)
    phi = parse_formula("exists y < x . y * y * y = x")
    before = len(u.oracle.log)
    first = eval_hyper(phi, {"x": omega}, u)
    mid = len(u.oracle.log)
    second = eval_hyper(phi, {"x": omega}, u)
    assert first == second
    assert len(u.oracle.log) == mid  # repeated evaluation reuses the entry
    assert mid == before + 1


# -- the sat path --------------------------------------------------------------

def _reference_fn(phi, env, registry):
    """Per-index truth as the ``sat`` path computed it one index at a
    time: Python loops over each quantifier's range, the body at the
    pair encoding of (index, value), expressions by :func:`interpret`."""
    direct = compile_formula(phi, env, registry)
    if direct is not None:
        return lambda m: interpret(direct, m) != 0
    match phi:
        case Not(b):
            inner = _reference_fn(b, env, registry)
            return lambda m: not inner(m)
        case And(l, r):
            fl, fr = _reference_fn(l, env, registry), _reference_fn(r, env, registry)
            return lambda m: fl(m) and fr(m)
        case Or(l, r):
            fl, fr = _reference_fn(l, env, registry), _reference_fn(r, env, registry)
            return lambda m: fl(m) or fr(m)
        case Implies(l, r):
            fl, fr = _reference_fn(l, env, registry), _reference_fn(r, env, registry)
            return lambda m: (not fl(m)) or fr(m)
        case Bounded(kind, var, bound, body):
            bound_expr = substitute(bound, env)
            inner_env = {n: substitute(e, P1(VAR)) for n, e in env.items()}
            inner_env[var] = P2(VAR)
            body_fn = _reference_fn(body, inner_env, registry)
            if kind == "exists":
                return lambda m: any(
                    body_fn(pair(m, y)) for y in range(interpret(bound_expr, m)))
            return lambda m: all(
                body_fn(pair(m, y)) for y in range(interpret(bound_expr, m)))
    raise TypeError(f"not a Formula: {phi!r}")


V, Y = Name("v"), Name("y")
#: bounds of the outer quantifier, all beyond the unrolling budget of 64 on
#: 0..H so that they reach the sat path; the first three are 0 somewhere
_OUTER_BOUNDS = [ModC(V, 67), DivC(V, 6), Mul(ModC(V, 5), Const(20)), Const(70)]
#: bounds of a nested quantifier, which is always on the sat path; the
#: first three are 0 somewhere
_INNER_BOUNDS = [ModC(Y, 4), ModC(V, 3), Const(0), Const(3)]
#: the point bound to v: values up to about H, and a standard point at
#: which every outer bound is a constant above 64
_POINTS = ["x", "x mod 400", "ifeq(x mod 3, 0, x, 7)", "534"]
SAT_H = 500


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(_OUTER_BOUNDS),
       st.sampled_from(_INNER_BOUNDS + [None]), st.sampled_from(_POINTS),
       st.sampled_from([transfer.GRID_LIMIT, 97]))
def test_sat_masks_match_per_index_reference(seed, outer, inner, point, grid_limit):
    rng = random.Random(seed)
    reg = DEFAULT_REGISTRY
    variables = ["v", "y"] if inner is None else ["v", "y", "z"]
    phi = rand_formula(rng, variables, reg, depth=2, allow_quantifier=False)
    if inner is not None:
        phi = Bounded(rng.choice(["exists", "forall"]), "z", inner, phi)
    phi = Bounded(rng.choice(["exists", "forall"]), "y", outer, phi)
    env = {"v": Hyperpoint(parse_fn(point))}
    pred = truth_predicate(phi, env, reg, horizon=SAT_H)
    assert pred.text.startswith("sat[")
    with mock.patch.object(transfer, "GRID_LIMIT", grid_limit):
        mask = truth_vector(pred.mask(SAT_H), SAT_H)
    reference = _reference_fn(phi, {"v": env["v"].seq}, reg)
    assert mask.tolist() == [reference(m) for m in range(SAT_H + 1)]


def test_quantifier_grid_encodes_large_indices_exactly():
    ms = np.array([0, 2**31, 2**40, 2**61], dtype=object)
    bounds = np.array([2, 0, 3, 1])
    seen = []

    def body(codes):
        seen.extend(codes.tolist())
        return np.ones(len(codes), dtype=bool)

    assert transfer._quantify("forall", ms, bounds, body).tolist() == [True] * 4
    assert seen == [pair(m, y) for m, b in zip(ms.tolist(), bounds.tolist())
                    for y in range(b)]
    assert transfer._quantify("exists", ms, bounds, body).tolist() == [
        True, False, True, True]


@pytest.mark.parametrize("src, point, expected", [
    # bounds near 5e18: below 2**63 each, far beyond it summed over 0..H
    ("exists y < v . y = 0", "x * 500000000000000", lambda m: m > 0),
    ("forall y < v . !(y = 1)", "x * 500000000000000", lambda m: m == 0),
    # bounds up to 1e24, past int64
    ("exists y < v * v . y = 0", "x * x * x * x * x * x", lambda m: m > 0),
    ("exists y < v . exists z < y * y . z = 1", "x * x * x * x * x * x",
     lambda m: m > 1),
    ("exists y < v * v . y = 0", "x", lambda m: m > 0),
])
def test_quantifier_stops_at_first_witness(src, point, expected):
    h = 10000
    pred = truth_predicate(parse_formula(src), {"v": Hyperpoint(parse_fn(point))},
                           horizon=h)
    assert pred.text.startswith("sat[")
    assert truth_vector(pred.mask(h), h).tolist() == [expected(m) for m in range(h + 1)]
