"""Named verification suites over a scenario.

Each suite emits one line per checked instance:

    <check>\t<instance-id>\t<pass|fail|undecidable>\t<witness?>

Three methods of ``SuiteReport`` write the lines: ``add`` writes the
verdict it is given, ``law`` writes a pass line, or a fail line carrying
its witness, and an ``Undecidable`` raised inside ``instance`` becomes
that instance's ``undecidable`` line, with the oracle's reason as its
witness.

All randomness is drawn from per-suite generators seeded from the
scenario seed, so a rerun of the same scenario produces byte-identical
reports. "undecidable" is a third verdict; it never silently converts
to pass or fail.
"""

from __future__ import annotations

import random
from contextlib import contextmanager
from dataclasses import dataclass, field
from itertools import combinations
from typing import TYPE_CHECKING

import numpy as np

from .errors import ConsistencyViolation, NotRepresentable, Undecidable
from .axioms import (
    CheckOutcome,
    FAIL,
    PASS,
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
from .fragments import (
    REJECT,
    UNDECIDED,
    build_check_set,
    build_fragment,
    check_equivalence_filter_law,
    check_star_tracking,
    check_tracking_negative,
    surjectivity_probe,
    witness_table,
)
from .funlang import (
    VAR,
    Compose,
    Const,
    FnExpr,
    IfEq,
    IndexPredicate,
    eval_vec,
    normalize,
    not_,
    parse_fn,
    pretty,
)
from .gen import rand_expr, rand_formula, rand_indicator, rand_nary, rand_point_expr
from .hyper import (
    Hyperpoint,
    StarSet,
    Universe,
    set_complement,
    set_intersection,
    set_union,
)
from .nary import (
    NaryFn,
    alternative_decompositions,
    star_nary_direct,
    star_nary_parametric,
    tuple_expr,
)
from .topology import (
    BasicClosed,
    closed_member,
    covers_standard,
    star_preimage,
)
from .transfer import (
    And,
    Not,
    Or,
    eval_hyper,
    free_variables,
    transfer_check,
)

if TYPE_CHECKING:
    from .scenario import Scenario

FULL_COUNTS = {
    "comp": 1000,
    "diag": 500,
    "dir": 100,
    "irredundant": 40,
    "puritz": 24,
    "boolean_pairs": 200,
    "boolean_points": 20,
    "boolean_exhaustive": 10,
    "boolean_xs": 5,
    "equalizer": 500,
    "finite": 100,
    "nary": 500,
    "nary_alt": 10,
    "nary_comp": 200,
    "transfer": 200,
    "scenario_envs": 3,
    "los_pairs": 200,
    "los_quant": 6,
    "topo_covers": 10,
    "topo_noncovers": 10,
    "topo_continuity": 200,
}

QUICK_COUNTS = {
    "comp": 40,
    "diag": 20,
    "dir": 8,
    "irredundant": 6,
    "puritz": 6,
    "boolean_pairs": 10,
    "boolean_points": 6,
    "boolean_exhaustive": 2,
    "boolean_xs": 3,
    "equalizer": 20,
    "finite": 12,
    "nary": 16,
    "nary_alt": 4,
    "nary_comp": 8,
    "transfer": 20,
    "scenario_envs": 2,
    "los_pairs": 10,
    "los_quant": 2,
    "topo_covers": 3,
    "topo_noncovers": 3,
    "topo_continuity": 12,
}

#: the verdict of an instance that met a query the oracle could not decide
UNDECIDABLE = "undecidable"


@dataclass(frozen=True)
class ReportLine:
    check: str
    instance: str
    verdict: str
    witness: str = ""

    def render(self) -> str:
        witness = self.witness.replace("\t", " ").replace("\n", " ")
        return f"{self.check}\t{self.instance}\t{self.verdict}\t{witness}"


@dataclass
class SuiteReport:
    name: str
    lines: list[ReportLine] = field(default_factory=list)

    def add(self, check: str, index: int, verdict: str, witness: str = "") -> None:
        self.lines.append(ReportLine(check, f"{index:04d}", verdict, witness))

    def law(self, check: str, index: int, ok: bool, witness: str = "") -> None:
        """A pass line, or a fail line carrying ``witness``."""
        self.add(check, index, PASS if ok else FAIL, "" if ok else witness)

    @contextmanager
    def instance(self, check: str, index: int, prefix: str = ""):
        """One instance of ``check``: an undecidable query inside ends it
        with an ``undecidable`` line whose witness is ``prefix`` and the
        reason."""
        try:
            yield
        except Undecidable as exc:
            self.add(check, index, UNDECIDABLE, prefix + str(exc))

    def count(self, verdict: str) -> int:
        return sum(1 for line in self.lines if line.verdict == verdict)

    @property
    def passes(self) -> int:
        return self.count(PASS)

    @property
    def failures(self) -> int:
        return self.count(FAIL)

    @property
    def undecided(self) -> int:
        return self.count(UNDECIDABLE)

    def render(self) -> str:
        body = "\n".join(line.render() for line in self.lines)
        summary = (
            f"summary: checks={len(self.lines)} pass={self.passes} "
            f"fail={self.failures} undecidable={self.undecided}"
        )
        return f"[{self.name}]\n{body}\n{summary}\n" if self.lines else (
            f"[{self.name}]\n{summary}\n"
        )


class SuiteContext:
    """Everything one run shares: the scenario, the point store, counts.

    Independent instances must not starve each other's filter: hundreds
    of unrelated committed sets drive any finite-horizon intersection
    empty (each independent decision thins it). ``fresh()`` therefore
    hands each instance its own filter state; all states append to the
    one decision log, so the run stays replayable end to end.
    """

    def __init__(self, scenario: Scenario, universe: Universe):
        self.scenario = scenario
        self.universe = universe
        self.counts = FULL_COUNTS if scenario.scale == "full" else QUICK_COUNTS
        self._named_points: list[Hyperpoint] | None = None

    def fresh(self) -> Universe:
        return self.universe.with_fresh_filter()

    def rng(self, label: str) -> random.Random:
        return random.Random(f"{self.scenario.seed}:{label}")

    def named_points(self) -> list[Hyperpoint]:
        """The scenario's named points, built once per context; interning
        would return the same objects on every later build."""
        if self._named_points is None:
            u = self.universe
            self._named_points = [u.point(expr, name)
                                  for name, expr in self.scenario.points.items()]
        return list(self._named_points)

    def sample_points(self, rng: random.Random, k: int) -> list[Hyperpoint]:
        pool = self.named_points()
        u = self.universe
        out = []
        for _ in range(k):
            if pool and rng.random() < 0.4:
                out.append(rng.choice(pool))
            elif rng.random() < 0.25:
                out.append(u.standard(rng.randrange(1000)))
            else:
                out.append(u.point(rand_point_expr(rng)))
        return out

    def fn_pool(self) -> list[tuple[str, FnExpr]]:
        return list(self.scenario.defs.items())

    def extension(self, u: Universe) -> UltrapowerExtension:
        """The ultrapower over ``u`` with the scenario's functions, or
        the identity alone when the scenario defines none."""
        return UltrapowerExtension(u, self.fn_pool() or [("id", VAR)])

    def sample_fn(self, rng: random.Random) -> FnExpr:
        pool = self.fn_pool()
        if pool and rng.random() < 0.4:
            return rng.choice(pool)[1]
        return rand_expr(rng, depth=3)


# ---------------------------------------------------------------------------
# axioms

def run_axioms(ctx: SuiteContext) -> SuiteReport:
    report = SuiteReport("axioms")

    # composition: g applied to the values of f at xi must equal the
    # sequence of (g after f) at xi, pointwise
    rng = ctx.rng("axioms.comp")
    sample = np.arange(min(1000, ctx.universe.oracle.horizon) + 1)
    for i in range(ctx.counts["comp"]):
        f = ctx.sample_fn(rng)
        g = ctx.sample_fn(rng)
        xi = ctx.sample_points(rng, 1)[0]
        lhs = eval_vec(normalize(g), eval_vec(normalize(Compose(f, xi.seq)), sample))
        rhs = eval_vec(normalize(Compose(Compose(g, f), xi.seq)), sample)
        bad = next(iter(np.flatnonzero(lhs != rhs)), None)
        report.law("comp", i, bad is None, f"differs at index {bad}")

    rng = ctx.rng("axioms.diag")
    for i in range(ctx.counts["diag"]):
        f = ctx.sample_fn(rng)
        g = ctx.sample_fn(rng)
        xi = ctx.sample_points(rng, 1)[0]
        with report.instance("diag", i):
            outcome = check_diagonal(ctx.extension(ctx.fresh()), f, g, xi)
            report.add("diag", i, outcome.status, outcome.witness)

    rng = ctx.rng("axioms.dir")
    for i in range(ctx.counts["dir"]):
        xi, eta = ctx.sample_points(rng, 2)
        u = ctx.fresh()
        with report.instance("dir", i):
            outcome = check_directedness(ctx.extension(u), xi, eta)
            if outcome.status == PASS and not i % 10:
                # uniqueness: a realizer perturbed on a finite index set
                # is still equal to the canonical one
                zeta = u.point(outcome.witness)
                patched = u.point(IfEq(VAR, Const(i % 50), Const(0), zeta.seq))
                if not u.eq(patched, zeta):
                    outcome = CheckOutcome(FAIL, witness="perturbed realizer not equal")
            report.add("dir", i, outcome.status, outcome.witness)

    rng = ctx.rng("axioms.irredundant")
    for i in range(ctx.counts["irredundant"]):
        xi = ctx.sample_points(rng, 1)[0]
        with report.instance("irredundant", i):
            outcome = check_irredundant(ctx.extension(ctx.fresh()), xi)
            report.add("irredundant", i, outcome.status, outcome.witness)

    rng = ctx.rng("axioms.puritz")
    for i in range(ctx.counts["puritz"]):
        kind = i % 3
        u = ctx.fresh()
        consts = UltrapowerExtension(u, [(f"c{k}", Const(k)) for k in range(8)])
        with report.instance("puritz", i):
            if kind == 0:
                # image points are always dominated
                xi = ctx.sample_points(rng, 1)[0]
                f = ctx.sample_fn(rng)
                eta = u.star_apply(f, xi)
                ok = puritz_leq(ctx.extension(u), eta, xi) is not None or puritz_leq(
                    UltrapowerExtension(u, [("w", f)]), eta, xi
                ) is not None
                report.law("puritz", i, ok)
            elif kind == 1:
                # standard points are below everything, via constants
                xi = ctx.sample_points(rng, 1)[0]
                k = rng.randrange(8)
                report.law("puritz", i, puritz_leq(consts, u.standard(k), xi) is not None)
            else:
                # nothing nonstandard sits below a standard point
                omega = u.point(VAR)
                found = puritz_leq(consts, omega, u.standard(rng.randrange(8)))
                report.law("puritz", i, found is None,
                           "" if found is None else pretty(found))
    return report


# ---------------------------------------------------------------------------
# negative controls

#: the negative controls: the check, the toy that breaks it, the label of
#: its line in ``negative`` and the prefix of its witness
NEGATIVE_CONTROLS = (
    ("comp", broken_comp_toy, "comp-breaker", ""),
    ("diag", broken_diag_toy, "diag-breaker", ""),
    ("irredundant", redundant_toy, "redundancy", "unreached point "),
)


def _violation(check: str, toy) -> CheckOutcome | None:
    """The first violation of ``check`` on the toy, or None."""
    pts = list(toy.all_points())
    if check == "irredundant":
        outcomes = (check_irredundant(toy, p, extra_points=pts) for p in pts)
    else:
        law = check_composition if check == "comp" else check_diagonal
        fns = toy.function_handles()
        outcomes = (law(toy, f, g, p) for f in fns for g in fns for p in pts)
    return next((out for out in outcomes if out.status == FAIL), None)


def run_negative(ctx: SuiteContext) -> SuiteReport:
    """The engineered violations must be caught, and only they."""
    report = SuiteReport("negative")

    honest = honest_toy()
    clean = all(_violation(check, honest) is None for check, *_ in NEGATIVE_CONTROLS)
    report.law("honest-clean", 0, clean, "checker flagged the honest toy")

    for check, make_toy, label, prefix in NEGATIVE_CONTROLS:
        caught = _violation(check, make_toy())
        report.add(label, 0, PASS if caught else FAIL,
                   f"{prefix}{caught.witness}" if caught else "violation not caught")
        toy = make_toy()
        others_ok = all(_violation(other, toy) is None
                        for other, *_ in NEGATIVE_CONTROLS if other != check)
        report.law(f"{label}-isolated", 0, others_ok)
    return report


def _run_toy(check: str, make_toy, prefix: str):
    """The suite ``toy_<check>``: one line, failing with the violation's
    witness when ``check`` catches the toy's defect."""
    def run(ctx: SuiteContext) -> SuiteReport:
        report = SuiteReport(f"toy_{check}")
        caught = _violation(check, make_toy())
        report.law(check, 0, not caught, f"{prefix}{caught.witness}" if caught else "")
        return report

    return run


# ---------------------------------------------------------------------------
# boolean structure

def run_boolean(ctx: SuiteContext) -> SuiteReport:
    report = SuiteReport("boolean")
    rng = ctx.rng("boolean")
    for i in range(ctx.counts["boolean_pairs"]):
        a = StarSet(normalize(rand_indicator(rng)))
        b = StarSet(normalize(rand_indicator(rng)))
        union = set_union(a, b)
        inter = set_intersection(a, b)
        comp = set_complement(a)
        points = ctx.sample_points(rng, ctx.counts["boolean_points"])
        with report.instance("laws", i):
            bad = ""
            for xi in points:
                # the laws relate the queries of one (sets, point) triple
                u = ctx.fresh()
                in_a = u.member(xi, a)
                in_b = u.member(xi, b)
                if u.member(xi, union) != (in_a or in_b):
                    bad = f"union law at {xi!r}"
                elif u.member(xi, inter) != (in_a and in_b):
                    bad = f"intersection law at {xi!r}"
                elif u.member(xi, comp) != (not in_a):
                    bad = f"complement law at {xi!r}"
                if bad:
                    break
            report.law("laws", i, not bad, bad)

        # the standard part of the extension is the original set
        u = ctx.fresh()
        if i < ctx.counts["boolean_exhaustive"]:
            xs = list(range(0, min(1000, u.oracle.horizon) + 1))
        else:
            xs = [rng.randrange(1001) for _ in range(ctx.counts["boolean_xs"])]
        inside = (eval_vec(a.indicator, np.array(xs)) == 1).tolist()
        with report.instance("standard-part", i):
            witness = next(
                (x for x, t in zip(xs, inside) if u.member(u.standard(x), a) != t), None
            )
            report.law("standard-part", i, witness is None, f"x={witness}")
    return report


# ---------------------------------------------------------------------------
# equalizer

def run_equalizer(ctx: SuiteContext) -> SuiteReport:
    report = SuiteReport("equalizer")
    rng = ctx.rng("equalizer")
    for i in range(ctx.counts["equalizer"]):
        u = ctx.fresh()
        if i % 10 == 7:
            f = ctx.sample_fn(rng)
            g = f  # full equalizer
        elif i % 10 == 8:
            f = VAR
            g = normalize(parse_fn(f"x + {rng.randrange(1, 9)}"))  # empty one
        else:
            f = ctx.sample_fn(rng)
            g = ctx.sample_fn(rng)
        xi = ctx.sample_points(rng, 1)[0]
        eqz = u.equalizer(f, g)
        member_pred = u._member_predicate(xi, eqz)
        fa = u.star_apply(f, xi)
        ga = u.star_apply(g, xi)
        eq_pred = IndexPredicate.agreement(fa.seq, ga.seq)
        if member_pred.text != eq_pred.text:
            report.add("reduction-text", i, FAIL,
                       f"{member_pred.text} vs {eq_pred.text}")
            continue
        with report.instance("biconditional", i):
            lhs = u.member(xi, eqz)
            rhs = u.eq(fa, ga)
            report.law("biconditional", i, lhs == rhs, f"member={lhs} eq={rhs}")
    return report


# ---------------------------------------------------------------------------
# finite sets

def run_finite(ctx: SuiteContext) -> SuiteReport:
    report = SuiteReport("finite")
    rng = ctx.rng("finite")
    violations = 0
    for i in range(ctx.counts["finite"]):
        u = ctx.fresh()
        size = rng.randrange(1, 7)
        elems = sorted(rng.sample(range(30), size))
        kind = i % 4
        if kind == 0:
            xi = u.standard(rng.choice(elems))
        elif kind == 1:
            xi = u.standard(30 + rng.randrange(10))
        elif kind == 2:
            xi = u.point(parse_fn(f"x mod {rng.randrange(2, 8)}"))
        else:
            xi = ctx.sample_points(rng, 1)[0]
        with report.instance("resolve", i):
            try:
                result = u.decide_finite(xi, elems)
            except ConsistencyViolation as exc:
                violations += 1
                report.add("resolve", i, FAIL, f"partition law broken: {exc}")
                continue
            if result is None:
                # not a member: no level set may be accepted
                stray = next(
                    (a for a in elems if u.eq(xi, u.standard(a))), None
                )
                report.law("resolve", i, stray is None, f"level {stray} accepted outside")
            else:
                others = [a for a in elems if a != result and u.eq(xi, u.standard(a))]
                report.law("resolve", i, not others, f"extra levels {others}")
    report.add("violations", 0, PASS if violations == 0 else FAIL,
               f"count={violations}")
    return report


# ---------------------------------------------------------------------------
# n-ary extensions

def run_nary(ctx: SuiteContext) -> SuiteReport:
    report = SuiteReport("nary")
    rng = ctx.rng("nary")
    for i in range(ctx.counts["nary"]):
        u = ctx.fresh()
        arity = rng.randrange(1, 4)
        fn = rand_nary(rng, arity)
        args = ctx.sample_points(rng, arity)
        with report.instance("routes", i):
            direct = star_nary_direct(u, fn, args)
            parametric = star_nary_parametric(u, fn, args)
            if not u.eq(direct, parametric):
                report.add("routes", i, FAIL, "routes diverge")
                continue
            decompositions = alternative_decompositions(args, ctx.counts["nary_alt"], rng)
            diverging = next((
                j for j, dec in enumerate(decompositions)
                if not u.eq(star_nary_parametric(u, fn, args, decomposition=dec), direct)
            ), None)
            report.law("routes", i, diverging is None, f"decomposition {diverging} diverges")

    rng = ctx.rng("nary.comp")
    for i in range(ctx.counts["nary_comp"]):
        u = ctx.fresh()
        n = rng.randrange(1, 4)
        m = rng.randrange(1, 4)
        outer = rand_nary(rng, n)
        inners = [rand_nary(rng, m) for _ in range(n)]
        args = ctx.sample_points(rng, m)
        with report.instance("compose", i):
            lhs = star_nary_direct(
                u, outer, [star_nary_direct(u, psi, args) for psi in inners]
            )
            composed = NaryFn(
                m, Compose(outer.body, tuple_expr([psi.body for psi in inners]))
            )
            rhs = star_nary_direct(u, composed, args)
            report.law("compose", i, u.eq(lhs, rhs))
    return report


# ---------------------------------------------------------------------------
# transfer

def run_transfer(ctx: SuiteContext) -> SuiteReport:
    report = SuiteReport("transfer")
    registry = ctx.scenario.formula_registry()
    rng = ctx.rng("transfer")
    variables = ["v", "w"]
    for i in range(ctx.counts["transfer"]):
        u = ctx.fresh()
        phi = rand_formula(rng, variables, registry, depth=2)
        env = {name: rng.randrange(1000) for name in variables}
        with report.instance("standard-env", i):
            report.law("standard-env", i, transfer_check(phi, env, u, registry))

    rng = ctx.rng("transfer.scenario")
    for i, (src, phi) in enumerate(ctx.scenario.formulas):
        u = ctx.fresh()
        fv = sorted(free_variables(phi))
        with report.instance("scenario-formula", i):
            for _ in range(ctx.counts["scenario_envs"]):
                env = {name: rng.randrange(200) for name in fv}
                if not transfer_check(phi, env, u, registry):
                    report.add("scenario-formula", i, FAIL, f"{src} at {env}")
                    break
            else:
                report.add("scenario-formula", i, PASS, src)

    rng = ctx.rng("transfer.los")
    points = ctx.named_points() or [ctx.universe.point(VAR)]
    for i in range(ctx.counts["los_pairs"]):
        u = ctx.fresh()
        quantified = i < ctx.counts["los_quant"]
        phi = rand_formula(rng, ["v"], registry, depth=2,
                           allow_quantifier=quantified)
        psi = rand_formula(rng, ["v"], registry, depth=1,
                           allow_quantifier=False)
        env = {"v": rng.choice(points)}
        with report.instance("negation-law", i):
            a = eval_hyper(phi, env, u, registry)
            na = eval_hyper(Not(phi), env, u, registry)
            if na != (not a):
                report.add("negation-law", i, FAIL)
                continue
            b = eval_hyper(psi, env, u, registry)
            both = eval_hyper(And(phi, psi), env, u, registry)
            either = eval_hyper(Or(phi, psi), env, u, registry)
            ok = both == (a and b) and either == (a or b)
            report.law("negation-law", i, ok, "conjunction or disjunction law")
    return report


# ---------------------------------------------------------------------------
# the fragment construction

def _label(p: Hyperpoint) -> str:
    """A point's name, or its text when it has none."""
    return p.name or p.text


def _pair_label(frag, ai: int, bi: int) -> str:
    return f"a={_label(frag.points[ai])} b={_label(frag.points[bi])}"


def run_keisler(ctx: SuiteContext) -> SuiteReport:
    # one filter state for the whole fragment: the construction's own
    # queries are mutually referential, and they are tame (agreement
    # sets here are full or cofinite, so the committed family stays fat).
    # The scenario parser and the CLI run keisler only on a [fragment]
    # that lists functions and points
    report = SuiteReport("keisler")
    u = ctx.fresh()
    sc = ctx.scenario
    spec = sc.fragment
    registry = [(name, sc.defs[name]) for name in spec.functions]
    base = [u.point(sc.points[name], name) for name in spec.points]
    frag = None
    with report.instance("fragment", 0):
        frag = build_fragment(u, registry, base, list(range(spec.sample_stop)),
                              depth=spec.depth)
        report.add("fragment", 0, PASS,
                   f"{len(frag.points)} points, {len(registry)} functions, "
                   f"sample 0..{spec.sample_stop - 1}")
    if frag is None:
        return report

    tables = [witness_table(frag, build_check_set(frag, p)) for p in frag.points]

    # directedness on the fragment: reach sets pairwise intersect; an
    # empty meet that a point the oracle could not place might fill is
    # undecided, not empty
    empty_meets: list[tuple[int, int]] = []
    unplaced: Undecidable | None = None
    for (ai, a_tab), (bi, b_tab) in combinations(enumerate(tables), 2):
        a, b = a_tab.check_set, b_tab.check_set
        if a.indices() & b.indices():
            continue
        maybe = (a.indices() | a.undecided.keys()) & (b.indices() | b.undecided.keys())
        if maybe:
            i = min(maybe)
            unplaced = unplaced or a.undecided.get(i) or b.undecided[i]
        else:
            empty_meets.append((ai, bi))
    if unplaced is not None and not empty_meets:
        report.add("reach-intersection", 0, UNDECIDABLE, str(unplaced))
    else:
        witness = f"empty intersections: {len(empty_meets)}"
        if empty_meets:
            witness += "; first: " + _pair_label(frag, *empty_meets[0])
        report.add("reach-intersection", 0, PASS if not empty_meets else FAIL, witness)

    violations = check_equivalence_filter_law(tables)
    witness = f"{len(violations)} refinement failures"
    if violations:
        ai, bi, (cell_a, cell_b) = violations[0]
        witness += (f"; first: {_pair_label(frag, ai, bi)}, cells {cell_a} and {cell_b}"
                    " equal in a's table, not in b's")
    report.law("equivalence-filter-law", 0, not violations, witness)

    total_inner = 0
    undecided_inner = 0
    first_undecided: Undecidable | None = None
    idx = 0
    for alpha, alpha_tab in zip(frag.points, tables):
        for name, g in registry:
            rep = check_star_tracking(frag, g, name, alpha_tab)
            total_inner += rep.forward_pass + rep.forward_fail + rep.forward_undecided
            undecided_inner += rep.forward_undecided
            first_undecided = first_undecided or rep.undecided
            label = f"alpha={_label(alpha)} g={name}"
            # an open product verdict is undecidable when the oracle left
            # it open, and a failure of the policy otherwise
            open_ = rep.forward_undecided or rep.product_verdict == UNDECIDED
            if (rep.forward_fail or rep.product_verdict == REJECT
                    or (open_ and rep.undecided is None)):
                report.add("tracking", idx, FAIL, f"{label} verdict={rep.product_verdict} "
                           + "; ".join(rep.details))
            elif open_:
                report.add("tracking", idx, UNDECIDABLE, f"{label}: {rep.undecided}")
            else:
                report.add("tracking", idx, PASS)
            idx += 1

    rng = ctx.rng("keisler.negative")
    neg_idx = 0
    for alpha, alpha_tab in zip(frag.points, tables):
        j = rng.randrange(len(frag.points))
        name, g = registry[rng.randrange(len(registry))]
        beta_prime = frag.points[j]
        label = f"alpha={_label(alpha)} g={name} beta'={_label(beta_prime)}"
        with report.instance("tracking-negative", neg_idx, f"{label}: "):
            if u.eq(u.star_apply(g, alpha), beta_prime):
                continue  # accidentally correct image; skip
            verdict, undecided = check_tracking_negative(frag, g, beta_prime, alpha_tab)
            # as for tracking: an open verdict is undecidable when the
            # oracle left a query open, and a failure of the policy otherwise
            if verdict == UNDECIDED and undecided is not None:
                report.add("tracking-negative", neg_idx, UNDECIDABLE, f"{label}: {undecided}")
            else:
                report.add("tracking-negative", neg_idx,
                           PASS if verdict == REJECT else FAIL, f"{label} -> {verdict}")
        neg_idx += 1

    if not total_inner and first_undecided is not None:
        # no point was placed in a check set to ask about
        report.add("undecided-rate", 0, UNDECIDABLE, f"0/0: {first_undecided}")
    else:
        rate = (undecided_inner / total_inner) if total_inner else 0.0
        report.add("undecided-rate", 0, PASS if rate <= 0.20 else FAIL,
                   f"{undecided_inner}/{total_inner} = {rate:.1%}")

    # range of the encoding: tables respecting the equivalences are hit
    # (the expected point is made after the probe, which interns it first)
    const_tab = [[9] * len(frag.sample) for _ in frag.points]
    for check, table, expected in (
            ("probe-self", tables[0].values, lambda: frag.points[0]),
            ("probe-constant", const_tab, lambda: u.standard(9))):
        with report.instance(check, 0):
            try:
                beta = surjectivity_probe(frag, table, tables[0])
                report.law(check, 0, u.eq(beta, expected()))
            except NotRepresentable as exc:
                report.add(check, 0, FAIL, str(exc))
    # a table breaking the constancy precondition must be refused
    with report.instance("probe-rejects-invalid", 0):
        bad = [list(range(len(frag.sample))) for _ in frag.points]
        bad[0][0] = 1 if bad[0][0] == 0 else 0
        try:
            surjectivity_probe(frag, bad, tables[0])
            report.add("probe-rejects-invalid", 0, FAIL, "invalid table accepted")
        except NotRepresentable:
            report.add("probe-rejects-invalid", 0, PASS)
    return report


# ---------------------------------------------------------------------------
# topology

def run_topology(ctx: SuiteContext) -> SuiteReport:
    report = SuiteReport("topology")
    rng = ctx.rng("topology")

    for i in range(ctx.counts["topo_covers"]):
        u = ctx.fresh()
        if i % 2 == 0:
            k = 2 + (i % 5)
            closed = BasicClosed(tuple(
                (normalize(parse_fn(f"x mod {k}")), u.standard(j)) for j in range(k)
            ))
        else:
            ind = normalize(rand_indicator(rng))
            co = normalize(not_(ind))
            closed = BasicClosed(((ind, u.standard(1)), (co, u.standard(1))))
        if covers_standard(u, closed) is not None:
            report.add("cover", i, FAIL, "expected cover, got no")
            continue
        points = ctx.sample_points(rng, 6)
        with report.instance("cover", i):
            stray = next((p for p in points if not closed_member(u, p, closed)), None)
            report.law("cover", i, stray is None, f"point outside a cover: {stray!r}")

    for i in range(ctx.counts["topo_noncovers"]):
        u = ctx.fresh()
        k = 2 + (i % 5)
        dropped = i % k
        closed = BasicClosed(tuple(
            (normalize(parse_fn(f"x mod {k}")), u.standard(j))
            for j in range(k) if j != dropped
        ))
        witness = covers_standard(u, closed)
        ok = witness is not None and witness % k == dropped
        report.add("non-cover", i, PASS if ok else FAIL, f"witness={witness}")

    rng = ctx.rng("topology.continuity")
    for i in range(ctx.counts["topo_continuity"]):
        u = ctx.fresh()
        f = ctx.sample_fn(rng)
        pairs = tuple(
            (ctx.sample_fn(rng), ctx.sample_points(rng, 1)[0])
            for _ in range(rng.randrange(1, 4))
        )
        closed = BasicClosed(pairs)
        xi = ctx.sample_points(rng, 1)[0]
        with report.instance("continuity", i):
            lhs = closed_member(u, u.star_apply(f, xi), closed)
            rhs = closed_member(u, xi, star_preimage(f, closed))
            report.law("continuity", i, lhs == rhs, f"image={lhs} preimage={rhs}")

    # monotonicity: adding a pair can only grow the membership set
    rng = ctx.rng("topology.monotone")
    for i in range(min(20, ctx.counts["topo_continuity"])):
        u = ctx.fresh()
        base_pairs = tuple(
            (ctx.sample_fn(rng), ctx.sample_points(rng, 1)[0])
            for _ in range(rng.randrange(1, 3))
        )
        closed = BasicClosed(base_pairs)
        bigger = closed.with_pair(ctx.sample_fn(rng), ctx.sample_points(rng, 1)[0])
        xi = ctx.sample_points(rng, 1)[0]
        with report.instance("monotone", i):
            report.law("monotone", i, not closed_member(u, xi, closed)
                       or closed_member(u, xi, bigger))

    for i, (name, pairs) in enumerate(ctx.scenario.closed_sets.items()):
        u = ctx.fresh()
        closed = BasicClosed(tuple(
            (ctx.scenario.defs[fname], u.point(ctx.scenario.points[pname], pname))
            for fname, pname in pairs
        ))
        points = ctx.sample_points(ctx.rng(f"topology.scenario.{name}"), 4)
        with report.instance("scenario-closed", i, f"{name}: "):
            members = sum(1 for p in points if closed_member(u, p, closed))
            report.add("scenario-closed", i, PASS, f"{name}: {members}/4 members")
    return report


#: every suite, in the order a run reports them
SUITE_RUNNERS = {
    "axioms": run_axioms,
    "negative": run_negative,
    "boolean": run_boolean,
    "equalizer": run_equalizer,
    "finite": run_finite,
    "nary": run_nary,
    "transfer": run_transfer,
    "keisler": run_keisler,
    "topology": run_topology,
    **{f"toy_{check}": _run_toy(check, make_toy, prefix)
       for check, make_toy, _, prefix in NEGATIVE_CONTROLS},
}


def run_suites(ctx: SuiteContext, names: list[str]) -> list[SuiteReport]:
    return [run(ctx) for name, run in SUITE_RUNNERS.items() if name in names]
