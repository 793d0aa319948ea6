"""Named verification suites over a scenario.

Each suite emits one line per checked instance:

    <check>\t<instance-id>\t<pass|fail|undecidable>\t<witness?>

All randomness is drawn from per-suite generators seeded from the
scenario seed, so a rerun of the same scenario produces byte-identical
reports. "undecidable" is a third verdict; it never silently converts
to pass or fail.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .errors import ConsistencyViolation, NotRepresentable, Undecidable
from .axioms import (
    CheckOutcome,
    EXHAUSTED,
    FAIL,
    PASS,
    UNDECIDABLE,
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
    ACCEPT,
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
    compile_fn,
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
    CoverVerdict,
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

    def add_outcome(self, check: str, index: int, outcome: CheckOutcome,
                    expect: str = PASS) -> None:
        verdict = PASS if outcome.status == expect else (
            UNDECIDABLE if outcome.status == UNDECIDABLE else FAIL
        )
        self.lines.append(
            ReportLine(check, f"{index:04d}", verdict, outcome.witness)
        )

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

    def __init__(self, scenario: Scenario, universe: Universe,
                 counts: dict[str, int] | None = None):
        self.scenario = scenario
        self.universe = universe
        self.counts = counts or (
            FULL_COUNTS if scenario.scale == "full" else QUICK_COUNTS
        )

    def fresh(self) -> Universe:
        return self.universe.with_fresh_filter()

    def rng(self, label: str) -> random.Random:
        return random.Random(f"{self.scenario.seed}:{label}")

    def named_points(self) -> list[Hyperpoint]:
        u = self.universe
        return [u.point(expr, name) for name, expr in self.scenario.points.items()]

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

    def sample_fn(self, rng: random.Random) -> FnExpr:
        pool = self.fn_pool()
        if pool and rng.random() < 0.4:
            return rng.choice(pool)[1]
        return rand_expr(rng, depth=3)


# ---------------------------------------------------------------------------
# axioms

def run_axioms(ctx: SuiteContext) -> SuiteReport:
    report = SuiteReport("axioms")

    # composition: the two routes must be pointwise identical sequences
    rng = ctx.rng("axioms.comp")
    sample = np.arange(min(1000, ctx.universe.oracle.horizon) + 1)
    for i in range(ctx.counts["comp"]):
        f = ctx.sample_fn(rng)
        g = ctx.sample_fn(rng)
        xi = ctx.sample_points(rng, 1)[0]
        lhs = eval_vec(Compose(g, Compose(f, xi.seq)), sample)
        rhs = eval_vec(Compose(Compose(g, f), xi.seq), sample)
        bad = np.flatnonzero(lhs != rhs)
        if bad.size == 0:
            report.add("comp", i, PASS)
        else:
            report.add("comp", i, FAIL, f"differs at index {bad[0]}")

    rng = ctx.rng("axioms.diag")
    for i in range(ctx.counts["diag"]):
        f = ctx.sample_fn(rng)
        g = ctx.sample_fn(rng)
        xi = ctx.sample_points(rng, 1)[0]
        ext = UltrapowerExtension(ctx.fresh(), ctx.fn_pool() or [("id", VAR)])
        report.add_outcome("diag", i, check_diagonal(ext, f, g, xi))

    rng = ctx.rng("axioms.dir")
    for i in range(ctx.counts["dir"]):
        xi, eta = ctx.sample_points(rng, 2)
        u = ctx.fresh()
        ext = UltrapowerExtension(u, ctx.fn_pool() or [("id", VAR)])
        outcome = check_directedness(ext, xi, eta)
        if outcome.status == PASS and i % 10 == 0:
            # uniqueness: a realizer perturbed on a finite index set is
            # still equal to the canonical one
            zeta = u.point(outcome.witness)
            patched = u.point(IfEq(VAR, Const(i % 50), Const(0), zeta.seq))
            try:
                if not u.eq(patched, zeta):
                    outcome = CheckOutcome(FAIL, witness="perturbed realizer not equal")
            except Undecidable:
                outcome = CheckOutcome(UNDECIDABLE)
        report.add_outcome("dir", i, outcome)

    rng = ctx.rng("axioms.irredundant")
    for i in range(ctx.counts["irredundant"]):
        xi = ctx.sample_points(rng, 1)[0]
        ext = UltrapowerExtension(ctx.fresh(), ctx.fn_pool() or [("id", VAR)])
        report.add_outcome("irredundant", i, check_irredundant(ext, xi))

    rng = ctx.rng("axioms.puritz")
    for i in range(ctx.counts["puritz"]):
        kind = i % 3
        u = ctx.fresh()
        ext = UltrapowerExtension(u, ctx.fn_pool() or [("id", VAR)])
        consts = UltrapowerExtension(u, [(f"c{k}", Const(k)) for k in range(8)])
        try:
            if kind == 0:
                # image points are always dominated
                xi = ctx.sample_points(rng, 1)[0]
                f = ctx.sample_fn(rng)
                eta = u.star_apply(f, xi)
                found = puritz_leq(ext, eta, xi)
                ok = found is not None or puritz_leq(
                    UltrapowerExtension(u, [("w", f)]), eta, xi
                ) is not None
                report.add("puritz", i, PASS if ok else FAIL)
            elif kind == 1:
                # standard points are below everything, via constants
                xi = ctx.sample_points(rng, 1)[0]
                k = rng.randrange(8)
                found = puritz_leq(consts, u.standard(k), xi)
                report.add("puritz", i, PASS if found is not None else FAIL)
            else:
                # nothing nonstandard sits below a standard point
                omega = u.point(VAR)
                found = puritz_leq(consts, omega, u.standard(rng.randrange(8)))
                report.add("puritz", i, PASS if found is None else FAIL,
                           "" if found is None else pretty(found))
        except Undecidable as exc:
            report.add("puritz", i, UNDECIDABLE, str(exc))
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
    if check == "irredundant":
        pts = list(toy.all_points())
        outcomes = (check_irredundant(toy, p, extra_points=pts) for p in pts)
        return next((out for out in outcomes if out.status == EXHAUSTED), None)
    law = check_composition if check == "comp" else check_diagonal
    outcomes = (
        law(toy, f, g, p)
        for f in toy.function_handles()
        for g in toy.function_handles()
        for p in toy.all_points()
    )
    return next((out for out in outcomes if out.status == FAIL), None)


def run_negative(ctx: SuiteContext) -> SuiteReport:
    """The engineered violations must be caught, and only they."""
    report = SuiteReport("negative")

    honest = honest_toy()
    clean = all(_violation(check, honest) is None for check, *_ in NEGATIVE_CONTROLS)
    report.add("honest-clean", 0, PASS if clean else FAIL,
               "" if clean else "checker flagged the honest toy")

    for check, make_toy, label, prefix in NEGATIVE_CONTROLS:
        caught = _violation(check, make_toy())
        report.add(label, 0, PASS if caught else FAIL,
                   f"{prefix}{caught.witness}" if caught else "violation not caught")
        toy = make_toy()
        others_ok = all(_violation(other, toy) is None
                        for other, *_ in NEGATIVE_CONTROLS if other != check)
        report.add(f"{label}-isolated", 0, PASS if others_ok else FAIL)
    return report


def _run_toy(check: str, make_toy, prefix: str):
    """The suite ``toy_<check>``: one line, failing with the violation's
    witness when ``check`` catches the toy's defect."""
    def run(ctx: SuiteContext) -> SuiteReport:
        report = SuiteReport(f"toy_{check}")
        caught = _violation(check, make_toy())
        if caught:
            report.add(check, 0, FAIL, f"{prefix}{caught.witness}")
        else:
            report.add(check, 0, PASS)
        return report

    return run


# ---------------------------------------------------------------------------
# boolean structure

def run_boolean(ctx: SuiteContext) -> SuiteReport:
    report = SuiteReport("boolean")
    rng = ctx.rng("boolean")
    for i in range(ctx.counts["boolean_pairs"]):
        a = StarSet(normalize(rand_indicator(rng)), tag=f"A{i}")
        b = StarSet(normalize(rand_indicator(rng)), tag=f"B{i}")
        union = set_union(a, b)
        inter = set_intersection(a, b)
        comp = set_complement(a)
        points = ctx.sample_points(rng, ctx.counts["boolean_points"])
        bad = ""
        verdict = PASS
        try:
            for xi in points:
                # the laws relate the queries of one (sets, point) triple
                u = ctx.fresh()
                in_a = u.member(xi, a)
                in_b = u.member(xi, b)
                if u.member(xi, union) != (in_a or in_b):
                    verdict, bad = FAIL, f"union law at {xi!r}"
                    break
                if u.member(xi, inter) != (in_a and in_b):
                    verdict, bad = FAIL, f"intersection law at {xi!r}"
                    break
                if u.member(xi, comp) != (not in_a):
                    verdict, bad = FAIL, f"complement law at {xi!r}"
                    break
        except Undecidable as exc:
            verdict, bad = UNDECIDABLE, str(exc)
        report.add("laws", i, verdict, bad)

        # the standard part of the extension is the original set
        u = ctx.fresh()
        ind = compile_fn(a.indicator)
        if i < ctx.counts["boolean_exhaustive"]:
            xs = range(0, min(1000, u.oracle.horizon) + 1)
        else:
            xs = [rng.randrange(1001) for _ in range(ctx.counts["boolean_xs"])]
        try:
            witness = next(
                (x for x in xs if u.member(u.standard(x), a) != (ind(x) == 1)), None
            )
        except Undecidable as exc:
            report.add("standard-part", i, UNDECIDABLE, str(exc))
            continue
        report.add("standard-part", i, PASS if witness is None else FAIL,
                   "" if witness is None else f"x={witness}")
    return report


# ---------------------------------------------------------------------------
# equalizer

def run_equalizer(ctx: SuiteContext) -> SuiteReport:
    report = SuiteReport("equalizer")
    rng = ctx.rng("equalizer")
    n = ctx.counts["equalizer"]
    for i in range(n):
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
        try:
            lhs = u.member(xi, eqz)
            rhs = u.eq(fa, ga)
        except Undecidable as exc:
            report.add("biconditional", i, UNDECIDABLE, str(exc))
            continue
        report.add("biconditional", i, PASS if lhs == rhs else FAIL,
                   "" if lhs == rhs else f"member={lhs} eq={rhs}")
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
        try:
            result = u.decide_finite(xi, elems)
        except ConsistencyViolation as exc:
            violations += 1
            report.add("resolve", i, FAIL, f"partition law broken: {exc}")
            continue
        except Undecidable as exc:
            report.add("resolve", i, UNDECIDABLE, str(exc))
            continue
        try:
            if result is None:
                # not a member: no level set may be accepted
                stray = next(
                    (a for a in elems if u.eq(xi, u.standard(a))), None
                )
                report.add("resolve", i, PASS if stray is None else FAIL,
                           "" if stray is None else f"level {stray} accepted outside")
            else:
                others = [a for a in elems if a != result and u.eq(xi, u.standard(a))]
                report.add("resolve", i, PASS if not others else FAIL,
                           "" if not others else f"extra levels {others}")
        except Undecidable as exc:
            report.add("resolve", i, UNDECIDABLE, str(exc))
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
        try:
            direct = star_nary_direct(u, fn, args)
            parametric = star_nary_parametric(u, fn, args)
            if not u.eq(direct, parametric):
                report.add("routes", i, FAIL, "routes diverge")
                continue
            ok = True
            for j, dec in enumerate(
                alternative_decompositions(args, ctx.counts["nary_alt"], rng)
            ):
                alt = star_nary_parametric(u, fn, args, decomposition=dec)
                if not u.eq(alt, direct):
                    report.add("routes", i, FAIL, f"decomposition {j} diverges")
                    ok = False
                    break
            if ok:
                report.add("routes", i, PASS)
        except Undecidable as exc:
            report.add("routes", i, UNDECIDABLE, str(exc))

    rng = ctx.rng("nary.comp")
    for i in range(ctx.counts["nary_comp"]):
        u = ctx.fresh()
        n = rng.randrange(1, 4)
        m = rng.randrange(1, 4)
        outer = rand_nary(rng, n)
        inners = [rand_nary(rng, m) for _ in range(n)]
        args = ctx.sample_points(rng, m)
        try:
            lhs = star_nary_direct(
                u, outer, [star_nary_direct(u, psi, args) for psi in inners]
            )
            composed = NaryFn(
                m, Compose(outer.body, tuple_expr([psi.body for psi in inners]))
            )
            rhs = star_nary_direct(u, composed, args)
            report.add("compose", i, PASS if u.eq(lhs, rhs) else FAIL)
        except Undecidable as exc:
            report.add("compose", i, UNDECIDABLE, str(exc))
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
        try:
            ok = transfer_check(phi, env, u, registry)
            report.add("standard-env", i, PASS if ok else FAIL)
        except Undecidable as exc:
            report.add("standard-env", i, UNDECIDABLE, str(exc))

    rng = ctx.rng("transfer.scenario")
    for i, (src, phi) in enumerate(ctx.scenario.formulas):
        u = ctx.fresh()
        fv = sorted(free_variables(phi))
        verdict = PASS
        witness = src
        try:
            for _ in range(ctx.counts["scenario_envs"]):
                env = {name: rng.randrange(200) for name in fv}
                if not transfer_check(phi, env, u, registry):
                    verdict = FAIL
                    witness = f"{src} at {env}"
                    break
        except Undecidable as exc:
            verdict = UNDECIDABLE
            witness = str(exc)
        report.add("scenario-formula", i, verdict, witness)

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
        try:
            a = eval_hyper(phi, env, u, registry)
            na = eval_hyper(Not(phi), env, u, registry)
            if na != (not a):
                report.add("negation-law", i, FAIL)
                continue
            b = eval_hyper(psi, env, u, registry)
            both = eval_hyper(And(phi, psi), env, u, registry)
            either = eval_hyper(Or(phi, psi), env, u, registry)
            ok = both == (a and b) and either == (a or b)
            report.add("negation-law", i, PASS if ok else FAIL,
                       "" if ok else "conjunction or disjunction law")
        except Undecidable as exc:
            report.add("negation-law", i, UNDECIDABLE, str(exc))
    return report


# ---------------------------------------------------------------------------
# the fragment construction

def run_keisler(ctx: SuiteContext) -> SuiteReport:
    # one filter state for the whole fragment: the construction's own
    # queries are mutually referential, and they are tame (agreement
    # sets here are full or cofinite, so the committed family stays fat)
    report = SuiteReport("keisler")
    u = ctx.fresh()
    sc = ctx.scenario
    spec = sc.fragment
    if not spec.functions or not spec.points:
        report.add("fragment", 0, FAIL, "scenario has no fragment section")
        return report
    registry = [(name, sc.defs[name]) for name in spec.functions]
    base = [u.point(sc.points[name], name) for name in spec.points]
    try:
        frag = build_fragment(u, registry, base, list(range(spec.sample_stop)),
                              depth=spec.depth)
    except Undecidable as exc:
        report.add("fragment", 0, UNDECIDABLE, str(exc))
        return report
    report.add("fragment", 0, PASS,
               f"{len(frag.points)} points, {len(registry)} functions, "
               f"sample 0..{spec.sample_stop - 1}")

    check_sets = {i: build_check_set(frag, p) for i, p in enumerate(frag.points)}
    tables = {i: witness_table(frag, cs) for i, cs in check_sets.items()}

    # directedness on the fragment: reach sets pairwise intersect
    empty_meets = 0
    for i in check_sets:
        for j in check_sets:
            if i < j and not (check_sets[i].indices() & check_sets[j].indices()):
                empty_meets += 1
    report.add("reach-intersection", 0, PASS if empty_meets == 0 else FAIL,
               f"empty intersections: {empty_meets}")

    violations = check_equivalence_filter_law(frag, check_sets, tables)
    report.add("equivalence-filter-law", 0,
               PASS if not violations else FAIL,
               "" if not violations else f"{len(violations)} refinement failures")

    total_inner = 0
    undecided_inner = 0
    idx = 0
    for i, alpha in enumerate(frag.points):
        for name, g in registry:
            rep = check_star_tracking(frag, alpha, g, name, alpha_cs=check_sets[i])
            total_inner += rep.forward_pass + rep.forward_fail + rep.forward_undecided
            undecided_inner += rep.forward_undecided
            if rep.forward_fail or rep.product_verdict != ACCEPT:
                report.add("tracking", idx, FAIL,
                           f"alpha={alpha.name or alpha.text} g={name} "
                           f"verdict={rep.product_verdict} " + "; ".join(rep.details))
            elif rep.forward_undecided:
                report.add("tracking", idx, UNDECIDABLE,
                           f"alpha={alpha.name or alpha.text} g={name}")
            else:
                report.add("tracking", idx, PASS)
            idx += 1

    rng = ctx.rng("keisler.negative")
    neg_idx = 0
    for i, alpha in enumerate(frag.points):
        j = rng.randrange(len(frag.points))
        name, g = registry[rng.randrange(len(registry))]
        beta_prime = frag.points[j]
        try:
            if u.eq(u.star_apply(g, alpha), beta_prime):
                continue  # accidentally correct image; skip
        except Undecidable as exc:
            report.add("tracking-negative", neg_idx, UNDECIDABLE,
                       f"alpha={alpha.name} g={name} beta'={beta_prime.name}: {exc}")
            neg_idx += 1
            continue
        verdict = check_tracking_negative(frag, alpha, g, name, beta_prime,
                                          alpha_cs=check_sets[i])
        report.add("tracking-negative", neg_idx,
                   PASS if verdict != ACCEPT else FAIL,
                   f"alpha={alpha.name} g={name} beta'={beta_prime.name} -> {verdict}")
        neg_idx += 1

    rate = (undecided_inner / total_inner) if total_inner else 0.0
    report.add("undecided-rate", 0, PASS if rate <= 0.20 else FAIL,
               f"{undecided_inner}/{total_inner} = {rate:.1%}")

    # range of the encoding: tables respecting the equivalences are hit
    try:
        alpha = frag.points[0]
        tab = tables[0]
        beta = surjectivity_probe(frag, alpha, tab.values, alpha_cs=check_sets[0])
        report.add("probe-self", 0, PASS if u.eq(beta, alpha) else FAIL)
    except NotRepresentable as exc:
        report.add("probe-self", 0, FAIL, str(exc))
    except Undecidable as exc:
        report.add("probe-self", 0, UNDECIDABLE, str(exc))
    try:
        const_tab = [[9] * len(frag.sample) for _ in frag.points]
        beta = surjectivity_probe(frag, frag.points[0], const_tab,
                                  alpha_cs=check_sets[0])
        report.add("probe-constant", 0,
                   PASS if u.eq(beta, u.standard(9)) else FAIL)
    except NotRepresentable as exc:
        report.add("probe-constant", 0, FAIL, str(exc))
    except Undecidable as exc:
        report.add("probe-constant", 0, UNDECIDABLE, str(exc))
    # a table breaking the constancy precondition must be refused
    try:
        bad = [list(range(len(frag.sample))) for _ in frag.points]
        bad[0][0] = 1 if bad[0][0] == 0 else 0
        surjectivity_probe(frag, frag.points[0], bad, alpha_cs=check_sets[0])
        report.add("probe-rejects-invalid", 0, FAIL, "invalid table accepted")
    except NotRepresentable:
        report.add("probe-rejects-invalid", 0, PASS)
    except Undecidable as exc:
        report.add("probe-rejects-invalid", 0, UNDECIDABLE, str(exc))
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
        result = covers_standard(u, closed)
        if result.verdict != CoverVerdict.YES:
            report.add("cover", i, FAIL, f"expected cover, got {result.verdict.value}")
            continue
        points = ctx.sample_points(rng, 6)
        try:
            stray = next((p for p in points if not closed_member(u, p, closed)), None)
        except Undecidable as exc:
            report.add("cover", i, UNDECIDABLE, str(exc))
            continue
        report.add("cover", i, PASS if stray is None else FAIL,
                   "" if stray is None else f"point outside a cover: {stray!r}")

    for i in range(ctx.counts["topo_noncovers"]):
        u = ctx.fresh()
        k = 2 + (i % 5)
        dropped = i % k
        closed = BasicClosed(tuple(
            (normalize(parse_fn(f"x mod {k}")), u.standard(j))
            for j in range(k) if j != dropped
        ))
        result = covers_standard(u, closed)
        ok = result.verdict == CoverVerdict.NO and result.witness is not None \
            and result.witness % k == dropped
        report.add("non-cover", i, PASS if ok else FAIL,
                   f"witness={result.witness}")

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
        try:
            lhs = closed_member(u, u.star_apply(f, xi), closed)
            rhs = closed_member(u, xi, star_preimage(f, closed))
        except Undecidable as exc:
            report.add("continuity", i, UNDECIDABLE, str(exc))
            continue
        report.add("continuity", i, PASS if lhs == rhs else FAIL,
                   "" if lhs == rhs else f"image={lhs} preimage={rhs}")

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
        try:
            if closed_member(u, xi, closed) and not closed_member(u, xi, bigger):
                report.add("monotone", i, FAIL)
            else:
                report.add("monotone", i, PASS)
        except Undecidable as exc:
            report.add("monotone", i, UNDECIDABLE, str(exc))

    for i, (name, pairs) in enumerate(ctx.scenario.closed_sets.items()):
        u = ctx.fresh()
        closed = BasicClosed(tuple(
            (ctx.scenario.defs[fname], u.point(ctx.scenario.points[pname], pname))
            for fname, pname in pairs
        ))
        points = ctx.sample_points(ctx.rng(f"topology.scenario.{name}"), 4)
        try:
            members = sum(1 for p in points if closed_member(u, p, closed))
            report.add("scenario-closed", i, PASS, f"{name}: {members}/4 members")
        except Undecidable as exc:
            report.add("scenario-closed", i, UNDECIDABLE, f"{name}: {exc}")
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
