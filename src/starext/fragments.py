"""Finite-fragment execution of the limit-ultrapower encoding.

Everything here runs on a *fragment*: finitely many named functions and
hyperpoints, and a finite sample 0..S-1 of the base set standing in for
the second coordinate of the index set I = points x sample.

Every check takes one route: target -> check set -> witness table ->
verdict. The *check set* of a point a (alpha) collects the fragment
points that reach it: every xi with a witness f in the registry such
that star(f)(xi) equals a, the first one in registry order. Its
*witness table* encodes a as a function on I: row xi is the witness
applied to the sample when xi reaches a, and the identity otherwise. A
table carries its check set, hence its target; :func:`image_table`
gives the table of star(g)(a) from a's. The equivalence induced by a
table (same value = related) is what the filter-of-equivalences law
speaks about; one kernel, :func:`class_violation`, finds a value that
is not constant on a table's classes, for that law and for the probe.

The membership policy for the product filter over I ("accept when the
inner-true set contains some check set, reject when its complement
does") decides exactly the sets the tracking argument needs, and returns
``UNDECIDED`` for anything else rather than guessing, together with the
first inner query the oracle could not decide.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import NotRepresentable, Undecidable
from .funlang import (
    VAR,
    Compose,
    Const,
    FnExpr,
    IfEq,
    Table,
    eval_vec,
    normalize,
    pretty,
)
from .hyper import Hyperpoint, StarSet, Universe

ACCEPT = "accept"
REJECT = "reject"
UNDECIDED = "undecided"

PREFIX_LEN = 64


@dataclass
class Fragment:
    """A finite scenario: named functions, points, and a base sample."""

    universe: Universe
    registry: list[tuple[str, FnExpr]]
    points: list[Hyperpoint]
    sample: list[int]
    _images: list[np.ndarray] | None = field(default=None, repr=False)

    def prefix_images(self) -> list[np.ndarray]:
        """Each registry function, in registry order, applied to the
        points' first PREFIX_LEN values: one (points x PREFIX_LEN) matrix
        per function, computed once per fragment."""
        if self._images is None:
            prefixes = np.array([p.values(PREFIX_LEN - 1) for p in self.points],
                                dtype=object).reshape(-1, PREFIX_LEN)
            self._images = [eval_vec(expr, prefixes) for _, expr in self.registry]
        return self._images


def build_fragment(
    u: Universe,
    registry: Sequence[tuple[str, FnExpr]],
    base_points: Sequence[Hyperpoint],
    sample: Sequence[int],
    depth: int = 0,
) -> Fragment:
    """Close the base points under the registry up to the given depth.

    Duplicates are merged: by canonical text for free, and through an
    oracle equality check when two candidates share a value prefix.
    Candidates with different prefixes are kept distinct without a query;
    a merely filter-equal pair then shows up as two fragment points,
    which is harmless for every law checked here.
    """
    frag = Fragment(u, list(registry), [], list(sample))
    seen_texts: dict[str, int] = {}
    buckets: dict[tuple[int, ...], list[int]] = {}

    def add(p: Hyperpoint) -> None:
        if p.text in seen_texts:
            return
        key = tuple(p.values(PREFIX_LEN - 1))
        for idx in buckets.get(key, ()):
            if u.eq(frag.points[idx], p):
                seen_texts[p.text] = idx
                return
        seen_texts[p.text] = len(frag.points)
        buckets.setdefault(key, []).append(len(frag.points))
        frag.points.append(p)

    for p in base_points:
        add(p)
    frontier = list(frag.points)
    for _ in range(depth):
        new_frontier: list[Hyperpoint] = []
        for p in frontier:
            for _, expr in frag.registry:
                q = u.star_apply(expr, p)
                before = len(frag.points)
                add(q)
                if len(frag.points) > before:
                    new_frontier.append(q)
        frontier = new_frontier
        if not frontier:
            break
    return frag


# ---------------------------------------------------------------------------
# Check sets and witness tables

@dataclass
class CheckSet:
    """Fragment points reaching a target, with their fixed witnesses."""

    target: Hyperpoint
    members: list[tuple[int, str, FnExpr]]  # (point index, witness name, witness)
    #: point index -> the first query about that point the oracle could
    #: not decide; such a point may reach the target all the same
    undecided: dict[int, Undecidable] = field(default_factory=dict)

    def indices(self) -> set[int]:
        return {i for i, _, _ in self.members}


def build_check_set(
    frag: Fragment,
    target: Hyperpoint,
    fallback: dict[int, tuple[str, FnExpr]] | None = None,
) -> CheckSet:
    """First-in-registry-order witness for each point that reaches the
    target.

    Candidates whose value prefix disagrees with the target are skipped
    without an oracle query; they could only be witnesses modulo the
    filter, and omitting a point from a check set is sound (absence is
    reported, never treated as knowledge). ``fallback`` maps a point
    index to one extra candidate (name, witness), tried after the
    registry scan.
    """
    u = frag.universe
    t_prefix = target.values(PREFIX_LEN - 1)
    # hits[k][i]: registry function k maps point i's prefix onto the target's
    hits = [(image == t_prefix).all(axis=1) for image in frag.prefix_images()]
    check_set = CheckSet(target, [])
    for i, xi in enumerate(frag.points):
        candidates = [entry for entry, hit in zip(frag.registry, hits) if hit[i]]
        if fallback and i in fallback:
            candidates.append(fallback[i])
        for name, expr in candidates:
            try:
                if u.eq(u.star_apply(expr, xi), target):
                    check_set.members.append((i, name, expr))
                    break
            except Undecidable as exc:
                # kept without its traceback, whose frames refer back here
                check_set.undecided.setdefault(i, exc.with_traceback(None))
    return check_set


@dataclass
class WitnessTable:
    """A point encoded as a function on the fragment index set I.

    The point is ``check_set.target``. ``codes[i, j]`` is a dense code of
    the table value at (point i, sample j); equal codes mean equal
    values. ``row_exprs[i]`` is the expression computing row i (the
    witness, or the identity for points outside the check set).
    """

    check_set: CheckSet
    codes: np.ndarray
    row_exprs: list[FnExpr]
    values: list[list[int]]


def witness_table(frag: Fragment, check_set: CheckSet) -> WitnessTable:
    """The table of ``check_set``'s target. Rows that share a witness text
    share one evaluation. The codes number the distinct values in order of
    first appearance, reading the table row by row; the table is object
    dtype, exact Python ints, when any row is."""
    witness_by_index = {i: expr for i, _, expr in check_set.members}
    sample = np.array(frag.sample)
    row_cache: dict[str, tuple[np.ndarray, list[int]]] = {}
    row_exprs: list[FnExpr] = []
    rows: list[np.ndarray] = []
    values: list[list[int]] = []
    for i in range(len(frag.points)):
        row_expr = witness_by_index.get(i, VAR)
        key = pretty(row_expr)
        if key not in row_cache:
            row = eval_vec(normalize(row_expr), sample)
            row_cache[key] = (row, row.tolist())
        row, row_vals = row_cache[key]
        row_exprs.append(row_expr)
        rows.append(row)
        values.append(row_vals)
    grid = np.stack(rows) if rows else np.empty((0, len(frag.sample)), dtype=np.int64)
    # np.unique numbers the values in sorted order; ranking each value's
    # first index renumbers them in order of appearance
    _, first, inverse = np.unique(grid.ravel(), return_index=True, return_inverse=True)
    rank = np.empty(first.size, dtype=np.int64)
    rank[np.argsort(first)] = np.arange(first.size)
    codes = rank[inverse.ravel()].reshape(grid.shape)
    return WitnessTable(check_set, codes, row_exprs, values)


def image_table(frag: Fragment, g: FnExpr, g_name: str,
                alpha_tab: WitnessTable) -> WitnessTable:
    """The table of beta = star(g)(alpha), alpha being ``alpha_tab``'s
    target. A point that reaches alpha through f, and beta through no
    registry function, is tried with the composite witness g after f,
    named ``g_name.f``."""
    alpha_cs = alpha_tab.check_set
    beta = frag.universe.star_apply(g, alpha_cs.target)
    fallback = {i: (f"{g_name}.{name}", Compose(g, expr))
                for i, name, expr in alpha_cs.members}
    return witness_table(frag, build_check_set(frag, beta, fallback))


def class_violation(
    codes: np.ndarray, values: np.ndarray
) -> tuple[tuple[int, int], tuple[int, int]] | None:
    """The first cell, reading row by row, whose value differs from the
    value at the first cell of its class (the cells of equal code), as
    (first cell of the class, that cell); None when ``values`` is
    constant on the classes of ``codes``."""
    _, first, inverse = np.unique(codes.ravel(), return_index=True, return_inverse=True)
    head = first[inverse.ravel()]
    flat = values.ravel()
    differs = np.flatnonzero(flat != flat[head])
    if not differs.size:
        return None
    cell = int(differs[0])
    n_smp = codes.shape[1]
    return divmod(int(head[cell]), n_smp), divmod(cell, n_smp)


def refinement_violation(
    finer: WitnessTable, coarser: WitnessTable
) -> tuple[tuple[int, int], tuple[int, int]] | None:
    """A pair of I-points that the finer table relates and the coarser
    one does not, or None when the finer table's equivalence is contained
    in the coarser one's."""
    return class_violation(finer.codes, coarser.codes)


def check_equivalence_filter_law(
    tables: Sequence[WitnessTable],
) -> list[tuple[int, int, tuple]]:
    """Exhaustive inclusion law over the fragment.

    ``tables[i]`` is the table of fragment point i. For every pair (a, b)
    of fragment points with a in b's check set, the table of a must
    refine the table of b on all of I. Returns the list of violations as
    (a index, b index, witness pair); empty means the law holds and the
    tables generate a filter base of equivalences.
    """
    violations = []
    for bi, b_tab in enumerate(tables):
        for ai in b_tab.check_set.indices():
            pair = None if ai == bi else refinement_violation(tables[ai], b_tab)
            if pair is not None:
                violations.append((ai, bi, pair))
    return violations


# ---------------------------------------------------------------------------
# Filters over the index set

def product_filter(
    frag: Fragment,
    rows: Sequence[FnExpr],
    check_sets: Sequence[CheckSet],
) -> tuple[str, Undecidable | None]:
    """Decide a subset of I under the iterated-filter policy.

    ``rows[i]`` is the 0/1 indicator (over the base set) of the i-th
    point's row of the subset. The inner decision per point is
    membership in that point's generated ultrafilter; the outer decision
    accepts when the inner-true set contains some check set, rejects
    when the inner-false set does, and is UNDECIDED otherwise. Returns
    the verdict and the first inner query the oracle could not decide.
    """
    u = frag.universe
    inner_true: set[int] = set()
    inner_false: set[int] = set()
    first_undecided: Undecidable | None = None
    for i, (xi, row) in enumerate(zip(frag.points, rows)):
        try:
            if u.member(xi, StarSet(normalize(row))):
                inner_true.add(i)
            else:
                inner_false.add(i)
        except Undecidable as exc:
            first_undecided = first_undecided or exc.with_traceback(None)
    for side, verdict in ((inner_true, ACCEPT), (inner_false, REJECT)):
        # an empty check set holds no evidence
        if any(cs.members and cs.indices() <= side for cs in check_sets):
            return verdict, first_undecided
    return UNDECIDED, first_undecided


def _agreement_rows(g: FnExpr, alpha_tab: WitnessTable,
                    beta_tab: WitnessTable) -> list[FnExpr]:
    """Per point, the indicator ifeq(g(alpha row), beta row, 1, 0): the
    I-set on which g carries alpha's table onto beta's."""
    return [IfEq(Compose(g, a_row), b_row, Const(1), Const(0))
            for a_row, b_row in zip(alpha_tab.row_exprs, beta_tab.row_exprs)]


def _first_undecided(*check_sets: CheckSet) -> Undecidable | None:
    """The first query the oracle left open while building the check sets."""
    return next((exc for cs in check_sets for exc in cs.undecided.values()), None)


# ---------------------------------------------------------------------------
# The tracking claim

@dataclass
class TrackingReport:
    """Outcome of checking that hat-encoding tracks one star application."""

    forward_pass: int = 0
    forward_fail: int = 0
    forward_undecided: int = 0
    product_verdict: str = UNDECIDED
    details: list[str] = field(default_factory=list)
    #: the first query of the check the oracle could not decide, building
    #: the check sets included
    undecided: Undecidable | None = None


def check_star_tracking(
    frag: Fragment, g: FnExpr, g_name: str, alpha_tab: WitnessTable
) -> TrackingReport:
    """Verify that applying a function commutes with the I-encoding.

    With alpha the target of ``alpha_tab`` and beta = star(g)(alpha),
    checks for every point xi reaching alpha that its agreement row, {x
    : g(alpha-table(xi, x)) = beta-table(xi, x)}, lies in the ultrafilter
    xi generates; then decides the full product-filter set of those
    rows. Every verdict is recorded, undecided included.
    """
    u = frag.universe
    alpha_cs = alpha_tab.check_set
    beta_tab = image_table(frag, g, g_name, alpha_tab)
    report = TrackingReport(undecided=_first_undecided(alpha_cs, beta_tab.check_set))

    rows = _agreement_rows(g, alpha_tab, beta_tab)
    reaches_beta = beta_tab.check_set.indices()
    for i, _, _ in alpha_cs.members:
        if i not in reaches_beta:
            report.forward_fail += 1
            report.details.append(f"point {i} reaches the source but not the image")
            continue
        try:
            if u.member(frag.points[i], StarSet(normalize(rows[i]))):
                report.forward_pass += 1
            else:
                report.forward_fail += 1
                report.details.append(f"inner set rejected at point {i}")
        except Undecidable as exc:
            report.forward_undecided += 1
            report.undecided = report.undecided or exc.with_traceback(None)

    report.product_verdict, undecided = product_filter(frag, rows, [alpha_cs])
    report.undecided = report.undecided or undecided
    return report


def check_tracking_negative(
    frag: Fragment, g: FnExpr, beta_prime: Hyperpoint, alpha_tab: WitnessTable
) -> tuple[str, Undecidable | None]:
    """Decide the tracking set against a wrong image.

    For beta_prime not equal to star(g)(alpha), alpha being the target of
    ``alpha_tab``, the product-filter verdict must be REJECT; ACCEPT
    would refute the converse direction of the tracking claim. Returns
    the verdict and the first query the oracle could not decide, building
    the check sets included: with one, an UNDECIDED verdict is the
    oracle's, without one it is the policy's.
    """
    bp_tab = witness_table(frag, build_check_set(frag, beta_prime))
    verdict, undecided = product_filter(
        frag, _agreement_rows(g, alpha_tab, bp_tab), [alpha_tab.check_set])
    return verdict, _first_undecided(alpha_tab.check_set, bp_tab.check_set) or undecided


# ---------------------------------------------------------------------------
# Range of the encoding

def surjectivity_probe(
    frag: Fragment, table: Sequence[Sequence[int]], alpha_tab: WitnessTable
) -> Hyperpoint:
    """Recover the point whose witness table is the given I-function.

    ``table[i][j]`` must be constant on the equivalence classes of
    ``alpha_tab``, the table of alpha, and every class must meet the
    alpha row (otherwise no sample-backed function can represent it);
    then the function g(x) = table[alpha row][x] satisfies: the table of
    star(g)(alpha) reproduces ``table`` on all of I.
    """
    alpha_cs = alpha_tab.check_set
    ai = frag.points.index(alpha_cs.target)  # points are equal by text
    n_pts, n_smp = alpha_tab.codes.shape
    if len(table) != n_pts or any(len(row) != n_smp for row in table):
        raise NotRepresentable("table shape does not match the fragment index set")

    # object dtype: exact Python ints, whatever their size
    grid = np.array(table, dtype=object).reshape(n_pts, n_smp)
    violation = class_violation(alpha_tab.codes, grid)
    if violation is not None:
        i, j = violation[1]
        raise NotRepresentable(f"table not constant on the class of ({i}, {j})")
    # sets, not np.setdiff1d, which imports numpy.ma on its first call
    missing = set(alpha_tab.codes.ravel().tolist()) - set(alpha_tab.codes[ai].tolist())
    if missing:
        raise NotRepresentable(
            f"{len(missing)} equivalence classes have no representative "
            "on the source row; the probe cannot tabulate them"
        )

    row = dict(zip(frag.sample, table[ai]))
    if all(v == row[frag.sample[0]] for v in row.values()):
        g: FnExpr = Const(row[frag.sample[0]])
    elif all(v == x for x, v in row.items()):
        g = VAR
    else:
        g = Table(VAR, tuple(sorted(row.items())), None)
    beta_tab = image_table(frag, g, "probe", alpha_tab)
    beta_cs = beta_tab.check_set
    recovered = np.array(beta_tab.values, dtype=object).reshape(n_pts, n_smp)
    undecided: Undecidable | None = None
    for i, j in np.argwhere(recovered != grid).tolist():
        unplaced = beta_cs.undecided.get(i) or alpha_cs.undecided.get(i)
        if unplaced is not None:
            # the row of a point the oracle could not place, in beta's
            # check set or in alpha's that gives its fallback witness, is
            # no evidence against the table
            undecided = undecided or unplaced
            continue
        raise NotRepresentable(
            f"recovered table differs at ({i}, {j}): "
            f"{beta_tab.values[i][j]} vs {table[i][j]}"
        )
    if undecided is not None:
        raise undecided
    return beta_cs.target
