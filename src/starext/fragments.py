"""Finite-fragment execution of the limit-ultrapower encoding.

Everything here runs on a *fragment*: finitely many named functions and
hyperpoints, and a finite sample 0..S-1 of the base set standing in for
the second coordinate of the index set I = points x sample.

For a point a (alpha), its *check set* collects the fragment points that
reach it: every xi with a witness f in the registry such that
star(f)(xi) equals a, the witness being fixed deterministically as the
first one in registry order. From the chosen witnesses a *witness table*
encodes a as a function on I: row xi is the witness applied to the
sample when xi reaches a, and the identity otherwise. The equivalence
induced by a table (same value = related) is what the filter-of-
equivalences law speaks about; tables are stored as dense code matrices
so refinement checks are whole-array operations.

The membership policy for the product filter over I ("accept when the
inner-true set contains some check set, reject when its complement
does") decides exactly the sets the tracking argument needs, and returns
``UNDECIDED`` for anything else rather than guessing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

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

    def point_index(self, p: Hyperpoint) -> int:
        for i, q in enumerate(self.points):
            if q.text == p.text:
                return i
        raise KeyError(f"point {p!r} not in fragment")


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
        key = p.prefix(PREFIX_LEN)
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
    fallback: Callable[[int], tuple[str, FnExpr] | None] | None = None,
) -> CheckSet:
    """First-in-registry-order witness for each point that reaches the
    target.

    Candidates whose value prefix disagrees with the target are skipped
    without an oracle query; they could only be witnesses modulo the
    filter, and omitting a point from a check set is sound (absence is
    reported, never treated as knowledge). ``fallback`` may supply one
    extra candidate per point, tried after the registry scan.
    """
    u = frag.universe
    t_prefix = target.prefix(PREFIX_LEN)
    # hits[k][i]: registry function k maps point i's prefix onto the target's
    hits = [(image == t_prefix).all(axis=1) for image in frag.prefix_images()]
    check_set = CheckSet(target, [])
    for i, xi in enumerate(frag.points):
        candidates = [entry for entry, hit in zip(frag.registry, hits) if hit[i]]
        if fallback is not None and (extra := fallback(i)) is not None:
            candidates.append(extra)
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

    ``codes[i, j]`` is a dense code of the table value at (point i,
    sample j); equal codes mean equal values. ``row_exprs[i]`` is the
    expression computing row i (the witness, or the identity for points
    outside the check set).
    """

    target: Hyperpoint
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
            row = eval_vec(row_expr, sample)
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
    return WitnessTable(check_set.target, check_set, codes, row_exprs, values)


def refines(finer: WitnessTable, coarser: WitnessTable) -> bool:
    """True when the finer table's equivalence is contained in the
    coarser one's: equal finer-values force equal coarser-values."""
    a = finer.codes.ravel().astype(np.int64)
    b = coarser.codes.ravel().astype(np.int64)
    k = int(b.max()) + 1
    combined = a * k + b
    return np.unique(combined).size == np.unique(a).size


def refinement_violation(
    finer: WitnessTable, coarser: WitnessTable
) -> tuple[tuple[int, int], tuple[int, int]] | None:
    """A witnessing pair of I-points when refinement fails, else None."""
    a = finer.codes.ravel()
    b = coarser.codes.ravel()
    first_for: dict[int, int] = {}
    n_smp = finer.codes.shape[1]
    for flat, (ca, cb) in enumerate(zip(a, b)):
        seen = first_for.get(int(ca))
        if seen is None:
            first_for[int(ca)] = flat
        elif b[seen] != cb:
            return (
                (seen // n_smp, seen % n_smp),
                (flat // n_smp, flat % n_smp),
            )
    return None


def check_equivalence_filter_law(
    frag: Fragment, check_sets: dict[int, CheckSet], tables: dict[int, WitnessTable]
) -> list[tuple[int, int, tuple]]:
    """Exhaustive inclusion law over the fragment.

    For every pair (a, b) of fragment points with a in b's check set, the
    table of a must refine the table of b on all of I. Returns the list
    of violations as (a index, b index, witness pair); empty means the
    law holds and the tables generate a filter base of equivalences.
    """
    violations = []
    for bi, cs in check_sets.items():
        reach = cs.indices()
        for ai in reach:
            if ai == bi or ai not in tables:
                continue
            if not refines(tables[ai], tables[bi]):
                pair = refinement_violation(tables[ai], tables[bi])
                violations.append((ai, bi, pair))
    return violations


# ---------------------------------------------------------------------------
# Filters over the index set

def product_filter_member(
    frag: Fragment,
    rows: Callable[[int], FnExpr],
    check_sets: dict[int, CheckSet],
) -> str:
    """Decide a subset of I under the iterated-filter policy.

    ``rows(i)`` is the 0/1 indicator (over the base set) of the i-th
    point's row of the subset. The inner decision per point is
    membership in that point's generated ultrafilter; the outer decision
    accepts when the inner-true set contains some check set, rejects
    when its complement does, and reports UNDECIDED otherwise.
    """
    return _product_filter(frag, rows, check_sets)[0]


def _product_filter(
    frag: Fragment,
    rows: Callable[[int], FnExpr],
    check_sets: dict[int, CheckSet],
) -> tuple[str, Undecidable | None]:
    """:func:`product_filter_member`'s verdict, and the first inner query
    the oracle could not decide."""
    u = frag.universe
    inner_true: set[int] = set()
    inner_undecided: set[int] = set()
    first_undecided: Undecidable | None = None
    for i, xi in enumerate(frag.points):
        ind = normalize(rows(i))
        try:
            if u.member(xi, StarSet(ind, tag=f"row[{i}]")):
                inner_true.add(i)
        except Undecidable as exc:
            inner_undecided.add(i)
            first_undecided = first_undecided or exc.with_traceback(None)
    universe_indices = set(range(len(frag.points)))
    for cs in check_sets.values():
        reach = cs.indices()
        if reach and reach <= inner_true:
            return ACCEPT, first_undecided
    for cs in check_sets.values():
        reach = cs.indices()
        if reach and reach <= (universe_indices - inner_true - inner_undecided):
            return REJECT, first_undecided
    return UNDECIDED, first_undecided


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

    @property
    def ok(self) -> bool:
        return self.forward_fail == 0 and self.product_verdict == ACCEPT


def composite_fallback(g: FnExpr, g_name: str, check_set: CheckSet):
    """Fallback witness g after f for points that reach the source."""
    by_index = {i: (name, expr) for i, name, expr in check_set.members}

    def fallback(i: int):
        entry = by_index.get(i)
        if entry is None:
            return None
        name, expr = entry
        return (f"{g_name}.{name}", Compose(g, expr))

    return fallback


def check_star_tracking(
    frag: Fragment,
    alpha: Hyperpoint,
    g: FnExpr,
    g_name: str,
    alpha_cs: CheckSet,
    alpha_tab: WitnessTable,
) -> TrackingReport:
    """Verify that applying a function commutes with the I-encoding.

    Sets beta = star(g)(alpha) and checks, for every point xi reaching
    alpha, that {x : g(alpha-table(xi, x)) = beta-table(xi, x)} lies in
    the ultrafilter xi generates; then decides the full product-filter
    set. Every verdict is recorded, undecided included. ``alpha_cs`` and
    ``alpha_tab`` are alpha's check set and its witness table.
    """
    u = frag.universe
    ai = frag.point_index(alpha)
    beta = u.star_apply(g, alpha)
    beta_cs = build_check_set(frag, beta, fallback=composite_fallback(g, g_name, alpha_cs))
    beta_tab = witness_table(frag, beta_cs)
    report = TrackingReport()
    for cs in (alpha_cs, beta_cs):
        report.undecided = report.undecided or next(iter(cs.undecided.values()), None)

    beta_witness = {i: expr for i, _, expr in beta_cs.members}
    for i, _name, f_expr in alpha_cs.members:
        xi = frag.points[i]
        b_expr = beta_witness.get(i)
        if b_expr is None:
            report.forward_fail += 1
            report.details.append(f"point {i} reaches the source but not the image")
            continue
        agree = IfEq(Compose(g, f_expr), b_expr, Const(1), Const(0))
        try:
            if u.member(xi, StarSet(normalize(agree), tag="tracking")):
                report.forward_pass += 1
            else:
                report.forward_fail += 1
                report.details.append(f"inner set rejected at point {i}")
        except Undecidable as exc:
            report.forward_undecided += 1
            report.undecided = report.undecided or exc.with_traceback(None)

    def rows(i: int) -> FnExpr:
        a_row = alpha_tab.row_exprs[i]
        b_row = beta_tab.row_exprs[i]
        return IfEq(Compose(g, a_row), b_row, Const(1), Const(0))

    report.product_verdict, undecided = _product_filter(frag, rows, {ai: alpha_cs})
    report.undecided = report.undecided or undecided
    return report


def check_tracking_negative(
    frag: Fragment,
    alpha: Hyperpoint,
    g: FnExpr,
    g_name: str,
    beta_prime: Hyperpoint,
    alpha_cs: CheckSet,
    alpha_tab: WitnessTable,
) -> str:
    """Decide the tracking set against a wrong image.

    For beta_prime not equal to star(g)(alpha) the product-filter verdict
    must be REJECT (or UNDECIDED, reported); ACCEPT would refute the
    converse direction of the tracking claim. ``alpha_cs`` and
    ``alpha_tab`` are as in :func:`check_star_tracking`.
    """
    ai = frag.point_index(alpha)
    bp_cs = build_check_set(frag, beta_prime)
    bp_tab = witness_table(frag, bp_cs)

    def rows(i: int) -> FnExpr:
        return IfEq(
            Compose(g, alpha_tab.row_exprs[i]), bp_tab.row_exprs[i], Const(1), Const(0)
        )

    return product_filter_member(frag, rows, {ai: alpha_cs})


# ---------------------------------------------------------------------------
# Range of the encoding

def surjectivity_probe(
    frag: Fragment,
    alpha: Hyperpoint,
    table: Sequence[Sequence[int]],
    alpha_cs: CheckSet,
    alpha_tab: WitnessTable,
) -> Hyperpoint:
    """Recover the point whose witness table is the given I-function.

    ``table[i][j]`` must be constant on the equivalence classes of
    alpha's witness table, and every class must meet the alpha row
    (otherwise no sample-backed function can represent it); then the
    function g(x) = table[alpha row][x] satisfies: the table of
    star(g)(alpha) reproduces ``table`` on all of I. ``alpha_cs`` and
    ``alpha_tab`` are as in :func:`check_star_tracking`.
    """
    u = frag.universe
    ai = frag.point_index(alpha)
    n_pts, n_smp = alpha_tab.codes.shape
    if len(table) != n_pts or any(len(row) != n_smp for row in table):
        raise NotRepresentable("table shape does not match the fragment index set")

    class_value: dict[int, int] = {}
    class_on_alpha_row: set[int] = set()
    for i in range(n_pts):
        for j in range(n_smp):
            code = int(alpha_tab.codes[i, j])
            v = table[i][j]
            if code in class_value:
                if class_value[code] != v:
                    raise NotRepresentable(
                        f"table not constant on the class of ({i}, {j})"
                    )
            else:
                class_value[code] = v
            if i == ai:
                class_on_alpha_row.add(code)
    missing = set(class_value) - class_on_alpha_row
    if missing:
        raise NotRepresentable(
            f"{len(missing)} equivalence classes have no representative "
            "on the source row; the probe cannot tabulate them"
        )

    row = {x: table[ai][j] for j, x in enumerate(frag.sample)}
    if all(v == row[frag.sample[0]] for v in row.values()):
        g: FnExpr = Const(row[frag.sample[0]])
    elif all(v == x for x, v in row.items()):
        g = VAR
    else:
        g = Table(VAR, tuple(sorted(row.items())), None)
    beta = u.star_apply(g, alpha)
    beta_cs = build_check_set(
        frag, beta, fallback=composite_fallback(g, "probe", alpha_cs)
    )
    beta_tab = witness_table(frag, beta_cs)
    undecided: Undecidable | None = None
    for i in range(n_pts):
        for j in range(n_smp):
            if beta_tab.values[i][j] != table[i][j]:
                unplaced = beta_cs.undecided.get(i) or alpha_cs.undecided.get(i)
                if unplaced is not None:
                    # the row of a point the oracle could not place, in
                    # beta's check set or in alpha's that gives its
                    # fallback witness, is no evidence against the table
                    undecided = undecided or unplaced
                    continue
                raise NotRepresentable(
                    f"recovered table differs at ({i}, {j}): "
                    f"{beta_tab.values[i][j]} vs {table[i][j]}"
                )
    if undecided is not None:
        raise undecided
    return beta
