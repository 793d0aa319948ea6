"""Executable checkers for the defining laws, and the two extensions
they run on.

The laws checked here:

  composition   star(g)(star(f)(p)) equals star(g after f)(p)
  diagonal      the starred diagonal indicator at p is 1 exactly when
                star(f)(p) equals star(g)(p), and 0 otherwise
  directedness  every pair of points is realized as the two projections
                of a single point (strong form, via pairing)
  irredundancy  every point is in the range of some starred function
  Puritz order  p <= q iff some starred function maps q to p

The checkers run on :class:`UltrapowerExtension`, which should pass, and
on :class:`ToyExtension`, the finite tables that the ``broken_*``
constructors break on purpose as negative controls that must be caught.
Functions and points are opaque handles to them; they call only
``function_handles``, ``function_name``, ``star`` (total on the handles
an extension hands out), ``compose(g, f)`` (a handle for g after f),
``diagonal(f, g)`` (a handle for the diagonal indicator composed with
(f, g)), ``eq``, ``standard``, ``identity_handle``, ``realize_pair``
(a point and the two projections that recover a pair, or
:class:`~starext.errors.NotSupported`) and ``describe_point``.

A checker lets an :class:`~starext.errors.Undecidable` query propagate,
for its caller to report apart from "fail": a horizon limitation is not
a refutation.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Sequence

from .errors import MalformedIndicator, NotSupported
from .funlang import (
    VAR,
    Compose,
    FnExpr,
    P1,
    P2,
    PairE,
    pretty,
)
from .hyper import Hyperpoint, Universe, diagonal_composite, first_equal

PASS = "pass"
FAIL = "fail"


@dataclass(frozen=True)
class CheckOutcome:
    """A checker's verdict, PASS or FAIL, with its witness. An undecidable
    query is no outcome: it propagates as ``Undecidable``."""

    status: str
    witness: str = ""


class UltrapowerExtension:
    """The ultrapower model wrapped for the generic checkers."""

    name = "ultrapower"

    def __init__(self, universe: Universe, registry: Sequence[tuple[str, FnExpr]]):
        self.universe = universe
        self.registry = list(registry)

    def function_handles(self):
        return [expr for _, expr in self.registry]

    def function_name(self, handle) -> str:
        for name, expr in self.registry:
            if expr == handle:
                return name
        return pretty(handle)

    def star(self, handle: FnExpr, point: Hyperpoint) -> Hyperpoint:
        return self.universe.star_apply(handle, point)

    def compose(self, g: FnExpr, f: FnExpr) -> FnExpr:
        return Compose(g, f)

    def diagonal(self, f: FnExpr, g: FnExpr) -> FnExpr:
        return diagonal_composite(f, g)

    def eq(self, p: Hyperpoint, q: Hyperpoint) -> bool:
        return self.universe.eq(p, q)

    def standard(self, x: int) -> Hyperpoint:
        return self.universe.standard(x)

    def identity_handle(self) -> FnExpr:
        return VAR

    def realize_pair(self, xi: Hyperpoint, eta: Hyperpoint):
        zeta = self.universe.point(PairE(xi.seq, eta.seq))
        return zeta, P1(VAR), P2(VAR)

    def describe_point(self, p: Hyperpoint) -> str:
        return p.text


class ToyExtension:
    """A finite table posing as an extension; may violate any law.

    The carrier is 0..carrier_size-1, of which the first ``standard_size``
    elements are the standard part. Base functions are given as tuples
    over the standard part, star tables over the whole carrier. Star
    tables of composites and of diagonal indicators are derived from the
    component tables unless an override is installed; overrides are how
    the negative controls break exactly one law. Install them before the
    first ``star`` call: each handle's table is built once, on first use.
    """

    def __init__(self, name: str, standard_size: int, carrier_size: int,
                 functions: dict[str, tuple[tuple[int, ...], tuple[int, ...]]]):
        self.name = name
        self.standard_size = standard_size
        self.carrier_size = carrier_size
        self.tables: dict[str, tuple[int, ...]] = {}
        for fname, (base, star) in functions.items():
            if len(base) != standard_size or len(star) != carrier_size:
                raise ValueError(f"bad table sizes for {fname!r}")
            if star[:standard_size] != base:
                raise ValueError(f"star table of {fname!r} does not extend its base")
            self.tables[fname] = star
        self.composite_overrides: dict[tuple[str, str], tuple[int, ...]] = {}
        self.diagonal_overrides: dict[tuple[str, str], tuple[int, ...]] = {}
        self._star_tables: dict = {}

    # handles are composition-free names or ("comp", g, f) / ("diag", f, g)

    def function_handles(self):
        return list(self.tables)

    def function_name(self, handle: str) -> str:
        return handle

    def _table(self, handle) -> tuple[int, ...]:
        if isinstance(handle, tuple):
            kind, a, b = handle
            if kind == "comp":
                override = self.composite_overrides.get((a, b))
                if override is not None:
                    return override
                ga, fb = self._table(a), self._table(b)
                return tuple(ga[fb[p]] for p in range(self.carrier_size))
            if kind == "diag":
                override = self.diagonal_overrides.get((a, b))
                if override is not None:
                    return override
                fa, gb = self._table(a), self._table(b)
                return tuple(
                    1 if fa[p] == gb[p] else 0 for p in range(self.carrier_size)
                )
            raise ValueError(f"bad handle {handle!r}")
        return self.tables[handle]

    def star(self, handle, point: int) -> int:
        table = self._star_tables.get(handle)
        if table is None:
            table = self._star_tables[handle] = self._table(handle)
        return table[point]

    def compose(self, g, f):
        return ("comp", g, f)

    def diagonal(self, f, g):
        return ("diag", f, g)

    def eq(self, p: int, q: int) -> bool:
        return p == q

    def standard(self, x: int) -> int:
        if x >= self.standard_size:
            raise ValueError(f"{x} outside the toy standard part")
        return x

    def identity_handle(self):
        return "id"

    def realize_pair(self, xi: int, eta: int):
        raise NotSupported(f"{self.name} has no pairing structure")

    def describe_point(self, p: int) -> str:
        return str(p)

    def all_points(self):
        return range(self.carrier_size)


# ---------------------------------------------------------------------------
# Toy constructors

#: every toy extends Z_TOY_SIZE
TOY_SIZE = 7


def _mod_tables() -> dict[str, tuple[tuple[int, ...], tuple[int, ...]]]:
    def tab(f):
        t = tuple(f(x) % TOY_SIZE for x in range(TOY_SIZE))
        return (t, t)

    return {
        "id": tab(lambda x: x),
        "succ": tab(lambda x: x + 1),
        "dbl": tab(lambda x: 2 * x),
        "sq": tab(lambda x: x * x),
        "c0": tab(lambda x: 0),
        "c1": tab(lambda x: 1),
    }


def honest_toy() -> ToyExtension:
    """The trivial extension of Z_TOY_SIZE by itself: satisfies every law."""
    return ToyExtension("honest-toy", TOY_SIZE, TOY_SIZE, _mod_tables())


def broken_comp_toy() -> ToyExtension:
    """Violates composition only: star(dbl after succ) is mutated at 1."""
    toy = ToyExtension("broken-comp", TOY_SIZE, TOY_SIZE, _mod_tables())
    good = tuple(toy.tables["dbl"][toy.tables["succ"][p]] for p in range(TOY_SIZE))
    bad = list(good)
    bad[1] = (bad[1] + 1) % TOY_SIZE
    toy.composite_overrides[("dbl", "succ")] = tuple(bad)
    return toy


def broken_diag_toy() -> ToyExtension:
    """Violates the diagonal law only: the indicator reports 1 at a point
    where star(succ) and star(dbl) differ."""
    toy = ToyExtension("broken-diag", TOY_SIZE, TOY_SIZE, _mod_tables())
    fa, gb = toy.tables["succ"], toy.tables["dbl"]
    derived = [1 if fa[p] == gb[p] else 0 for p in range(TOY_SIZE)]
    for p in range(TOY_SIZE):
        if fa[p] != gb[p]:
            derived[p] = 1
            break
    toy.diagonal_overrides[("succ", "dbl")] = tuple(derived)
    return toy


def redundant_toy() -> ToyExtension:
    """Violates irredundancy only: one nonstandard point is outside the
    range of every starred function."""
    # extend each table to the extra point without ever producing it: send
    # the point where the function sends 0 (id's base[0] is 0 itself)
    functions = {name: (base, base + (base[0],))
                 for name, (base, _) in _mod_tables().items()}
    return ToyExtension("redundant", TOY_SIZE, TOY_SIZE + 1, functions)


# ---------------------------------------------------------------------------
# Checkers

def check_composition(ext, f, g, xi) -> CheckOutcome:
    """star(g) after star(f) against star(g after f) at one point."""
    lhs = ext.star(g, ext.star(f, xi))
    rhs = ext.star(ext.compose(g, f), xi)
    if ext.eq(lhs, rhs):
        return CheckOutcome(PASS)
    return CheckOutcome(
        FAIL,
        witness=(
            f"f={ext.function_name(f)} g={ext.function_name(g)} "
            f"point={ext.describe_point(xi)} "
            f"lhs={ext.describe_point(lhs)} rhs={ext.describe_point(rhs)}"
        ),
    )


def check_diagonal(ext, f, g, xi) -> CheckOutcome:
    """The starred diagonal indicator must report star-equality exactly."""
    value = ext.star(ext.diagonal(f, g), xi)
    same = ext.eq(ext.star(f, xi), ext.star(g, xi))
    is_one = ext.eq(value, ext.standard(1))
    is_zero = ext.eq(value, ext.standard(0))
    if not is_one and not is_zero:
        raise MalformedIndicator(
            f"diagonal of ({ext.function_name(f)}, {ext.function_name(g)}) "
            f"at {ext.describe_point(xi)} is neither 0 nor 1"
        )
    if is_one == same and is_zero == (not same):
        return CheckOutcome(PASS)
    return CheckOutcome(
        FAIL,
        witness=(
            f"f={ext.function_name(f)} g={ext.function_name(g)} "
            f"point={ext.describe_point(xi)} indicator={'1' if is_one else '0'} "
            f"star-equal={same}"
        ),
    )


def check_directedness(ext, xi, eta) -> CheckOutcome:
    try:
        zeta, pr1, pr2 = ext.realize_pair(xi, eta)
    except NotSupported as exc:
        return CheckOutcome(FAIL, witness=f"not supported: {exc}")
    ok1 = ext.eq(ext.star(pr1, zeta), xi)
    ok2 = ext.eq(ext.star(pr2, zeta), eta)
    if ok1 and ok2:
        return CheckOutcome(PASS, witness=ext.describe_point(zeta))
    return CheckOutcome(
        FAIL, witness=f"projections do not recover ({ok1}, {ok2})"
    )


def check_irredundant(ext, xi, extra_points=()) -> CheckOutcome:
    """Search for (f, eta) with star(f)(eta) equal to the point, the
    identity at the point itself first.

    A completed scan is a FAIL whose witness is the point. On a toy every
    point is a candidate, so the scan refutes the law. On the ultrapower
    no scan completes: star(identity) at the point is the point itself.
    """
    candidates = list(extra_points) or [xi]
    witness = first_equal(ext.eq, chain(
        [("(identity, the point itself)", ext.star(ext.identity_handle(), xi), xi)],
        ((f"({ext.function_name(handle)}, {ext.describe_point(eta)})",
          ext.star(handle, eta), xi)
         for handle in ext.function_handles() for eta in candidates),
    ))
    if witness is None:
        return CheckOutcome(FAIL, witness=ext.describe_point(xi))
    return CheckOutcome(PASS, witness=witness)


def puritz_leq(ext, eta, xi):
    """Witness for eta <= xi in the Puritz order, or None.

    Scans the registry in order; undecidable candidates are skipped while
    a witness is still possible and re-raised only if the scan ends
    without one.
    """
    return first_equal(ext.eq, ((handle, ext.star(handle, xi), eta)
                                for handle in ext.function_handles()))
