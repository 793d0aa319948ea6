"""Micro-benchmarks of the per-query layers, one number per layer.

Run from the root of a checkout::

    python3 tools/layerbench.py

Each line is the best of five repetitions, in µs per call, measured with
``timeit`` in this one process:

- building one ``IfEq`` node from existing children;
- reading a cache field (``_nf``) of a node that has computed nothing;
- ``parse_fn`` of an indicator and ``parse_formula`` of a quantified
  formula, the two parsers a scenario file goes through;
- ``normalize`` + ``pretty`` of a fresh membership query, an indicator
  composed with a point's sequence;
- ``IndexPredicate.from_expr`` of a membership query at a standard
  point: 4,096 queries, the indicator composed with ``Const(k)``, each
  a new node; those whose ``k`` the indicator's text does not print
  are printed by substitution;
- ``eval_vec`` of that query's normal form (19 nodes) at H = 256;
- one instance of the axioms suite's composition law at H = 256, with
  fixed f, g and a point's sequence xi: g applied to the values of f at
  xi against the values of the normal form of (g after f)(xi);
- that query's truth vector (``IndexPredicate.mask``) at H = 10⁴, the
  horizon of the bundled ``standard`` scenario;
- the truth vector at H = 10⁴ of ``ifeq(2, x * (pair(4, x) * pair(4, x)),
  0, 1)``, a ``mask-h10k`` query whose product passes 2**62; the other
  side is narrow, so the comparison evaluates the product clamped at
  2**62, in int64;
- the truth vector at H = 10⁴ of ``ifeq(pair(pair(4, x), pair(4, x) *
  pair(4, x)), pair(x, x * x), 1, 0)``, whose left pair passes 2**62; the
  right side is narrow, so the left pair is evaluated clamped at 2**62 in
  int64, its product component included;
- an oracle decision on a mask already in the mask cache: 4,096
  cofinite sets, cached by a first query of each, so each decision is
  a few int operations on one;
- an oracle decision at H = 256 on ``or_`` of two cached predicates:
  4,005 unions of two of 90 cofinite indicators ``ifeq(x div d, 0, 0,
  1)``, each indicator cached by a first query, so each decision builds
  the union's mask from the cache;
- an oracle decision on a closed predicate, one that reads no index:
  4,096 memberships of standard points, the indicator composed with
  ``Const(k)``, each decided from its value without a mask;
- one Łoś group: ``eval_hyper`` of phi, !phi, psi, phi & psi and
  phi | psi in a new universe, without a registry;
- ``build_fragment`` on the fragment of the bundled ``quick`` scenario;
- a decision log: 30,000 fixed entries appended to a ``DecisionLog``
  whose sink is a temporary file, which is then closed.

One more line is a peak of memory, in KiB: what ``tracemalloc`` traces
while the first of the two wide truth vectors above is built once at
H = 10⁵.

The inputs are fixed, so two checkouts can be compared line by line on
one machine. The numbers depend on the machine and its load; compare
runs made back to back.
"""

from __future__ import annotations

import sys
import tempfile
import timeit
import tracemalloc
from collections import OrderedDict
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from starext.funlang import (  # noqa: E402
    VAR,
    Compose,
    Const,
    IfEq,
    IndexPredicate,
    eval_vec,
    normalize,
    or_,
    parse_fn,
    pretty,
)
from starext.fragments import build_fragment  # noqa: E402
from starext.hyper import Universe  # noqa: E402
from starext.oracle import DecisionLog, LogEntry, OracleConfig, OracleState  # noqa: E402
from starext.scenario import bundled_scenario_path, load_scenario  # noqa: E402
from starext.transfer import And, Not, Or, eval_hyper, parse_formula  # noqa: E402

H = 256
#: the horizon of a full-scale run
MASK_H = 10_000
#: the horizon of the memory row
PEAK_H = 100_000
INDICATOR_TEXT = "ifeq(x mod 5, 0, 1, ifeq(x mod 7, 2, 1, 0))"
FORMULA_TEXT = "exists y < 5 . y + y = v mod 5"
INDICATOR = normalize(parse_fn(INDICATOR_TEXT))
SEQ = normalize(parse_fn("x * 2 + 1"))
WIDE_QUERY = normalize(parse_fn("ifeq(2, x * (pair(4, x) * pair(4, x)), 0, 1)"))
WIDE_PAIR_QUERY = normalize(parse_fn(
    "ifeq(pair(pair(4, x), pair(4, x) * pair(4, x)), pair(x, x * x), 1, 0)"))
#: f, g and xi of the composition-law row
COMP_F = parse_fn("pair(x mod 7, x div 3)")
COMP_G = parse_fn("p1(x) * 3 + p2(x)")
COMP_XI = normalize(parse_fn("x * x + 1"))
PHI = parse_formula("v mod 3 = 0 | v < 40")
PSI = parse_formula("v mod 4 = 1")
#: entries of the decision-log row; a full-scale seed logs about 29,000
LOG_ENTRIES = 30_000


def _node_count(e) -> int:
    return 1 + sum(_node_count(getattr(e, f)) for f in e.__match_args__
                   if hasattr(getattr(e, f), "__match_args__"))


def _construction():
    a, b, t, o = VAR, Const(0), Const(1), Const(0)
    return None, lambda: IfEq(a, b, t, o)


def _cache_read():
    node = IfEq(VAR, Const(0), Const(1), Const(0))
    return None, lambda: getattr(node, "_nf", None)


def _parse():
    return None, lambda: (parse_fn(INDICATOR_TEXT), parse_formula(FORMULA_TEXT))


def _canonicalise():
    return None, lambda: pretty(normalize(Compose(INDICATOR, SEQ)))


def _standard_member():
    # new nodes each repetition: a query normalised once keeps its form
    state = {}

    def setup():
        queries = [Compose(INDICATOR, Const(k)) for k in range(4096)]
        state["next"] = iter(queries).__next__

    return setup, lambda: IndexPredicate.from_expr(state["next"]())


QUERY = normalize(Compose(INDICATOR, SEQ))


def _eval_vec():
    xs = np.arange(H + 1)
    return None, lambda: eval_vec(QUERY, xs)


def _comp_law():
    # the statements of the comp check in ``suites.run_axioms``
    xs = np.arange(H + 1)

    def run():
        lhs = eval_vec(normalize(COMP_G), eval_vec(normalize(Compose(COMP_F, COMP_XI)), xs))
        rhs = eval_vec(normalize(Compose(Compose(COMP_G, COMP_F), COMP_XI)), xs)
        return np.flatnonzero(lhs != rhs)

    return None, run


def _mask():
    pred = IndexPredicate.from_expr(QUERY)
    return None, lambda: pred.mask(MASK_H)


def _wide_mask(query, horizon=MASK_H):
    def factory():
        pred = IndexPredicate.from_expr(query)
        return None, lambda: pred.mask(horizon)

    return factory


def _decision():
    # cofinite masks: each decision accepts and keeps the committed set fat
    rng = np.random.default_rng(0)
    preds = [IndexPredicate(f"p{i}", vec=lambda ns, k=rng.integers(0, 40): ns >= k)
             for i in range(4096)]
    return _decisions(preds, preds)


def _union_decision():
    # unions of cofinite sets are cofinite: each decision accepts
    parts = [IndexPredicate.from_expr(parse_fn(f"ifeq(x div {d}, 0, 0, 1)"))
             for d in range(2, 92)]
    unions = [IndexPredicate.from_expr(or_(p.expr, q.expr))
              for i, p in enumerate(parts) for q in parts[i + 1:]]
    return _decisions(parts, unions)


def _decisions(cached, preds):
    """Decisions of ``preds`` in turn, each repetition from a new state
    whose mask cache holds the masks of ``cached``."""
    # the cache is filled the way a run fills it, by a first query of each
    masks = OrderedDict()
    first = OracleState(OracleConfig(horizon=H), mask_cache=masks)
    for pred in cached:
        first.query(pred)
    state = {}

    def setup():
        oracle = OracleState(OracleConfig(horizon=H), mask_cache=OrderedDict(masks))
        state["query"], state["next"] = oracle.query, iter(preds).__next__

    return setup, lambda: state["query"](state["next"]())


def _constant_decision():
    # distinct texts, so no decision is a repeat of an earlier one
    preds = [IndexPredicate.from_expr(Compose(INDICATOR, Const(k))) for k in range(4096)]
    state = {}

    def setup():
        oracle = OracleState(OracleConfig(horizon=H))
        state["query"], state["next"] = oracle.query, iter(preds).__next__

    return setup, lambda: state["query"](state["next"]())


def _los_group():
    group = [PHI, Not(PHI), PSI, And(PHI, PSI), Or(PHI, PSI)]

    def run():
        u = Universe(OracleState(OracleConfig(horizon=H)))
        env = {"v": u.point(SEQ)}
        for phi in group:
            eval_hyper(phi, env, u)

    return None, run


def _fragment():
    sc = load_scenario(bundled_scenario_path("quick"))
    spec = sc.fragment
    u = Universe(OracleState(sc.oracle_config()))
    registry = [(name, sc.defs[name]) for name in spec.functions]
    base = [u.point(sc.points[name], name) for name in spec.points]
    sample = list(range(spec.sample_stop))
    return None, lambda: build_fragment(u, registry, base, sample, depth=spec.depth)


def _decision_log():
    fixed = [LogEntry(i, f"ifeq(p1(x * 2 + 1) mod {i % 89 + 2}, 0, ifeq(x div 3, {i % 7}, 1, 0), 0)",
                      "accept" if i % 3 else "reject", i % 250 + 1)
             for i in range(LOG_ENTRIES)]

    def run():
        with tempfile.TemporaryFile("w") as sink:
            log = DecisionLog(sink)
            for entry in fixed:
                log.append(entry)

    return None, run


#: (label, factory returning (setup per repetition or None, statement), calls)
BENCHES = [
    ("node construction (IfEq)", _construction, 200_000),
    ("cache field read, unset", _cache_read, 200_000),
    ("parse_fn + parse_formula", _parse, 2_000),
    ("normalize + pretty, member query", _canonicalise, 5_000),
    ("IndexPredicate.from_expr, standard point", _standard_member, 4_096),
    (f"eval_vec, {_node_count(QUERY)}-node mask, H={H}", _eval_vec, 2_000),
    (f"axioms comp instance, H={H}", _comp_law, 2_000),
    (f"IndexPredicate.mask, H={MASK_H}", _mask, 200),
    (f"IndexPredicate.mask, H={MASK_H}, wide ifeq", _wide_mask(WIDE_QUERY), 200),
    (f"IndexPredicate.mask, H={MASK_H}, wide pair ifeq", _wide_mask(WIDE_PAIR_QUERY), 200),
    ("oracle decision, cached mask", _decision, 4_000),
    (f"oracle decision, or_ of two cached predicates, H={H}", _union_decision, 4_000),
    ("oracle decision, closed predicate", _constant_decision, 4_000),
    ("Łoś group, five eval_hyper", _los_group, 200),
    ("build_fragment, quick", _fragment, 200),
    (f"decision log, {LOG_ENTRIES:,} entries to a file", _decision_log, 5),
]


#: (label, factory returning (None, statement)) of the memory rows
PEAKS = [
    (f"IndexPredicate.mask, H={PEAK_H}, wide ifeq, traced peak",
     _wide_mask(WIDE_QUERY, PEAK_H)),
]


def measure(repeat: int = 5) -> dict[str, tuple[float, str]]:
    """(value, unit) of each benchmark: µs per call, the best of
    ``repeat`` runs, for a timed row, and the KiB that tracemalloc traces
    at the peak of one call for a memory row."""
    results = {}
    for label, factory, number in BENCHES:
        setup, stmt = factory()
        timer = timeit.Timer(stmt, setup=setup or "pass")
        best = min(timer.repeat(repeat=repeat, number=number))
        results[label] = (best / number * 1e6, "µs")
    for label, factory in PEAKS:
        _, stmt = factory()
        tracemalloc.start()
        try:
            stmt()
            results[label] = (tracemalloc.get_traced_memory()[1] / 1024, "KiB")
        finally:
            tracemalloc.stop()
    return results


def main(repeat: int = 5) -> dict[str, tuple[float, str]]:
    results = measure(repeat)
    width = max(map(len, results))
    for label, (value, unit) in results.items():
        print(f"{label:<{width}}  {value:10.2f} {unit}")
    return results


if __name__ == "__main__":
    main()
