"""Suite runners report an undecidable query instead of crashing."""

import pytest

from starext import funlang, suites
from starext.errors import Undecidable
from starext.funlang import P1, PairE
from starext.hyper import Universe
from starext.oracle import OracleState
from starext.scenario import bundled_scenario_path, parse_scenario
from starext.suites import FAIL, PASS, UNDECIDABLE, SuiteContext

#: quick, plus a fragment point with omega's value prefix but its own
#: text, so that building the fragment asks the oracle whether the two
#: are equal
QUICK = bundled_scenario_path("quick").read_text().replace(
    "omega = x\n", "omega = x\nomega0 = x + 0\n").replace(
    "points = omega, tagged1", "points = omega, omega0, tagged1")


@pytest.mark.parametrize("suite, owner, trigger, check", [
    # after the first directedness check, the uniqueness check of its
    # realizer is not decided
    ("axioms", suites, "check_directedness", "dir"),
    # once irredundancy is checked, the Puritz order is not decided
    ("axioms", suites, "check_irredundant", "puritz"),
    # after the first diagonal check, the later ones are not decided
    ("axioms", suites, "check_diagonal", "diag"),
    # after the first irredundancy check, the later ones are not decided
    ("axioms", suites, "check_irredundant", "irredundant"),
    # boolean's first rng call starts the run: the laws and then the
    # standard-part sweep meet undecidable queries
    ("boolean", SuiteContext, "rng", "laws"),
    ("boolean", SuiteContext, "rng", "standard-part"),
    ("equalizer", SuiteContext, "rng", "biconditional"),
    ("nary", SuiteContext, "rng", "routes"),
    ("nary", SuiteContext, "rng", "compose"),
    ("transfer", SuiteContext, "rng", "standard-env"),
    ("transfer", SuiteContext, "rng", "scenario-formula"),
    ("transfer", SuiteContext, "rng", "negation-law"),
    ("topology", SuiteContext, "rng", "cover"),
    ("topology", SuiteContext, "rng", "continuity"),
    ("topology", SuiteContext, "rng", "monotone"),
    ("topology", SuiteContext, "rng", "scenario-closed"),
    # once a finite set is resolved, the level checks after it are not
    ("finite", Universe, "decide_finite", "resolve"),
    # keisler's only rng call opens the tracking-negative loop
    ("keisler", SuiteContext, "rng", "tracking-negative"),
    # after the first negative tracking check, the queries of the
    # surjectivity probes are not decided either
    ("keisler", suites, "check_tracking_negative", "probe-self"),
    ("keisler", suites, "surjectivity_probe", "probe-constant"),
    # keisler's filter state is made before the fragment is built
    ("keisler", SuiteContext, "fresh", "fragment"),
    # once the fragment is built, no point can be placed in a check set
    ("keisler", suites, "build_fragment", "reach-intersection"),
    ("keisler", suites, "build_fragment", "tracking"),
    ("keisler", suites, "build_fragment", "undecided-rate"),
    ("keisler", suites, "build_fragment", "probe-constant"),
])
def test_undecidable_query_is_reported(monkeypatch, suite, owner, trigger, check):
    armed = []
    real_query = OracleState.query
    real_trigger = getattr(owner, trigger)

    def query(self, pred):
        if armed:
            raise Undecidable(pred.text, self.horizon, "forced by the test")
        return real_query(self, pred)

    def arm(*args, **kwargs):
        out = real_trigger(*args, **kwargs)
        armed.append(True)
        return out

    monkeypatch.setattr(OracleState, "query", query)
    monkeypatch.setattr(owner, trigger, arm)
    scenario = parse_scenario(QUICK, "quick.scn")
    ctx = SuiteContext(scenario, Universe(OracleState(scenario.oracle_config())))
    report = suites.SUITE_RUNNERS[suite](ctx)
    lines = [line for line in report.lines
             if line.check == check and line.verdict == UNDECIDABLE]
    assert lines
    assert all("forced by the test" in line.witness for line in lines)
    # an undecidable query is never reported as a failure
    assert report.failures == 0


def keisler_report(text: str, name: str = "quick.scn"):
    scenario = parse_scenario(text, name)
    return suites.run_keisler(
        SuiteContext(scenario, Universe(OracleState(scenario.oracle_config()))))


@pytest.mark.parametrize("verdict, reason, line_verdict", [
    ("accept", None, "fail"),
    ("accept", "forced by the test", "fail"),
    ("reject", None, "pass"),
    ("reject", "forced by the test", "pass"),
    # an open verdict is the oracle's when it left a query open, and a
    # failure of the policy otherwise
    ("undecided", "forced by the test", UNDECIDABLE),
    ("undecided", None, "fail"),
])
def test_tracking_negative_line_earns_its_verdict(monkeypatch, verdict, reason, line_verdict):
    undecided = None if reason is None else Undecidable("q", 2000, reason)
    monkeypatch.setattr(suites, "check_tracking_negative", lambda *args: (verdict, undecided))
    report = keisler_report(bundled_scenario_path("quick").read_text())
    lines = [line for line in report.lines if line.check == "tracking-negative"]
    assert lines and all(line.verdict == line_verdict for line in lines)
    for line in lines:
        label = line.witness.split(":" if line_verdict == UNDECIDABLE else " -> ")[0]
        assert label.startswith("alpha=") and " beta'=" in label
        tail = f": {undecided}" if line_verdict == UNDECIDABLE else f" -> {verdict}"
        assert line.witness == label + tail


def test_deep_fragment_lines_name_their_points():
    # quick's fragment closed once under its functions: derived points
    # have no names and are labelled by their text
    report = keisler_report(bundled_scenario_path("quick").read_text().replace(
        "depth = 0", "depth = 1"))
    by_check = {}
    for line in report.lines:
        by_check.setdefault(line.check, []).append(line)
        assert "=None" not in line.witness
    # every query was decided, so open verdicts are the policy's failures
    negative = by_check["tracking-negative"]
    assert [line.verdict for line in negative[1:4]] == ["fail"] * 3
    assert all(line.witness.endswith("-> undecided") for line in negative[1:4])
    assert "alpha=p2(x) g=tag2" in negative[3].witness
    # fail lines keep their count first and name their first witness
    [reach] = by_check["reach-intersection"]
    assert reach.verdict == "fail"
    assert reach.witness == "empty intersections: 16; first: a=p2(x) b=pair(1, pair(1, x))"
    [law] = by_check["equivalence-filter-law"]
    assert law.verdict == "fail"
    assert law.witness == ("27 refinement failures; first: a=tagged1 b=omega, cells (0, 0) "
                           "and (3, 1) equal in a's table, not in b's")
    # the probe names the first cell, row by row, where its table is missed
    [probe] = by_check["probe-constant"]
    assert probe.witness == "recovered table differs at (3, 0): 0 vs 9"


#: the composition law only, over a projection and a pairing, so that
#: (first after tag1) meets a p1(pair(a, b)) redex in many instances
_COMP_ONLY = """[config]
horizon = 2000
seed = 7
scale = quick

[functions]
def first = p1(x)
def tag1 = pair(1, x)

[suites]
axioms
"""


def _comp_verdicts() -> list[str]:
    scenario = parse_scenario(_COMP_ONLY, "comp.scn")
    report = suites.run_axioms(
        SuiteContext(scenario, Universe(OracleState(scenario.oracle_config()))))
    lines = [line for line in report.lines if line.check == "comp"]
    assert all(line.verdict == PASS or line.witness.startswith("differs at index ")
               for line in lines)
    return [line.verdict for line in lines]


def test_comp_law_catches_a_normalisation_fault(monkeypatch):
    """The composition law sets g applied to the values of f at xi against
    the normal form of (g after f)(xi), so a fault of :func:`normalize`
    shows: here ``p1(pair(a, b))`` is rewritten to b instead of a."""
    assert set(_comp_verdicts()) == {PASS}
    real = funlang._normal

    def mutant(node, repl, memo):
        if type(node) is P1:
            sa = funlang._normal(node.arg, repl, memo)
            return sa.right if type(sa) is PairE else P1(sa)
        return real(node, repl, memo)

    monkeypatch.setattr(funlang, "_normal", mutant)
    assert FAIL in _comp_verdicts()
