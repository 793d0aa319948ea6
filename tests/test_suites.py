"""Suite runners report an undecidable query instead of crashing."""

import pytest

from starext import suites
from starext.errors import Undecidable
from starext.hyper import Universe
from starext.oracle import OracleState
from starext.scenario import bundled_scenario_path, parse_scenario
from starext.suites import UNDECIDABLE, SuiteContext

#: quick, plus a fragment point with omega's value prefix but its own
#: text, so that building the fragment asks the oracle whether the two
#: are equal
QUICK = bundled_scenario_path("quick").read_text().replace(
    "omega = x\n", "omega = x\nomega0 = x + 0\n").replace(
    "points = omega, tagged1", "points = omega, omega0, tagged1")


@pytest.mark.parametrize("suite, owner, trigger, check", [
    # boolean's first rng call starts the run: the laws and then the
    # standard-part sweep meet undecidable queries
    ("boolean", SuiteContext, "rng", "standard-part"),
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
