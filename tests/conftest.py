import time
from dataclasses import dataclass
from pathlib import Path

import pytest
from hypothesis import settings

from starext.cli import main
from starext.hyper import Universe
from starext.oracle import OracleConfig, OracleState
from starext.suites import SUITE_RUNNERS, SuiteReport

settings.register_profile("starext", deadline=None, derandomize=True)
settings.load_profile("starext")


def make_universe(horizon: int = 2000, tiebreak: str = "least") -> Universe:
    return Universe(OracleState(OracleConfig(horizon=horizon, tiebreak=tiebreak)))


@pytest.fixture
def u() -> Universe:
    return make_universe()


@dataclass
class StandardRun:
    """One ``starext standard`` run: its exit code, its output directory,
    and the report and wall time of each suite it ran."""

    code: int
    out: Path
    reports: dict[str, SuiteReport]
    wall_s: dict[str, float]


@pytest.fixture(scope="session")
def standard_run(tmp_path_factory) -> StandardRun:
    """The bundled full-size scenario, run once through the CLI for every
    test that checks it."""
    reports: dict[str, SuiteReport] = {}
    wall_s: dict[str, float] = {}

    def timed(name, run):
        def run_and_record(ctx):
            start = time.monotonic()
            reports[name] = run(ctx)
            wall_s[name] = time.monotonic() - start
            return reports[name]
        return run_and_record

    out = tmp_path_factory.mktemp("standard")
    with pytest.MonkeyPatch.context() as mp:
        for name, run in list(SUITE_RUNNERS.items()):
            mp.setitem(SUITE_RUNNERS, name, timed(name, run))
        code = main(["standard", "--out", str(out)])
    return StandardRun(code, out, reports, wall_s)
