import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st

from starext.cli import main
from starext.errors import Undecidable
from starext.funlang import parse_fn
from starext.hyper import Universe
from starext.oracle import OracleConfig, OracleState
from starext.suites import SUITE_RUNNERS, SuiteReport

settings.register_profile("starext", deadline=None, derandomize=True)
settings.load_profile("starext")


def make_universe(horizon: int = 2000, tiebreak: str = "least") -> Universe:
    return Universe(OracleState(OracleConfig(horizon=horizon, tiebreak=tiebreak)))


class UndecidedOracle(OracleState):
    """Raises Undecidable for the first ``undecided`` queries, then
    accepts every query."""

    undecided = float("inf")

    def query(self, pred):
        if self.undecided <= 0:
            return True
        self.undecided -= 1
        raise Undecidable(pred.text, self.horizon, "undecided by the test")


def undecided_universe(undecided: float) -> Universe:
    """A universe whose oracle leaves its first ``undecided`` queries open
    and accepts the rest."""
    oracle = UndecidedOracle(OracleConfig(horizon=64))
    oracle.undecided = undecided
    return Universe(oracle)


#: two functions that both carry omega's first 64 values onto 5's, so
#: that both are candidate witnesses of omega reaching 5; the second one
#: differs from 5 only at 1000
LATE_WITNESS = [("c5", parse_fn("5")), ("c5-late", parse_fn("ifeq(x, 1000, 6, 5)"))]


def truth_vector(bits: int, horizon: int) -> np.ndarray:
    """The boolean vector over 0..horizon of a truth set held as an int
    (a mask, a mask-cache entry or an oracle's C), which has no bit past
    the horizon."""
    assert 0 <= bits and bits >> (horizon + 1) == 0
    raw = np.frombuffer(bits.to_bytes(horizon // 8 + 1, "little"), dtype=np.uint8)
    return np.unpackbits(raw, count=horizon + 1, bitorder="little").astype(bool)


@pytest.fixture
def u() -> Universe:
    return make_universe()


#: trees have at most this many nodes
_MAX_NODES = 90

#: tree sizes: a size class k in 0..6, then a size in [2**k, 2**(k+1)),
#: capped at _MAX_NODES; small trees are as common as large ones
_tree_size = st.integers(0, 6).flatmap(
    lambda k: st.integers(2**k, min(2 ** (k + 1) - 1, _MAX_NODES)))


def trees(leaf, branches, sizes=_tree_size):
    """Trees of ``leaf`` nodes and ``branches``, (arity, build(draw,
    *children)) pairs. The recursion is bounded by a size drawn first,
    from ``sizes``, and split among the children, so no draw overruns
    and is thrown away."""
    @st.composite
    def tree(draw, size):
        fits = [branch for branch in branches if branch[0] < size]
        if not fits:
            return draw(leaf)
        arity, build = draw(st.sampled_from(fits))
        children, left = [], size - 1
        for k in range(arity - 1, 0, -1):
            n = draw(st.integers(1, left - k))  # leaves at least 1 node each to the rest
            children.append(draw(tree(n)))
            left -= n
        return build(draw, *children, draw(tree(left)))

    return sizes.flatmap(tree)


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
