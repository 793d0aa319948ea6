"""Acceptance gate: one test per criterion, full-size counts.

Each test prints a single verdict line (visible under ``pytest -s``) and
asserts the criterion at its stated tolerance. Criteria 1-9 read the
suite reports of one CLI run of the bundled standard scenario at horizon
10000 (the session fixture ``standard_run``); the determinism criterion
exercises the CLI end to end.
"""

from starext.cli import main
from starext.scenario import bundled_scenario_path, load_scenario
from starext.suites import FULL_COUNTS

SCENARIO = load_scenario(bundled_scenario_path("standard"))


def verdict(n: int, ok: bool, detail: str) -> None:
    print(f"criterion {n}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def by_check(report, check: str):
    return [line for line in report.lines if line.check == check]


def test_criterion_1_axiom_suite(standard_run):
    report = standard_run.reports["axioms"]
    elapsed = standard_run.wall_s["axioms"]

    comp = by_check(report, "comp")
    diag = by_check(report, "diag")
    dirs = by_check(report, "dir")
    ok = (
        len(comp) == 1000 and all(l.verdict == "pass" for l in comp)
        and len(diag) == 500 and all(l.verdict == "pass" for l in diag)
        and len(dirs) == 100 and all(l.verdict == "pass" for l in dirs)
        and elapsed < 30.0
    )
    verdict(1, ok, (
        f"comp 1000/{sum(l.verdict == 'pass' for l in comp)}, "
        f"diag 500/{sum(l.verdict == 'pass' for l in diag)}, "
        f"dir 100/{sum(l.verdict == 'pass' for l in dirs)}, "
        f"runtime {elapsed:.1f}s (< 30s) at horizon {SCENARIO.horizon}"
    ))


def test_criterion_2_negative_controls(standard_run):
    report = standard_run.reports["negative"]
    ok = report.failures == 0 and report.passes == len(report.lines) == 7
    caught = {l.check: l.verdict for l in report.lines}
    verdict(2, ok, (
        "each engineered violation caught by its checker, honest table "
        f"clean, no cross-flagging: {caught}"
    ))


def test_criterion_3_boolean_structure(standard_run):
    report = standard_run.reports["boolean"]
    laws = by_check(report, "laws")
    std = by_check(report, "standard-part")
    ok = (
        len(laws) == 200 and all(l.verdict == "pass" for l in laws)
        and len(std) == 200 and all(l.verdict == "pass" for l in std)
    )
    verdict(3, ok, (
        f"union/intersection/complement exact on {len(laws)} pairs x "
        f"{FULL_COUNTS['boolean_points']} points; standard part recovered "
        f"on all sampled x <= 1000"
    ))


def test_criterion_4_equalizer(standard_run):
    report = standard_run.reports["equalizer"]
    bic = by_check(report, "biconditional")
    text_fails = by_check(report, "reduction-text")
    ok = len(bic) == 500 and all(l.verdict == "pass" for l in bic) \
        and not text_fails
    verdict(4, ok, (
        f"membership biconditional on {len(bic)} instances; queried "
        f"predicate ids textually identical on every instance"
    ))


def test_criterion_5_finite_triviality(standard_run):
    report = standard_run.reports["finite"]
    resolve = by_check(report, "resolve")
    violations = by_check(report, "violations")
    ok = (
        len(resolve) == 100 and all(l.verdict == "pass" for l in resolve)
        and violations[0].verdict == "pass"
    )
    verdict(5, ok, (
        f"100 instances resolved with a unique accepted level set; "
        f"consistency violations: {violations[0].witness}"
    ))


def test_criterion_6_nary_uniqueness(standard_run):
    report = standard_run.reports["nary"]
    routes = by_check(report, "routes")
    ok = len(routes) == 500 and all(l.verdict == "pass" for l in routes)
    verdict(6, ok, (
        f"direct and parametric routes agree on {len(routes)} instances "
        f"(arity <= 3), with 10 alternative decompositions each"
    ))


def test_criterion_7_transfer(standard_run):
    report = standard_run.reports["transfer"]
    std = by_check(report, "standard-env")
    ok = len(std) == 200 and all(l.verdict == "pass" for l in std)
    verdict(7, ok, (
        f"{len(std)} random sentences with standard parameters evaluate "
        f"identically in base and hyper modes (exact)"
    ))


def test_criterion_8_fragment_construction(standard_run):
    report = standard_run.reports["keisler"]
    frag_line = by_check(report, "fragment")[0]
    law = by_check(report, "equivalence-filter-law")[0]
    tracking = by_check(report, "tracking")
    negatives = by_check(report, "tracking-negative")
    rate = by_check(report, "undecided-rate")[0]
    ok = (
        frag_line.verdict == "pass"
        and "5 points" in frag_line.witness and "10 functions" in frag_line.witness
        and "0..499" in frag_line.witness
        and law.verdict == "pass"
        and len(tracking) == 50 and all(l.verdict == "pass" for l in tracking)
        and negatives and all(l.verdict == "pass" for l in negatives)
        and rate.verdict == "pass"
    )
    verdict(8, ok, (
        f"{frag_line.witness}; equivalence inclusion law exhaustive; "
        f"tracking claims {len(tracking)}/50; negatives rejected "
        f"({len(negatives)}); undecided rate {rate.witness}"
    ))


def test_criterion_9_star_topology(standard_run):
    report = standard_run.reports["topology"]
    covers = by_check(report, "cover")
    noncovers = by_check(report, "non-cover")
    continuity = by_check(report, "continuity")
    ok = (
        len(covers) == 10 and all(l.verdict == "pass" for l in covers)
        and len(noncovers) == 10 and all(l.verdict == "pass" for l in noncovers)
        and len(continuity) == 200 and all(l.verdict == "pass" for l in continuity)
    )
    verdict(9, ok, (
        f"{len(covers)} engineered covers yes, {len(noncovers)} non-covers "
        f"no with least witness, continuity biconditional on "
        f"{len(continuity)} instances"
    ))


def test_criterion_10_determinism(tmp_path):
    assert main(["quick", "--out", str(tmp_path / "one")]) == 0
    assert main(["quick", "--out", str(tmp_path / "two")]) == 0
    fresh_equal = (
        (tmp_path / "one" / "report.txt").read_bytes()
        == (tmp_path / "two" / "report.txt").read_bytes()
    )
    assert main([
        "quick",
        "--replay", str(tmp_path / "one" / "decisions.log"),
        "--out", str(tmp_path / "replayed"),
    ]) == 0
    replay_equal = (
        (tmp_path / "one" / "report.txt").read_bytes()
        == (tmp_path / "replayed" / "report.txt").read_bytes()
        and (tmp_path / "one" / "decisions.log").read_bytes()
        == (tmp_path / "replayed" / "decisions.log").read_bytes()
    )
    verdict(10, fresh_equal and replay_equal, (
        "rerun and log-replayed run both reproduce the report and the "
        "decision log byte for byte"
    ))
