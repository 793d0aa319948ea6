"""Batch driver: run scenario suites, write a report and a decision log.

Exit codes: 0 all checks passed (undecidable tolerated unless --strict),
1 suite failures, 2 parse or configuration errors (a repeated --suite, a
horizon of 2**62 or more, the keisler suite on a scenario whose
[fragment] lacks functions or points, and an --out directory or report
that cannot be written included), 3 broken filter consistency or replay
divergence (a decision that differs from the replayed log or that the
log lacks, where the run stops, or a logged entry left over at the
end), 4 an internal error while the suites run, reported as one line on
stderr.

The decision log is written to a temporary file in the output directory
while the suites run, one line per decision. A run that ends with exit
0 or 1 writes the report, then renames that file onto decisions.log. A
run that ends otherwise removes it and the output directories it made,
and leaves an existing report and log as they were.

The report and the log depend only on the scenario and the flags, never
on wall-clock or filesystem specifics, so a rerun (or a rerun under
--replay against the previous log) is byte-identical.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
from pathlib import Path

from .errors import ConsistencyViolation, ParseError, ReplayMismatch
from .hyper import Universe
from .oracle import DecisionLog, OracleState
from .scenario import Scenario, bundled_scenario_path, load_scenario
from .suites import SUITE_RUNNERS, SuiteContext, SuiteReport, run_suites

REPORT_NAME = "report.txt"
LOG_NAME = "decisions.log"


def tally(reports: list[SuiteReport], strict: bool) -> tuple[str, bool]:
    """The run's counts, ``pass=... fail=... undecidable=...``, and its
    verdict: no fail line, and under ``strict`` no undecidable line."""
    fails = sum(r.failures for r in reports)
    undec = sum(r.undecided for r in reports)
    counts = f"pass={sum(r.passes for r in reports)} fail={fails} undecidable={undec}"
    return counts, fails == 0 and (not strict or undec == 0)


def render_report(scenario: Scenario, horizon: int, strict: bool,
                  reports: list[SuiteReport], counts: str, ok: bool) -> str:
    head = [
        "# starext suite report",
        f"scenario: {scenario.name}",
        f"horizon: {horizon}",
        f"seed: {scenario.seed}",
        f"tiebreak: {scenario.tiebreak}",
        f"strict: {str(strict).lower()}",
        "",
    ]
    body = [r.render() for r in reports]
    tail = f"overall: {counts} verdict={'ok' if ok else 'failed'}"
    return "\n".join(head) + "\n".join(body) + tail + "\n"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="starext",
        description="Run verification suites over a scenario file.",
    )
    parser.add_argument("scenario", help="scenario file, or the name of a bundled one")
    parser.add_argument("--suite", action="append", default=None,
                        help="suite to run (repeatable); default: the scenario's list")
    parser.add_argument("--horizon", type=int, default=None,
                        help="override the oracle horizon")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the scenario seed")
    parser.add_argument("--strict", action="store_true",
                        help="undecidable verdicts fail the run")
    parser.add_argument("--replay", metavar="LOG", default=None,
                        help="verify decisions against a previous decision log")
    parser.add_argument("--out", metavar="DIR", default="starext-out",
                        help="output directory (default: starext-out)")
    args = parser.parse_args(argv)

    try:
        path = Path(args.scenario)
        if not path.exists():
            path = bundled_scenario_path(args.scenario)
        scenario = load_scenario(path)
    except (ParseError, FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.seed is not None:
        scenario.seed = args.seed
    for i, name in enumerate(args.suite or ()):
        if name in args.suite[:i]:
            print(f"error: --suite {name} given twice", file=sys.stderr)
            return 2
    suites = args.suite if args.suite else scenario.suites
    if not suites:
        print("error: no suites selected", file=sys.stderr)
        return 2
    unknown = [s for s in suites if s not in SUITE_RUNNERS]
    if unknown:
        print(f"error: unknown suites {unknown}", file=sys.stderr)
        return 2
    missing = scenario.fragment.missing()
    if "keisler" in suites and missing:
        print(f"error: --suite keisler needs [fragment] {missing} in {scenario.name}",
              file=sys.stderr)
        return 2

    replay_log = None
    if args.replay:
        try:
            replay_log = DecisionLog.read(args.replay)
        except (OSError, ValueError) as exc:
            print(f"error: cannot read replay log: {exc}", file=sys.stderr)
            return 2

    try:
        config = scenario.oracle_config(horizon=args.horizon)
    except ValueError as exc:
        flag = "" if args.horizon is None else f"--horizon {args.horizon}: "
        print(f"error: {flag}{exc}", file=sys.stderr)
        return 2

    out_dir = Path(args.out)
    made: list[Path] = []  # the directories this run made, outermost first
    staged = out_dir / f".{LOG_NAME}.{os.getpid()}"
    kept = False
    try:
        try:
            for d in (*reversed(out_dir.parents), out_dir):
                if not d.is_dir():
                    d.mkdir()
                    made.append(d)
            sink = open(staged, "w")
        except OSError as exc:
            print(f"error: --out {args.out}: {exc}", file=sys.stderr)
            return 2
        with sink:
            try:
                oracle = OracleState(config, log=DecisionLog(sink, replay=replay_log))
                reports = run_suites(SuiteContext(scenario, Universe(oracle)), suites)
                oracle.check_consistency()
                oracle.log.check_replay_complete()
            except ReplayMismatch as exc:
                print(f"replay mismatch: {exc}", file=sys.stderr)
                return 3
            except ConsistencyViolation as exc:
                print(f"consistency violation: {exc}", file=sys.stderr)
                return 3
            except Exception as exc:
                # a fault of the verifier itself, never a verdict on the scenario
                print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
                return 4
        counts, ok = tally(reports, args.strict)
        report_text = render_report(scenario, config.horizon, args.strict, reports,
                                    counts, ok)
        try:
            (out_dir / REPORT_NAME).write_text(report_text)
            staged.replace(out_dir / LOG_NAME)
        except OSError as exc:
            print(f"error: --out {args.out}: {exc}", file=sys.stderr)
            return 2
        kept = True
    finally:
        if not kept:
            # a run without a verdict leaves no log and no directory of
            # its own; a directory something else wrote into stays
            with contextlib.suppress(OSError):
                staged.unlink()
            for d in reversed(made):
                with contextlib.suppress(OSError):
                    d.rmdir()

    print(f"{scenario.name}: {counts}")
    print(f"report: {out_dir / REPORT_NAME}")
    print(f"decision log: {out_dir / LOG_NAME} ({len(oracle.log)} entries)")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
