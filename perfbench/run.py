"""starext benchmark: time to verdict per workload, and a traced per-layer run.

Run from the root of a checkout that holds ``src/starext``::

    python3 perfbench/run.py --workload mask-h10k --seed 1 --seconds 50 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off: set-up
time in fresh processes, and the workload's scenario seeds run in turn
through ``starext.cli.main`` in this one process until ``--seconds`` have
gone by. ``--trace 1`` runs each seed once untraced and once traced,
reports per-layer call counts and self times, and replays one seed with
``--replay``, which must exit 0 with byte-identical outputs. Every run of
the program is checked against golden sha256 hashes of ``report.txt`` and
``decisions.log`` (``perfbench/golden.json``).

``--seed`` fixes the order of the workload's scenario seeds and which one
is replayed; the set of scenario seeds is fixed per workload (override
with ``--workload-seeds``), so the spread between runs measures the
machine rather than the inputs.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the metrics are
those ``BENCHMARK.json`` declares for the mode. A table of every metric
comes before it, and the full record, with the environment and the
scenario hash, is written under ``.bench_build/perfbench``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import itertools
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "perfbench"
GOLDEN = BENCH / "golden.json"

sys.path.insert(0, str(BENCH))

from tracer import Hook, Tracer  # noqa: E402
from workloads import WORKLOADS, Workload, write_scenario  # noqa: E402

#: fresh processes timed for ``setup_s``, after one unmeasured warm-up
#: that leaves the bytecode caches written
SETUP_REPEATS = 7
SETUP_TIMEOUT_S = 60

SUITES = ("axioms", "negative", "boolean", "equalizer", "finite",
          "nary", "transfer", "keisler", "topology")


class BenchError(Exception):
    """The benchmark cannot run here; nothing is measured."""


# ---------------------------------------------------------------------------
# the program under test

def import_cli():
    """Import ``starext.cli`` from this checkout's source tree, never elsewhere."""
    if not (SRC / "starext" / "cli.py").is_file():
        raise BenchError(f"no starext source under {SRC}; run from the root of a checkout")
    sys.path.insert(0, str(SRC))
    import starext
    import starext.cli

    if SRC.resolve() not in Path(starext.__file__).resolve().parents:
        raise BenchError(f"starext imported from {starext.__file__}, not from {SRC}")
    return starext.cli


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def parse_report(text: str) -> tuple[tuple[int, int, int], dict[str, int]]:
    """(pass, fail, undecidable) of the overall line, and checks per suite."""
    overall = None
    checks: dict[str, int] = {}
    suite = None
    for line in text.splitlines():
        if line.startswith("[") and line.endswith("]") and "\t" not in line:
            suite = line[1:-1]
        elif line.startswith("summary: checks=") and suite is not None:
            checks[suite] = int(line.split()[1].split("=")[1])
        elif line.startswith("overall: "):
            fields = dict(kv.split("=") for kv in line[len("overall: "):].split())
            overall = (int(fields["pass"]), int(fields["fail"]), int(fields["undecidable"]))
    if overall is None:
        raise ValueError("report has no overall line")
    return overall, checks


@dataclass
class RunRecord:
    seed: int
    wall_s: float
    rc: int | None
    matches_golden: bool
    checks: int
    failed_checks: int
    undecidable: int = 0
    suite_checks: dict[str, int] = field(default_factory=dict)
    log_bytes: int = 0
    log_entries: int = 0


class Runner:
    """Runs ``cli.main`` on the workload's scenario and checks each run."""

    def __init__(self, cli, scenario: Path, golden: dict, out_root: Path):
        self.cli = cli
        self.scenario = scenario
        self.golden = golden
        self.out_root = out_root
        self.records: list[RunRecord] = []
        self.attempted = 0
        self.failed = 0
        self.undecidable = 0

    def out_dir(self, seed: int, label: str = "run") -> Path:
        return self.out_root / f"{label}-seed{seed}"

    def run_once(self, seed: int, label: str = "run",
                 replay: Path | None = None) -> RunRecord:
        out = self.out_dir(seed, label)
        shutil.rmtree(out, ignore_errors=True)
        argv = [str(self.scenario), "--seed", str(seed), "--out", str(out)]
        if replay is not None:
            argv += ["--replay", str(replay)]
        sink = io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(sink):
                rc = self.cli.main(argv)
        except Exception:
            traceback.print_exc()
            rc = None
        wall = time.perf_counter() - t0
        return self._check(seed, wall, rc, out)

    def _check(self, seed: int, wall: float, rc: int | None, out: Path) -> RunRecord:
        """Check a run against its golden outputs and count its checks.

        A check fails when its verdict is ``fail``, or when its run's exit
        code or outputs differ from the golden ones. An ``undecidable``
        verdict is tolerated, as the CLI's own verdict tolerates it without
        ``--strict``; it is still pinned by the golden hashes and counted
        in ``undecidable``.
        """
        want = self.golden[str(seed)]
        report, log = out / "report.txt", out / "decisions.log"
        rec = RunRecord(seed, wall, rc, False, want["checks"], want["checks"])
        if rc is not None and report.is_file() and log.is_file():
            (p, f, u), rec.suite_checks = parse_report(report.read_text())
            rec.matches_golden = (
                rc == want["rc"]
                and sha256_file(report) == want["report_sha256"]
                and sha256_file(log) == want["log_sha256"]
            )
            if rec.matches_golden:
                rec.checks, rec.failed_checks, rec.undecidable = p + f + u, f, u
            rec.log_bytes = log.stat().st_size
            rec.log_entries = log.read_text().count("\n")
        self.records.append(rec)
        self.attempted += rec.checks
        self.failed += rec.failed_checks
        self.undecidable += rec.undecidable
        return rec

    def replay_ok(self, seed: int) -> bool:
        """Replay one seed against its own log: exit 0, identical bytes."""
        first = self.out_dir(seed)
        if not (first / "decisions.log").is_file():
            self.run_once(seed)
        rec = self.run_once(seed, "replay", replay=first / "decisions.log")
        again = self.out_dir(seed, "replay")
        return (
            rec.rc == 0
            and rec.matches_golden
            and all((first / n).read_bytes() == (again / n).read_bytes()
                    for n in ("report.txt", "decisions.log"))
        )


# ---------------------------------------------------------------------------
# environment

def environment() -> dict:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True,
            text=True, timeout=30, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = None
    src = hashlib.sha256()
    for path in sorted((SRC / "starext").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".scn"):
            src.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "git_commit": commit,
        "source_sha256": src.hexdigest(),
    }


# ---------------------------------------------------------------------------
# end-to-end run

class SetupProbe:
    """``setup_s`` samples: each a fresh interpreter importing and loading."""

    def __init__(self, scenario: Path):
        self.cmd = [sys.executable, str(BENCH / "setup_probe.py"), str(SRC), str(scenario)]
        self.samples: list[float] = []
        self.sample()  # warm-up: writes the bytecode caches
        self.samples.clear()

    def sample(self) -> None:
        done = subprocess.run(self.cmd, capture_output=True, text=True,
                              timeout=SETUP_TIMEOUT_S, cwd=ROOT)
        if done.returncode != 0:
            raise BenchError(f"set-up probe failed: {done.stderr.strip()}")
        self.samples.append(float(done.stdout.strip().splitlines()[-1]))


def timed(runner: Runner, order: list[int], seconds: float, scenario: Path) -> dict:
    """End-to-end metrics with tracing off.

    The seeds run in turn, round and round, while the next run, predicted
    from that seed's last time, still ends within ``seconds``; every seed
    runs at least once. ``run_s`` is one pass over the seeds: the sum of
    each seed's median time. Set-up probes run between the seed runs, so
    that their median spans the same stretch of machine time.
    """
    setup = SetupProbe(scenario)
    per_seed: dict[int, list[float]] = {s: [] for s in order}
    begin = time.perf_counter()
    for i in itertools.count():
        seed = order[i % len(order)]
        times = per_seed[seed]
        if i >= len(order) and time.perf_counter() - begin + times[-1] > seconds:
            break
        if len(setup.samples) < SETUP_REPEATS:
            setup.sample()
        times.append(runner.run_once(seed).wall_s)
    measured = time.perf_counter() - begin
    while len(setup.samples) < SETUP_REPEATS:
        setup.sample()
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {
        "run_s": (sum(statistics.median(v) for v in per_seed.values()), "s"),
        "setup_s": (statistics.median(setup.samples), "s"),
        "peak_rss_mb": (peak_mb, "MB"),
        "runs": (sum(len(v) for v in per_seed.values()), "count"),
        "measured_s": (measured, "s"),
    }


# ---------------------------------------------------------------------------
# traced run

class LayerProbe:
    """Hooks that classify oracle queries and size mask builds."""

    def __init__(self, tracer: Tracer, oracle_mod, errors_mod):
        self.tracer = tracer
        self.decided = oracle_mod.OracleState.decided  # the unwrapped original
        self.undecidable = errors_mod.Undecidable
        self.repeat: set[int] = set()
        self.constant: set[int] = set()
        #: query span -> the Undecidable's detail text
        self.undecided: dict[int, str] = {}
        self.mask_indices = 0

    def hooks(self) -> dict[str, Hook]:
        def query_before(idx, args, kwargs):
            state, pred = args[0], args[1] if len(args) > 1 else kwargs["pred"]
            if self.decided(state, pred) is not None:
                self.repeat.add(idx)

        def query_error(idx, exc):
            if isinstance(exc, self.undecidable):
                self.undecided[idx] = exc.detail

        def constant_after(idx, result):
            if result is not None:
                parent = self.tracer.parent[idx]
                if parent >= 0:
                    self.constant.add(parent)

        def mask_before(idx, args, kwargs):
            horizon = args[1] if len(args) > 1 else kwargs["horizon"]
            self.mask_indices += horizon + 1

        return {
            "oracle.OracleState.query": Hook(before=query_before, on_error=query_error),
            "funlang.IndexPredicate.constant_value": Hook(after=constant_after),
            "funlang.IndexPredicate.mask": Hook(before=mask_before),
        }


def traced(runner: Runner, order: list[int]) -> dict:
    import starext.errors
    import starext.oracle

    tracer = Tracer()
    probe = LayerProbe(tracer, starext.oracle, starext.errors)
    hooks = probe.hooks()
    bounds: list[tuple[int, int]] = []
    records: list[RunRecord] = []
    untraced_s = 0.0
    # untraced and traced runs of each seed alternate, so that both sides
    # of trace.overhead_s see the same machine conditions
    for seed in order:
        untraced_s += runner.run_once(seed).wall_s
        first = tracer.span_count()
        tracer.install(hooks)
        try:
            records.append(runner.run_once(seed, "traced"))
        finally:
            tracer.uninstall()
        bounds.append((first, tracer.span_count()))
    traced_s = sum(r.wall_s for r in records)
    sm = tracer.summary()
    np.savez(runner.out_root.parent / "spans.npz", names=np.array(sm.names), name=sm.span_names,
             parent=sm.span_parents, start=np.frombuffer(tracer.start),
             end=np.frombuffer(tracer.end))

    m: dict[str, tuple[float, str]] = {}

    def fn(metric: str, span: str, calls=True, self_s=True):
        if calls:
            m[f"{metric}.calls"] = (sm.calls_of(span), "count")
        if self_s:
            m[f"{metric}.self_s"] = (sm.self_of(span), "s")

    # funlang: per-index evaluation, canonicalisation, compile
    fn("funlang.mask", "funlang.IndexPredicate.mask")
    m["funlang.mask.indices"] = (probe.mask_indices, "count")
    mask_self = sm.self_of("funlang.IndexPredicate.mask")
    m["funlang.mask.ns_per_index"] = (
        mask_self / probe.mask_indices * 1e9 if probe.mask_indices else 0.0, "ns")
    fn("hyper.values", "hyper.Hyperpoint.values")
    fn("funlang.normalize", "funlang.normalize")
    fn("funlang.pretty", "funlang.pretty")
    fn("funlang.compile_fn", "funlang.compile_fn")
    fn("funlang.parse_fn", "funlang.parse_fn")
    fn("hyper.point", "hyper.Universe.point")

    # oracle
    query = "oracle.OracleState.query"
    fn("oracle.query", query)
    q_idx = sm.spans_named(query)
    built = sm.spans_with_parent("funlang.IndexPredicate.mask", query)
    build_parents = set(sm.span_parents[built].tolist())
    cached = [
        i for i in q_idx.tolist()
        if i not in probe.repeat and i not in probe.constant
        and i not in build_parents and i not in probe.undecided
    ]
    limit = sys.modules["starext.oracle"].MASK_CACHE_LIMIT
    evictions = sum(
        max(0, int(((built >= lo) & (built < hi)).sum()) - limit) for lo, hi in bounds
    )
    hits, builds = len(cached), len(built)
    m["oracle.decisions"] = (sum(r.log_entries for r in records), "count")
    m["oracle.repeat_hits"] = (len(probe.repeat), "count")
    m["oracle.constant_decisions"] = (len(probe.constant), "count")
    m["oracle.mask_builds"] = (builds, "count")
    m["oracle.mask_cache_hit_ratio"] = (hits / (hits + builds) if hits + builds else 0.0, "ratio")
    m["oracle.mask_evictions"] = (evictions, "count")
    m["oracle.query.cached.calls"] = (hits, "count")
    m["oracle.query.cached.self_s"] = (float(sm.span_self[cached].sum()) if cached else 0.0, "s")
    reasons = list(probe.undecided.values())
    m["oracle.undecidable.window_exhausted"] = (
        sum(r.startswith("window exhausted") for r in reasons), "count")
    m["oracle.undecidable.no_side_persists"] = (
        sum(r.startswith("no side persists") for r in reasons), "count")

    # fragments and the other modules
    fn("fragments.build_fragment", "fragments.build_fragment", calls=False)
    fn("fragments.build_check_set", "fragments.build_check_set", calls=False)
    fn("fragments.witness_table", "fragments.witness_table")
    fn("fragments.check_star_tracking", "fragments.check_star_tracking", calls=False)
    fn("nary.star_nary_parametric", "nary.star_nary_parametric", calls=False)
    fn("transfer.truth_predicate", "transfer.truth_predicate", calls=False)
    fn("transfer.eval_base", "transfer.eval_base", calls=False)
    fn("topology.closed_member", "topology.closed_member", self_s=False)

    # suites, scenario and cli
    for name in SUITES:
        m[f"suites.{name}.wall_s"] = (sm.total_of(f"suites.run_{name}"), "s")
        m[f"suites.{name}.checks"] = (sum(r.suite_checks.get(name, 0) for r in records), "count")
    m["scenario.load_s"] = (sm.total_of("scenario.load_scenario"), "s")
    m["cli.write_s"] = (sm.total_of("cli.render_report") + sm.total_of("oracle.DecisionLog.write"), "s")
    m["cli.log_bytes"] = (sum(r.log_bytes for r in records), "bytes")

    # per layer: every span name of the module
    for layer, (calls, self_s) in sm.layer_totals().items():
        m[f"{layer}.calls"] = (calls, "count")
        m[f"{layer}.self_s"] = (self_s, "s")

    # the trace itself
    m["trace.untraced_run_s"] = (untraced_s, "s")
    m["trace.traced_run_s"] = (traced_s, "s")
    m["trace.overhead_s"] = (traced_s - untraced_s, "s")
    m["trace.unattributed_s"] = (traced_s - sm.top_level_s, "s")
    m["trace.spans"] = (tracer.span_count(), "count")
    m["trace.outputs_match"] = (sum(r.matches_golden for r in records) / len(records), "ratio")
    return m


# ---------------------------------------------------------------------------

def load_golden(w: Workload, scenario_sha: str) -> dict:
    if not GOLDEN.is_file():
        raise BenchError(f"missing {GOLDEN}; make it with perfbench/golden.py")
    entry = json.loads(GOLDEN.read_text()).get(w.name)
    if entry is None:
        raise BenchError(f"no golden outputs for workload {w.name}")
    if entry["scenario_sha256"] != scenario_sha:
        raise BenchError(f"golden outputs of {w.name} were made for another scenario")
    return entry["seeds"]


def declared(mode: str) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[mode]}


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True,
                    help="orders the workload's scenario seeds and picks the replayed one")
    ap.add_argument("--seconds", type=float, required=True,
                    help="seed runs repeat while the next one is due to end within this time")
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--workload-seeds", default=None,
                    help="comma-separated scenario seeds (default: the workload's own)")
    return ap.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    w = WORKLOADS[args.workload]
    try:
        cli = import_cli()
        work = WORK / w.name
        work.mkdir(parents=True, exist_ok=True)
        scenario, scenario_sha = write_scenario(w, work)
        golden = load_golden(w, scenario_sha)
        seeds = ([int(s) for s in args.workload_seeds.split(",")]
                 if args.workload_seeds else list(w.seeds))
        unknown = [s for s in seeds if str(s) not in golden]
        if unknown:
            raise BenchError(f"no golden outputs for scenario seeds {unknown}")
        wanted = declared("per_layer" if args.trace else "end_to_end")
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    order = list(seeds)
    random.Random(args.seed).shuffle(order)
    runner = Runner(cli, scenario, golden, work / "out")
    if args.trace:
        metrics = traced(runner, order)
        replay_ok = runner.replay_ok(order[0])
        metrics["replay_ok"] = (int(replay_ok), "bool")
    else:
        try:
            metrics = timed(runner, order, args.seconds, scenario)
        except BenchError as exc:
            print(f"perfbench: {exc}", file=sys.stderr)
            return 2
        replay_ok = True

    runs = runner.records
    outputs_match = sum(r.matches_golden for r in runs) / len(runs)
    metrics["outputs_match"] = (outputs_match, "ratio")
    metrics["failed_ratio"] = (runner.failed / runner.attempted if runner.attempted else 1.0, "ratio")
    metrics["undecidable_ratio"] = (
        runner.undecidable / runner.attempted if runner.attempted else 0.0, "ratio")
    correct = outputs_match == 1 and replay_ok

    missing = [n for n in wanted if n not in metrics]
    wrong_unit = [n for n, u in wanted.items() if n in metrics and metrics[n][1] != u]
    if missing or wrong_unit:
        print(f"perfbench: metrics missing {missing}, units differ {wrong_unit}", file=sys.stderr)
        return 2

    record = {
        "workload": w.name,
        "why": w.why,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "scenario_seeds": order,
        "scenario_sha256": scenario_sha,
        "environment": environment(),
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "undecidable": runner.undecidable,
        "runs": [vars(r) for r in runs],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    out = results / f"{w.name}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")

    print(f"# workload {w.name}: scenario seeds {order}, scenario sha256 {scenario_sha[:16]}")
    print(f"# environment {json.dumps(record['environment'])}")
    for name in sorted(metrics):
        value, unit = metrics[name]
        mark = "*" if name in wanted else " "
        print(f"{mark} {name:42s} {value!r:>24} {unit}")
    print(f"# correct={correct} attempted={runner.attempted} failed={runner.failed} "
          f"undecidable={runner.undecidable}; "
          f"* = reported below; full record in {out.relative_to(ROOT)}")
    print(json.dumps({
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {n: {"value": metrics[n][0], "unit": u} for n, u in wanted.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
