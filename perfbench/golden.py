"""Write ``perfbench/golden.json``: the expected outputs of every workload seed.

Run from the root of a checkout::

    python3 perfbench/golden.py [--workload NAME ...] [--seeds 1,2,3]

Each (workload, scenario seed) is run once through the ``starext`` CLI in
a fresh process, the way a user runs it. The file records the sha256 of
``report.txt`` and ``decisions.log``, the exit code and the check counts,
with the scenario's sha256 and the source tree they were made from. The
benchmark refuses a workload whose generated scenario no longer matches.
Regenerate only when a change is meant to alter outputs.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from run import GOLDEN, ROOT, SRC, WORK, environment, parse_report, sha256_file  # noqa: E402
from workloads import WORKLOADS, write_scenario  # noqa: E402


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    ap.add_argument("--seeds", default=None,
                    help="comma-separated scenario seeds (default: each workload's own)")
    args = ap.parse_args(argv)

    golden = json.loads(GOLDEN.read_text()) if GOLDEN.is_file() else {}
    env = dict(os.environ, PYTHONPATH=str(SRC))
    for name in args.workload or sorted(WORKLOADS):
        w = WORKLOADS[name]
        work = WORK / "golden" / name
        scenario, sha = write_scenario(w, work)
        entry = golden.get(name)
        if entry is None or entry["scenario_sha256"] != sha:
            entry = golden[name] = {"scenario_sha256": sha, "seeds": {}}
        seeds = [int(s) for s in args.seeds.split(",")] if args.seeds else w.seeds
        for seed in seeds:
            out = work / f"seed{seed}"
            done = subprocess.run(
                [sys.executable, "-m", "starext.cli", str(scenario),
                 "--seed", str(seed), "--out", str(out)],
                env=env, cwd=ROOT, capture_output=True, text=True, timeout=600,
            )
            report = out / "report.txt"
            (p, f, u), _ = parse_report(report.read_text())
            entry["seeds"][str(seed)] = {
                "rc": done.returncode,
                "report_sha256": sha256_file(report),
                "log_sha256": sha256_file(out / "decisions.log"),
                "checks": p + f + u,
                "fail": f,
                "undecidable": u,
            }
            print(f"{name} seed {seed}: rc={done.returncode} pass={p} fail={f} undecidable={u}",
                  flush=True)
    golden["_made_with"] = environment()
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
