"""The benchmark's workloads, each generated from the benchmark's own template.

The template is a copy of the bundled ``standard`` scenario kept under
``perfbench/templates``, so an edit to the package's bundled scenarios
cannot change a workload. A workload overrides some ``[config]`` and
``[fragment]`` keys and the ``[suites]`` list; the program then receives
only the generated ``.scn`` file and ``--seed``.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from pathlib import Path

TEMPLATE = Path(__file__).resolve().parent / "templates" / "standard.scn"


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: scenario seeds run by one pass; each has golden output hashes
    seeds: tuple[int, ...]
    #: section -> key -> value overrides of the template
    overrides: dict[str, dict[str, str]] = field(default_factory=dict)
    #: replaces the template's [suites] list when given
    suites: tuple[str, ...] | None = None


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="mask-h10k",
            why="horizon 10^4, quick scale, all nine suites: per-index evaluation "
                "(IndexPredicate.mask, Hyperpoint.values) dominates and the mask "
                "cache never evicts",
            seeds=(1, 2, 3, 4, 5),
            overrides={"config": {"horizon": "10000", "scale": "quick"}},
        ),
        Workload(
            name="canon-h256",
            why="horizon 256, full scale, all nine suites: per-index work is small, "
                "normalize/pretty/compile_fn and oracle overhead dominate and the "
                "mask cache fills and evicts",
            seeds=(1, 2),
            overrides={"config": {"horizon": "256", "scale": "full"}},
        ),
        Workload(
            name="fragment-s5k",
            why="keisler suite only, sample 0..4999, horizon 10^4: the fragment "
                "layer (witness tables) dominates and the oracle is nearly idle",
            seeds=(1, 2, 3, 4, 5),
            overrides={"config": {"horizon": "10000"},
                       "fragment": {"sample": "0..4999", "depth": "0"}},
            suites=("keisler",),
        ),
    )
}


def scenario_text(w: Workload) -> str:
    """The template with the workload's overrides applied."""
    out: list[str] = []
    section = None
    applied: set[str] = set()
    for line in TEMPLATE.read_text().splitlines():
        stripped = line.split("#", 1)[0].strip()
        if stripped.startswith("[") and stripped.endswith("]"):
            section = stripped[1:-1].strip().lower()
        elif section == "suites" and w.suites is not None and stripped:
            if "suites" in applied:
                continue
            line = ", ".join(w.suites)
            applied.add("suites")
        elif "=" in stripped:
            key = stripped.partition("=")[0].strip()
            value = w.overrides.get(section, {}).get(key)
            if value is not None:
                line = f"{key} = {value}"
                applied.add(f"{section}.{key}")
        out.append(line)
    wanted = {f"{sec}.{key}" for sec, kv in w.overrides.items() for key in kv}
    if w.suites is not None:
        wanted.add("suites")
    if wanted - applied:
        raise ValueError(f"template lacks {sorted(wanted - applied)} for workload {w.name}")
    return "\n".join(out) + "\n"


def write_scenario(w: Workload, directory: Path) -> tuple[Path, str]:
    """Write the workload's scenario; return its path and sha256."""
    text = scenario_text(w)
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"{w.name}.scn"
    path.write_text(text)
    return path, hashlib.sha256(text.encode()).hexdigest()
