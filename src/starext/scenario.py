"""Scenario files: named definitions, points, fragment, formulas, suites.

Line-oriented sections, ``#`` comments allowed anywhere::

    [config]
    horizon = 10000
    seed = 42
    tiebreak = least          # or seeded:<n>
    scale = full              # or quick (smaller suite sizes)

    [functions]
    def parity = ifeq(x mod 2, 0, 1, 0)
    def2 add2 = p1(x) + p2(x)   # binary, usable in formulas

    [points]
    omega = x

    [fragment]
    functions = untag, tag1, tag2
    points = omega, pt1
    depth = 0
    sample = 0..499

    [formulas]
    x + 0 = x

    [closed]
    E1 = [(parity, std1), (parity, std0)]

    [suites]
    axioms, boolean, equalizer

``[functions]`` lines are parsed by :func:`starext.funlang.parse_definition`:
a ``def`` body may call earlier ``def`` functions, a ``def2`` body (over
the pair encoding of two arguments) may too, and every name, of either
kind, is a fresh identifier other than a keyword or ``x``. Formulas are
parsed by :func:`starext.transfer.parse_formula`; their terms are funlang
expressions with named variables. ``[suites]`` names come from
:data:`starext.suites.SUITE_RUNNERS`.

A function, point, closed-set or suite name, or a ``[config]`` or
``[fragment]`` key, given twice is an error at the line that repeats it.
A ``[suites]`` list with ``keisler`` is an error at that entry's line
unless ``[fragment]`` lists both functions and points.

The whole file is parsed and every name resolved before any oracle work
starts; errors carry the offending line number and, inside an expression
or a formula, the column in the file.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from .errors import ParseError
from .funlang import FnExpr, parse_definition, parse_fn
from .nary import NaryFn
from .oracle import OracleConfig, check_horizon, valid_tiebreak
from .suites import SUITE_RUNNERS
from .transfer import DEFAULT_REGISTRY, Formula, Registry, parse_formula


@dataclass
class FragmentSpec:
    functions: list[str] = field(default_factory=list)
    points: list[str] = field(default_factory=list)
    depth: int = 0
    sample_stop: int = 500

    def missing(self) -> str:
        """What the keisler suite needs and this section lacks, as
        ``"functions and points"``, or ``""``."""
        return " and ".join(key for key in ("functions", "points") if not getattr(self, key))


@dataclass
class Scenario:
    name: str
    horizon: int = 10_000
    #: the line that set ``horizon``, 0 when none did
    horizon_line: int = 0
    seed: int = 0
    tiebreak: str = "least"
    scale: str = "full"
    defs: dict[str, FnExpr] = field(default_factory=dict)
    binary_fns: dict[str, NaryFn] = field(default_factory=dict)
    points: dict[str, FnExpr] = field(default_factory=dict)
    fragment: FragmentSpec = field(default_factory=FragmentSpec)
    formulas: list[tuple[str, Formula]] = field(default_factory=list)
    closed_sets: dict[str, list[tuple[str, str]]] = field(default_factory=dict)
    suites: list[str] = field(default_factory=list)

    def oracle_config(self, horizon: int | None = None) -> OracleConfig:
        """The oracle's settings; ``horizon`` overrides the scenario's. A
        scenario horizon in effect that :func:`check_horizon` rejects is a
        :class:`ParseError` at its line."""
        if horizon is None:
            try:
                check_horizon(self.horizon)
            except ValueError as exc:
                raise ParseError(str(exc), self.horizon_line, 1) from None
        return OracleConfig(
            horizon=self.horizon if horizon is None else horizon,
            tiebreak=self.tiebreak,
        )

    def formula_registry(self) -> Registry:
        unary = {
            name: NaryFn(1, expr, name=name) for name, expr in self.defs.items()
        }
        merged = dict(unary)
        merged.update(self.binary_fns)
        return DEFAULT_REGISTRY.with_functions(merged)


def _strip(line: str) -> str:
    return line.split("#", 1)[0].strip()


def _parse_kv(line: str, lineno: int) -> tuple[str, str]:
    if "=" not in line:
        raise ParseError("expected 'key = value'", lineno, 1)
    key, _, value = line.partition("=")
    return key.strip(), value.strip()


#: the sections of ``key = value`` lines, and what their keys name in a
#: duplicate's error
_KEYED = {"config": "config key", "points": "point",
          "fragment": "fragment key", "closed": "closed set"}


def _int(value: str, lineno: int) -> int:
    try:
        return int(value)
    except ValueError:
        raise ParseError(f"expected an integer, found {value!r}", lineno, 1) from None


def parse_scenario(text: str, name: str = "<scenario>") -> Scenario:
    sc = Scenario(name=name)
    section = None
    sample_range = (0, 500)
    seen: set[tuple[str, str]] = set()
    keisler_line = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _strip(raw)
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip().lower()
            if section not in (
                "config", "functions", "points", "fragment",
                "formulas", "closed", "suites",
            ):
                raise ParseError(f"unknown section [{section}]", lineno, 1)
            continue
        if section is None:
            raise ParseError("content before any section header", lineno, 1)
        if section in _KEYED:
            key, value = _parse_kv(line, lineno)
            if (section, key) in seen:
                raise ParseError(f"duplicate {_KEYED[section]} {key!r}", lineno, 1)
            seen.add((section, key))

        if section == "config":
            if key == "horizon":
                sc.horizon = _int(value, lineno)
                sc.horizon_line = lineno
            elif key == "seed":
                sc.seed = _int(value, lineno)
            elif key == "tiebreak":
                if not valid_tiebreak(value):
                    raise ParseError(f"unknown tiebreak {value!r}", lineno, 1)
                sc.tiebreak = value
            elif key == "scale":
                if value not in ("full", "quick"):
                    raise ParseError(f"scale must be full or quick, got {value!r}", lineno, 1)
                sc.scale = value
            else:
                raise ParseError(f"unknown config key {key!r}", lineno, 1)

        elif section == "functions":
            keyword = "def2" if line.startswith("def2 ") else "def"
            fname, expr = parse_definition(raw, lineno, sc.defs, keyword)
            if fname in sc.binary_fns:
                raise ParseError(f"duplicate definition {fname!r}", lineno, 1)
            if keyword == "def2":
                sc.binary_fns[fname] = NaryFn(2, expr, name=fname)
            else:
                sc.defs[fname] = expr

        elif section == "points":
            head, _, body = raw.partition("=")
            sc.points[key] = parse_fn(body, sc.defs, lineno, len(head) + 2)

        elif section == "fragment":
            if key == "functions":
                names = [n.strip() for n in value.split(",") if n.strip()]
                for n in names:
                    if n not in sc.defs:
                        raise ParseError(f"fragment function {n!r} undefined", lineno, 1)
                sc.fragment.functions = names
            elif key == "points":
                names = [n.strip() for n in value.split(",") if n.strip()]
                for n in names:
                    if n not in sc.points:
                        raise ParseError(f"fragment point {n!r} undefined", lineno, 1)
                sc.fragment.points = names
            elif key == "depth":
                depth = _int(value, lineno)
                if depth < 0:
                    raise ParseError("depth must not be negative", lineno, 1)
                sc.fragment.depth = depth
            elif key == "sample":
                lo, _, hi = value.partition("..")
                if _int(lo, lineno) != 0:
                    raise ParseError("sample must start at 0", lineno, 1)
                stop = _int(hi, lineno) + 1
                if stop <= 0:
                    raise ParseError("sample must not be empty", lineno, 1)
                sample_range = (0, stop)
            else:
                raise ParseError(f"unknown fragment key {key!r}", lineno, 1)

        elif section == "formulas":
            phi = parse_formula(raw, sc.formula_registry(), lineno)
            sc.formulas.append((line, phi))

        elif section == "closed":
            if not (value.startswith("[") and value.endswith("]")):
                raise ParseError("closed set must be [(fn, point), ...]", lineno, 1)
            inner = value[1:-1].strip()
            pairs: list[tuple[str, str]] = []
            if inner:
                for chunk in inner.split("),"):
                    chunk = chunk.strip().lstrip("(").rstrip(")").strip()
                    parts = [p.strip() for p in chunk.split(",")]
                    if len(parts) != 2:
                        raise ParseError(f"bad pair {chunk!r}", lineno, 1)
                    fname, pname = parts
                    if fname not in sc.defs:
                        raise ParseError(f"closed-set function {fname!r} undefined", lineno, 1)
                    if pname not in sc.points:
                        raise ParseError(f"closed-set point {pname!r} undefined", lineno, 1)
                    pairs.append((fname, pname))
            sc.closed_sets[key] = pairs

        elif section == "suites":
            for n in line.split(","):
                n = n.strip()
                if not n:
                    continue
                if n not in SUITE_RUNNERS:
                    raise ParseError(f"unknown suite {n!r}", lineno, 1)
                if n in sc.suites:
                    raise ParseError(f"duplicate suite {n!r}", lineno, 1)
                sc.suites.append(n)
                if n == "keisler":
                    keisler_line = lineno

    missing = sc.fragment.missing()
    if keisler_line and missing:
        raise ParseError(f"suite 'keisler' needs [fragment] {missing}", keisler_line, 1)
    sc.fragment.sample_stop = sample_range[1]
    return sc


def load_scenario(path: str | Path) -> Scenario:
    path = Path(path)
    return parse_scenario(path.read_text(), name=path.name)


def bundled_scenario_path(name: str) -> Path:
    """Path of a scenario shipped with the package."""
    base = Path(__file__).parent / "scenarios"
    for candidate in (base / name, base / f"{name}.scn"):
        if candidate.exists():
            return candidate
    raise FileNotFoundError(f"no bundled scenario {name!r}")
