import hashlib
import random
import re
import subprocess
import sys

import pytest

from starext.cli import LOG_NAME, REPORT_NAME, main
from starext.errors import ConsistencyViolation, ParseError
from starext.funlang import INT64_SAFE, interpret
from starext.oracle import OracleConfig, OracleState
from starext.scenario import bundled_scenario_path, load_scenario, parse_scenario
from starext.suites import SUITE_RUNNERS

MINI = """
[config]
horizon = 500
seed = 3
scale = quick

[functions]
def id = x
def parity = x mod 2
def2 add2 = p1(x) + p2(x)

[points]
omega = x
std0 = 0

[fragment]
functions = id, parity
points = omega
depth = 0
sample = 0..49

[formulas]
v + 0 = v

[closed]
E1 = [(parity, std0)]

[suites]
boolean, transfer
"""


def test_parse_minimal_scenario():
    sc = parse_scenario(MINI, name="mini")
    assert sc.horizon == 500
    assert sc.seed == 3
    assert list(sc.defs) == ["id", "parity"]
    assert interpret(sc.points["omega"], 5) == 5
    assert sc.binary_fns["add2"].apply(3, 4) == 7
    assert sc.fragment.functions == ["id", "parity"]
    assert sc.fragment.sample_stop == 50
    assert sc.closed_sets == {"E1": [("parity", "std0")]}
    assert sc.suites == ["boolean", "transfer"]
    assert len(sc.formulas) == 1


@pytest.mark.parametrize("mutation, fragment", [
    ("[bogus]", "unknown section"),
    ("[config]\nmystery = 3", "unknown config key"),
    ("[functions]\nparity = x", "expected 'def"),
    ("[points]\np = q(x)", "unknown name"),
    ("[points]\np = q(x)", "6:5: unknown name 'q'"),
    ("[formulas]\nv = w $", "6:7: unexpected character '$'"),
    ("[fragment]\nfunctions = nope", "undefined"),
    ("[suites]\nwarp", "unknown suite"),
    ("[closed]\nE = [(missing, std0)]", "undefined"),
    ("[functions]\ndef x = x + 1", "bad definition name 'x'"),
    ("[functions]\ndef p1 = x", "bad definition name 'p1'"),
    ("[functions]\ndef mod = x", "bad definition name 'mod'"),
    ("[functions]\ndef ifeq = x + 2", "bad definition name 'ifeq'"),
    ("[functions]\ndef2 g = p1(x)\ndef2 g = p2(x)", "7:1: duplicate definition 'g'"),
    ("[functions]\ndef2 f = p1(x)", "duplicate definition 'f'"),
    ("[config]\nhorizon = abc", "6:1: expected an integer"),
    ("[config]\nseed = q", "6:1: expected an integer"),
    ("[config]\ntiebreak = coin", "6:1: unknown tiebreak 'coin'"),
    ("[config]\ntiebreak = seeded:x", "6:1: unknown tiebreak 'seeded:x'"),
    ("[fragment]\ndepth = x", "6:1: expected an integer"),
    ("[fragment]\ndepth = -1", "6:1: depth must not be negative"),
    ("[fragment]\nsample = 0..", "6:1: expected an integer"),
    ("[fragment]\nsample = 0..-1", "6:1: sample must not be empty"),
    ("[points]\nomega = x\nomega = x + 1", "7:1: duplicate point 'omega'"),
    ("[points]\nstd0 = 1", "6:1: duplicate point 'std0'"),
    ("[config]\nseed = 1\nseed = 2", "7:1: duplicate config key 'seed'"),
    ("[config]\nhorizon = 500\n[suites]\naxioms\n[config]\nhorizon = 600",
     "10:1: duplicate config key 'horizon'"),
    ("[fragment]\ndepth = 0\ndepth = 1", "7:1: duplicate fragment key 'depth'"),
    ("[closed]\nE = []\nE = [(f, std0)]", "7:1: duplicate closed set 'E'"),
    ("[suites]\nfinite, axioms, finite", "6:1: duplicate suite 'finite'"),
    ("[suites]\naxioms\nfinite, axioms", "7:1: duplicate suite 'axioms'"),
    ("[suites]\nfinite, keisler", "6:1: suite 'keisler' needs [fragment] functions and points"),
    ("[fragment]\npoints = std0\n[suites]\nkeisler",
     "8:1: suite 'keisler' needs [fragment] functions"),
    ("[suites]\nkeisler\n[fragment]\nfunctions = f",
     "6:1: suite 'keisler' needs [fragment] points"),
])
def test_scenario_parse_errors(mutation, fragment):
    base = "[functions]\ndef f = x\n[points]\nstd0 = 0\n"
    with pytest.raises(ParseError) as err:
        parse_scenario(base + mutation)
    assert fragment in str(err.value)


def test_bundled_scenarios_parse():
    for name in ("standard", "quick", "broken_diag", "broken_comp", "redundant"):
        sc = load_scenario(bundled_scenario_path(name))
        assert sc.suites


def test_standard_scenario_shape():
    sc = load_scenario(bundled_scenario_path("standard"))
    assert sc.horizon == 10_000
    assert len(sc.fragment.points) >= 5
    assert len(sc.fragment.functions) >= 10
    assert sc.fragment.sample_stop == 500
    assert sc.scale == "full"


# -- CLI ------------------------------------------------------------------------

def run_cli(*args) -> tuple[int, str]:
    proc = subprocess.run(
        [sys.executable, "-m", "starext.cli", *args],
        capture_output=True, text=True,
    )
    return proc.returncode, proc.stdout + proc.stderr


def test_cli_quick_run_green(tmp_path):
    code = main(["quick", "--out", str(tmp_path / "a")])
    assert code == 0
    report = (tmp_path / "a" / "report.txt").read_text()
    assert "verdict=ok" in report
    assert (tmp_path / "a" / "decisions.log").exists()


#: sha256 of the bundled ``standard`` scenario's report and decision log
STANDARD_GOLDEN = {
    "report.txt": "3552cf31ea104fc812b5429fd821a89a6633370c071fb7fd4886757fae221354",
    "decisions.log": "90ac9958b0e1fe145b6e0e4227635eb685bb3e80fccca3585f479279bd2bdc50",
}


def test_cli_standard_scenario_green(standard_run):
    # the bundled full-size scenario: every suite, zero failures
    assert standard_run.code == 0
    for name, digest in STANDARD_GOLDEN.items():
        assert hashlib.sha256((standard_run.out / name).read_bytes()).hexdigest() == digest
    report = (standard_run.out / "report.txt").read_text()
    assert "verdict=ok" in report
    assert " fail=0 " in report.splitlines()[-1] or "fail=0" in report
    for section in ("[axioms]", "[negative]", "[boolean]", "[equalizer]",
                    "[finite]", "[nary]", "[transfer]", "[keisler]",
                    "[topology]"):
        assert section in report


def test_cli_negative_scenarios_exit_one(tmp_path):
    code = main(["broken_diag", "--out", str(tmp_path / "d")])
    assert code == 1
    report = (tmp_path / "d" / "report.txt").read_text()
    assert "diag\t0000\tfail" in report
    assert "succ" in report  # the witness names the functions involved

    code = main(["broken_comp", "--out", str(tmp_path / "c")])
    assert code == 1
    assert "comp\t0000\tfail" in (tmp_path / "c" / "report.txt").read_text()

    code = main(["redundant", "--out", str(tmp_path / "r")])
    assert code == 1
    assert "unreached point" in (tmp_path / "r" / "report.txt").read_text()


def test_cli_parse_error_exit_two(tmp_path):
    bad = tmp_path / "bad.scn"
    bad.write_text("[config]\nhorizon = pony\n")
    code, out = run_cli(str(bad), "--out", str(tmp_path / "o"))
    assert code == 2


def test_cli_missing_scenario_exit_two(tmp_path):
    code, out = run_cli("no-such-scenario", "--out", str(tmp_path / "o"))
    assert code == 2


def test_cli_unknown_suite_exit_two(tmp_path):
    code, out = run_cli("quick", "--suite", "warp", "--out", str(tmp_path / "o"))
    assert code == 2


def test_cli_repeated_suite_exit_two(tmp_path, capsys):
    out = tmp_path / "o"
    code = main(["quick", "--suite", "keisler", "--suite", "finite", "--suite", "keisler",
                 "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err == "error: --suite keisler given twice\n"
    assert not out.exists()


def test_cli_keisler_without_fragment_exit_two(tmp_path, capsys):
    out = tmp_path / "o"
    assert main(["broken_comp", "--suite", "keisler", "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "error: --suite keisler needs [fragment] functions and points in broken_comp.scn\n")
    assert not out.exists()
    # a [fragment] with points and no functions, selected in the file
    text = MINI.replace("functions = id, parity\n", "").replace(
        "boolean, transfer", "boolean, keisler")
    scn = tmp_path / "points-only.scn"
    scn.write_text(text)
    assert main([str(scn), "--out", str(out)]) == 2
    line = text.splitlines().index("boolean, keisler") + 1
    assert capsys.readouterr().err == (
        f"error: {line}:1: suite 'keisler' needs [fragment] functions\n")
    assert not out.exists()


def test_cli_suite_selection(tmp_path):
    code = main(["quick", "--suite", "finite", "--out", str(tmp_path / "s")])
    assert code == 0
    report = (tmp_path / "s" / "report.txt").read_text()
    assert "[finite]" in report
    assert "[axioms]" not in report


def test_cli_run_is_deterministic(tmp_path):
    assert main(["quick", "--out", str(tmp_path / "r1")]) == 0
    assert main(["quick", "--out", str(tmp_path / "r2")]) == 0
    r1 = (tmp_path / "r1" / "report.txt").read_bytes()
    r2 = (tmp_path / "r2" / "report.txt").read_bytes()
    assert r1 == r2
    l1 = (tmp_path / "r1" / "decisions.log").read_bytes()
    l2 = (tmp_path / "r2" / "decisions.log").read_bytes()
    assert l1 == l2


def test_cli_replay_reproduces_run(tmp_path):
    assert main(["quick", "--out", str(tmp_path / "first")]) == 0
    assert main([
        "quick", "--replay", str(tmp_path / "first" / "decisions.log"),
        "--out", str(tmp_path / "second"),
    ]) == 0
    assert (tmp_path / "first" / "report.txt").read_bytes() == \
        (tmp_path / "second" / "report.txt").read_bytes()
    assert (tmp_path / "first" / "decisions.log").read_bytes() == \
        (tmp_path / "second" / "decisions.log").read_bytes()


def test_cli_replay_mismatch_exit_three(tmp_path):
    assert main(["quick", "--out", str(tmp_path / "base")]) == 0
    log = (tmp_path / "base" / "decisions.log").read_text().splitlines()
    parts = log[3].split("\t")
    parts[2] = "reject" if parts[2] == "accept" else "accept"
    log[3] = "\t".join(parts)
    corrupted = tmp_path / "corrupted.log"
    corrupted.write_text("\n".join(log) + "\n")
    code, out = run_cli(
        "quick", "--replay", str(corrupted), "--out", str(tmp_path / "x")
    )
    assert code == 3
    assert "replay mismatch: decision 3:" in out
    assert not (tmp_path / "x").exists()  # nor a partial log in it


def test_cli_seed_override_changes_log(tmp_path):
    assert main(["quick", "--out", str(tmp_path / "s1")]) == 0
    assert main(["quick", "--seed", "99", "--out", str(tmp_path / "s2")]) == 0
    l1 = (tmp_path / "s1" / "decisions.log").read_bytes()
    l2 = (tmp_path / "s2" / "decisions.log").read_bytes()
    assert l1 != l2


def test_cli_seeded_tiebreak_scenario(tmp_path):
    scn = tmp_path / "seeded.scn"
    scn.write_text(
        "[config]\nhorizon = 500\nseed = 2\ntiebreak = seeded:11\nscale = quick\n"
        "[functions]\ndef id = x\n[points]\nomega = x\n[suites]\nfinite\n"
    )
    assert main([str(scn), "--out", str(tmp_path / "t1")]) == 0
    assert main([str(scn), "--out", str(tmp_path / "t2")]) == 0
    assert (tmp_path / "t1" / "decisions.log").read_bytes() == \
        (tmp_path / "t2" / "decisions.log").read_bytes()
    report = (tmp_path / "t1" / "report.txt").read_text()
    assert "tiebreak: seeded:11" in report


@pytest.mark.parametrize("edit", ["truncate", "extend"])
def test_cli_replay_log_of_other_length_exit_three(tmp_path, edit):
    assert main(["quick", "--out", str(tmp_path / "base")]) == 0
    lines = (tmp_path / "base" / "decisions.log").read_text().splitlines()
    if edit == "truncate":
        lines = lines[:100]
    else:
        last = lines[-1].split("\t")
        lines.append("\t".join([str(int(last[0]) + 1), "x mod 2", "accept", "1"]))
    edited = tmp_path / "edited.log"
    edited.write_text("\n".join(lines) + "\n")
    code, out = run_cli("quick", "--replay", str(edited), "--out", str(tmp_path / "x"))
    assert code == 3
    if edit == "truncate":
        # the run stops at the first decision the log lacks
        assert out.startswith("replay mismatch: decision 100: the replayed log ends here")
    else:
        extra = f"LogEntry(seq={len(lines) - 1}, text='x mod 2', decision='accept', witness=1)"
        assert out.startswith(f"replay mismatch: decision {len(lines) - 1}: logged {extra}")
    assert len(out.strip().splitlines()) == 1
    assert not (tmp_path / "x").exists()


def test_cli_horizon_zero_is_not_ignored(tmp_path):
    code, out = run_cli("quick", "--horizon", "0", "--out", str(tmp_path / "o"))
    assert code == 2
    assert "horizon" in out


#: a three-section scenario whose own horizon is too small
_LOW_HORIZON = "[config]\nhorizon = 63\n[points]\nomega = x\n[suites]\nfinite\n"


def test_cli_scenario_horizon_error_names_its_line(tmp_path, capsys):
    scn = tmp_path / "low.scn"
    scn.write_text(_LOW_HORIZON)
    assert main([str(scn), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == "error: 2:1: horizon too small to be meaningful\n"


def test_cli_horizon_flag_error_names_the_flag(tmp_path, capsys):
    assert main(["quick", "--horizon", "63", "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == (
        "error: --horizon 63: horizon too small to be meaningful\n")


def test_cli_horizon_flag_overrides_bad_scenario_horizon(tmp_path):
    scn = tmp_path / "low.scn"
    scn.write_text(_LOW_HORIZON)
    assert main([str(scn), "--horizon", "500", "--out", str(tmp_path / "o")]) == 0
    assert "horizon: 500" in (tmp_path / "o" / "report.txt").read_text()


#: a horizon past the range check and 2**62 itself, where it starts; neither
#: reaches the oracle, which would allocate a bitset of that many bits
_HUGE_HORIZONS = [10**20, 2**62]


@pytest.mark.parametrize("horizon", _HUGE_HORIZONS)
def test_cli_huge_horizon_flag_exit_two(tmp_path, capsys, horizon):
    assert main(["quick", "--horizon", str(horizon), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == (
        f"error: --horizon {horizon}: horizon too large: it must be below 2**62\n")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("horizon", _HUGE_HORIZONS)
def test_cli_huge_scenario_horizon_names_its_line(tmp_path, capsys, horizon):
    scn = tmp_path / "huge.scn"
    scn.write_text(_LOW_HORIZON.replace("horizon = 63", f"horizon = {horizon}"))
    assert main([str(scn), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == "error: 2:1: horizon too large: it must be below 2**62\n"


def test_oracle_config_horizon_range():
    assert OracleConfig(horizon=INT64_SAFE - 1).horizon == INT64_SAFE - 1
    with pytest.raises(ValueError, match="below 2\\*\\*62"):
        OracleConfig(horizon=INT64_SAFE)


def test_cli_oracle_that_cannot_be_built_exit_four(tmp_path, monkeypatch, capsys):
    def no_memory(self, *args, **kwargs):
        raise MemoryError("bitset of the window")

    monkeypatch.setattr(OracleState, "__init__", no_memory)
    code = main(["quick", "--suite", "finite", "--out", str(tmp_path / "o")])
    assert code == 4
    assert capsys.readouterr().err == "internal error: MemoryError: bitset of the window\n"
    assert not (tmp_path / "o").exists()


def test_cli_unwritable_report_exit_two(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["quick", "--suite", "finite", "--out", str(out)]) == 0
    log = (out / LOG_NAME).read_bytes()
    (out / REPORT_NAME).unlink()
    (out / REPORT_NAME).mkdir()
    capsys.readouterr()
    assert main(["quick", "--suite", "finite", "--seed", "99", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: --out {out}: ") and err.count("\n") == 1
    assert sorted(p.name for p in out.iterdir()) == [LOG_NAME, REPORT_NAME]
    assert (out / LOG_NAME).read_bytes() == log


def test_cli_internal_error_exit_four(tmp_path, monkeypatch, capsys):
    def boom(ctx):
        raise RuntimeError("boom")

    monkeypatch.setitem(SUITE_RUNNERS, "boolean", boom)
    code = main(["quick", "--suite", "boolean", "--out", str(tmp_path / "o")])
    assert code == 4
    assert capsys.readouterr().err == "internal error: RuntimeError: boom\n"
    assert not (tmp_path / "o").exists()


def test_cli_consistency_violation_exit_three(tmp_path, monkeypatch, capsys):
    def violated(state):
        raise ConsistencyViolation("committed intersection empty in window")

    monkeypatch.setattr(OracleState, "check_consistency", violated)
    code = main(["quick", "--suite", "finite", "--out", str(tmp_path / "o" / "deeper")])
    assert code == 3
    assert capsys.readouterr().err == (
        "consistency violation: committed intersection empty in window\n")
    assert not (tmp_path / "o").exists()  # every directory the run made is gone


def _outputs(out):
    return {path.name: path.read_bytes() for path in out.iterdir()}


def test_cli_replay_into_the_logs_own_directory(tmp_path):
    """The replayed log is read before the run, and replaced only at its end."""
    out = tmp_path / "out"
    assert main(["quick", "--suite", "finite", "--out", str(out)]) == 0
    first = _outputs(out)
    assert sorted(first) == [LOG_NAME, REPORT_NAME]
    replay = ["quick", "--suite", "finite", "--replay", str(out / LOG_NAME), "--out", str(out)]
    assert main(replay) == 0
    assert _outputs(out) == first
    # another seed decides otherwise, so this replay diverges
    assert main(replay + ["--seed", "99"]) == 3
    assert _outputs(out) == first


def test_cli_out_below_a_file_exit_two(tmp_path, capsys):
    (tmp_path / "f").write_text("")
    assert main(["quick", "--suite", "finite", "--out", str(tmp_path / "f" / "o")]) == 2
    assert capsys.readouterr().err.startswith(f"error: --out {tmp_path / 'f' / 'o'}: ")


def test_oracle_config_honours_falsy_overrides():
    sc = parse_scenario(MINI, name="mini")
    with pytest.raises(ValueError):
        sc.oracle_config(horizon=0)
    assert sc.oracle_config().horizon == 500


# -- fuzzing -------------------------------------------------------------------

#: suites cheap enough on quick for many runs; boolean takes ten times longer
_FUZZ_SUITES = ["axioms", "negative", "equalizer", "finite", "nary", "transfer",
                "keisler", "topology"]
#: replacement tokens: names, keywords, section names and symbols
_FUZZ_TOKENS = ["x", "omega", "id", "untag", "p1", "pair", "ifeq", "mod", "div",
                "def", "def2", "[points]", "[fragment]", "=", ",", "..", "(", ")",
                "0", "-1", "", "#"]
#: values at the edges of the range of each setting of [config] and
#: [fragment] ("full" scale is left out: it runs for minutes)
_FUZZ_SETTINGS = {
    "horizon": ["64", "65", "63", "-1", "100000000000000000000"],
    "seed": ["0", "-1", "99999999999"],
    "tiebreak": ["least", "seeded:0", "seeded:-2", "seeded:x", "seeded:", "coin"],
    "scale": ["quick", "fast"],
    "functions": ["id", "id, id", "", "untag"],
    "points": ["omega", "omega, omega", "", "tagged1"],
    "depth": ["-1", "0", "1"],
    "sample": ["0..0", "0..1", "0..-1", "1..5", "0..x"],
}


def _mutate(rng, lines):
    """Half of the mutants change only settings, and most of those still
    parse; the other half are edited as text, and most of those do not."""
    lines = list(lines)
    if rng.random() < 0.5:
        found = [j for j, line in enumerate(lines)
                 if line.partition(" =")[0] in _FUZZ_SETTINGS]
        for j in rng.sample(found, rng.randint(1, 2)):
            key = lines[j].partition(" =")[0]
            lines[j] = f"{key} = {rng.choice(_FUZZ_SETTINGS[key])}"
        return lines
    for _ in range(rng.randint(1, 3)):
        i = rng.randrange(len(lines))
        op = rng.randrange(5)
        if op == 0 and len(lines) > 1:
            del lines[i]
        elif op == 1:
            lines.insert(i, lines[rng.randrange(len(lines))])
        elif op == 2:
            words = lines[i].split(" ")
            words[rng.randrange(len(words))] = rng.choice(_FUZZ_TOKENS)
            lines[i] = " ".join(words)
        elif op == 3 and lines[i]:
            j = rng.randrange(len(lines[i]))
            lines[i] = lines[i][:j] + lines[i][j + 1:]
        else:
            j = rng.randrange(len(lines[i]) + 1)
            lines[i] = lines[i][:j] + rng.choice("()=,.#[]-+*x ") + lines[i][j:]
    return lines


def _fuzz_flags(rng, tmp_path):
    flags = ["--out", str(tmp_path / "out")]
    for suite in rng.sample(_FUZZ_SUITES + ["warp"], rng.randint(0, 2)):
        flags += ["--suite", suite]
    if rng.random() < 0.3:
        flags += ["--horizon", rng.choice(["64", "100", "300", "63", "-5", "abc",
                                          "100000000000000000000"])]
    if rng.random() < 0.2:
        flags += ["--seed", rng.choice(["0", "1", "-3", "12345", "x"])]
    if rng.random() < 0.2:
        flags.append("--strict")
    if rng.random() < 0.1:
        log = tmp_path / "replay.log"
        log.write_text(rng.choice(["", "garbage\n", "0\tx\taccept\t0\n", "1\t1\tmaybe\t2\n"]))
        flags += ["--replay", rng.choice([str(log), str(tmp_path / "missing.log")])]
    if rng.random() < 0.05:
        flags.append(rng.choice(["--bogus", "--horizon"]))
    return flags


#: mutants run; together they take about ten seconds
FUZZ_RUNS = 150


def test_cli_fuzz_mutated_quick(tmp_path, capsys):
    """Mutated scenarios and random flags end in a verdict or a one-line
    error, never in a traceback or an internal error."""
    quick = bundled_scenario_path("quick").read_text().splitlines()
    for seed in range(FUZZ_RUNS):
        rng = random.Random(seed)
        lines = quick if rng.random() < 0.1 else _mutate(rng, quick)
        scn = tmp_path / "fuzz.scn"
        scn.write_text("\n".join(lines) + "\n")
        flags = _fuzz_flags(rng, tmp_path)
        if "--suite" not in flags:
            flags += [arg for suite in _FUZZ_SUITES for arg in ("--suite", suite)]
        try:
            code = main([str(scn)] + flags)
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
        err = capsys.readouterr().err
        assert code in (0, 1, 2, 3) and "Traceback" not in err, (seed, flags, err)
