import importlib.util
import math
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "layerbench.py"


def test_layerbench_smoke(capsys):
    spec = importlib.util.spec_from_file_location("layerbench", TOOL)
    layerbench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layerbench)
    results = layerbench.main(repeat=1)
    assert list(results) == [label for label, _, _ in layerbench.BENCHES]
    assert all(math.isfinite(us) and us > 0 for us in results.values())
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == len(results)
    assert all(line.endswith(" µs") for line in lines)
