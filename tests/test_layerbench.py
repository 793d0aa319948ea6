import importlib.util
import math
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "layerbench.py"


def test_layerbench_smoke(capsys):
    spec = importlib.util.spec_from_file_location("layerbench", TOOL)
    layerbench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layerbench)
    results = layerbench.main(repeat=1)
    assert list(results) == ([label for label, _, _ in layerbench.BENCHES]
                             + [label for label, _ in layerbench.PEAKS])
    assert all(math.isfinite(value) and value > 0 for value, _ in results.values())
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == len(results)
    assert [line.rsplit(" ", 1)[1] for line in lines] == [unit for _, unit in results.values()]
    assert {unit for _, unit in results.values()} == {"µs", "KiB"}
