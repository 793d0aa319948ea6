"""Golden outputs: the bundled ``quick`` scenario's report and decision log
are pinned byte for byte, and replaying the log reproduces both. The
negative-control scenarios' outputs are pinned too."""

import hashlib

import pytest

from starext.cli import LOG_NAME, REPORT_NAME, main

QUICK_GOLDEN = {
    REPORT_NAME: "9d254f0eaefbaac9c2d6205bd133ea024d1069ec1c51c110c5ddc295a7f85ca4",
    LOG_NAME: "11e8758662fb9c2d95f6dcef316a656837b0e8d1cc2a4921f957663ae2e86d18",
}


EMPTY = hashlib.sha256(b"").hexdigest()

#: the negative controls decide nothing through the oracle: empty logs
NEGATIVE_GOLDEN = {
    "broken_comp": "c9331f5c70092db8bea85d9997ff3d31d83493b4a122cb0deddf69b9db90bc83",
    "broken_diag": "8660b9df99d5eca5868d60fa0ee31cc76592da7199fe34ff0d7cccb7f50d06b4",
    "redundant": "df773a6d294a6e72484126cef131b89d4e24bfd2300c5813b4db480cc4931faa",
}


def _digests(out_dir):
    return {
        name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
        for name in QUICK_GOLDEN
    }


def test_quick_outputs_match_golden_and_replay(tmp_path):
    first = tmp_path / "first"
    assert main(["quick", "--out", str(first)]) == 0
    assert _digests(first) == QUICK_GOLDEN

    replayed = tmp_path / "replayed"
    assert main([
        "quick", "--replay", str(first / LOG_NAME), "--out", str(replayed),
    ]) == 0
    assert _digests(replayed) == QUICK_GOLDEN


@pytest.mark.parametrize("scenario", sorted(NEGATIVE_GOLDEN))
def test_negative_control_outputs_match_golden(tmp_path, scenario):
    assert main([scenario, "--out", str(tmp_path)]) == 1
    assert _digests(tmp_path) == {
        REPORT_NAME: NEGATIVE_GOLDEN[scenario], LOG_NAME: EMPTY,
    }
