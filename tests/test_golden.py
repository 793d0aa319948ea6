"""Golden outputs: the bundled ``quick`` scenario's report and decision log
are pinned byte for byte, and replaying the log reproduces both."""

import hashlib

from starext.cli import LOG_NAME, REPORT_NAME, main

QUICK_GOLDEN = {
    REPORT_NAME: "9d254f0eaefbaac9c2d6205bd133ea024d1069ec1c51c110c5ddc295a7f85ca4",
    LOG_NAME: "11e8758662fb9c2d95f6dcef316a656837b0e8d1cc2a4921f957663ae2e86d18",
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
