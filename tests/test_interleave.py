import pathlib
import re
import shutil
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_interleave_times_curves_against_the_same_commit():
    if shutil.which("git") is None or subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True).returncode:
        pytest.skip("tools/interleave.py exports commits, and this is no git checkout")
    out = subprocess.run(
        [sys.executable, "tools/interleave.py", "--base", "HEAD", "--head", "HEAD",
         "--workload", "curves", "--seeds", "1,2", "--reps", "2"],
        cwd=ROOT, capture_output=True, text=True, check=True).stdout.splitlines()
    # a curves round is 150 operations; each rep of each seed draws its own
    assert out[0] == "curves seeds 1,2, 2 reps: 600 operations a side"
    assert out[1].startswith("base ") and out[1].endswith(" s, 0 failed")
    assert out[2].startswith("head ") and out[2].endswith(" s, 0 failed")
    total, median = map(float, re.fullmatch(
        r"base/head: total (\S+), median per operation (\S+)", out[3]).groups())
    assert total > 0 and median > 0
