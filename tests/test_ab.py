import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_ab_harness_runs_a_case_on_two_trees():
    # one pair on this tree alone: the harness and its case still fit the src/ names
    argv = ["--before", str(ROOT / "src"), "--case", "exact-metering", "--pairs", "1"]
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "ab.py"), *argv],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    (line,) = done.stdout.splitlines()
    row = json.loads(line)
    assert row["identical"] is True
    assert row["before"]["denominators"] == row["after"]["denominators"] == [263.0, 262.0]
