import importlib.util
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _one_pair(case):
    # one pair on this tree alone: the harness and its case still fit the src/ names
    argv = ["--before", str(ROOT / "src"), "--case", case, "--pairs", "1"]
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "ab.py"), *argv],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    (line,) = done.stdout.splitlines()
    row = json.loads(line)
    assert row["identical"] is True
    return row


def test_ab_harness_runs_a_case_on_two_trees():
    row = _one_pair("exact-metering")
    assert row["before"]["denominators"] == row["after"]["denominators"] == [263.0, 262.0]


def test_workload_case_digest_is_perfbench_seed_1_digest():
    # integer sizes: the digest does not depend on the platform's libm; a declared
    # report change (such as the oracle's grid target) updates this pin
    row = _one_pair("workload-oracle-exact")
    assert row["after"]["ops"] == 105 and row["after"]["exit_codes"] == [0]
    assert row["after"]["reports_digest"].startswith("e9770557")


def test_every_perfbench_workload_has_a_case(monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))  # ab.py puts perfbench/ on it
    spec = importlib.util.spec_from_file_location("ab", ROOT / "tools" / "ab.py")
    ab = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(ab)
    import workloads

    assert {f"workload-{w}" for w in workloads.WORKLOADS} <= set(ab.CASES)


def test_cli_reports_case_runs_every_argv():
    row = _one_pair("cli-reports")
    assert row["after"]["exit_codes"] == [0] * 15 + [2] * 4


def test_io_layers_case_times_load_and_emit_apart():
    row = _one_pair("io-layers")
    timed = {"load_s", "emit_rr_s", "emit_ordinal_s", "emit_structure_s"}
    assert {f"median_{key}" for key in timed} <= set(row["after"])
    assert {"jobs_sha256", "rr_sha256", "ordinal_sha256", "structure_sha256"} <= set(row["after"])
