"""Tests of the benchmark itself, at smoke size:  python3 -m pytest perfbench"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import run
from check import check_report
from workloads import WORKLOADS, Op, hard_oracle_set, plan

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def bench(cwd: Path, workload: str, trace: int, seed: int = 3) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed)]
    cmd += ["--seconds", "0.5", "--trace", str(trace), "--size", "smoke"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.fixture(scope="module")
def results() -> dict:
    out = {}
    for w in WORKLOADS:
        for trace in (0, 1):
            proc = bench(ROOT, w, trace)
            assert proc.returncode == 0, proc.stderr
            out[w, trace] = json.loads(proc.stdout.strip().splitlines()[-1])
    return out


def test_spec_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", (0, 1))
def test_every_metric_emitted_and_no_op_fails(results, workload, trace):
    r = results[workload, trace]
    assert set(r) == {"correct", "attempted", "failed", "metrics"}
    assert r["correct"] is True and r["failed"] == 0 and r["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(r["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        got = r["metrics"][m["name"]]
        assert got["unit"] == m["unit"] and math.isfinite(got["value"])
        if not trace:
            assert got["value"] > 0


def test_every_layer_runs_on_some_workload(results):
    for m in SPEC["per_layer"]:
        assert any(results[w, 1]["metrics"][m["name"]]["value"] for w in WORKLOADS), m["name"]


def test_same_seed_same_inputs_and_oracle_work_is_seed_free(tmp_path):
    for w in WORKLOADS:
        a, b = plan(w, 5, "smoke", tmp_path), plan(w, 5, "smoke", tmp_path)
        assert a.files == b.files and [op.argv for op in a.ops] == [op.argv for op in b.ops]
    one, two = (plan("online-wide", seed, "smoke", tmp_path) for seed in (1, 2))
    assert one.files != two.files
    base, other = (plan("oracle-exact", seed, "smoke", tmp_path) for seed in (0, 9))
    assert base.files != other.files
    assert [sorted(s) for s in base.files.values()] == [sorted(s) for s in other.files.values()]


def test_full_sets_reproduce_the_baseline_recipes(tmp_path):
    ops = plan("oracle-exact", 0, "full", tmp_path).ops
    oracle_ops = [op for op in ops if op.kind == "oracle"]
    assert len(oracle_ops) == 103 and oracle_ops[0].expect["m"] == 5
    assert oracle_ops[0].expect["sizes"] == [36, 17, 12, 1, 59, 35, 64, 3, 5]
    assert [op.expect["sizes"] for op in oracle_ops[100:]] == hard_oracle_set(3, 20)
    sys.path.insert(0, str(ROOT / "src"))
    from cardsched.model import instance_from_sizes
    from cardsched.oracle import exact_opt

    # the recipe's next instance, left out of the timed set, is the 1.40 M-node worst case
    worst = hard_oracle_set(4, 20)[3]
    assert exact_opt(instance_from_sizes(worst, 4, 5)).nodes_explored == 1_404_962


def test_each_op_is_scaled_by_the_reference_samples_around_it():
    class SleepingCli:
        def main(self, argv):
            time.sleep(float(argv[0]))
            return 0

    ops = [Op([t], Path("-"), "run", "stub") for t in ("0", str(2 * run.REF_GAP_S), "0", "0")]
    p = run.Pass(SleepingCli(), ops)
    # one sample before the first op, one after the long op, one after the last
    assert len(p.ref_s) == 3 and p.errors == [None] * 4
    first, second = (p.ref_s[0] + p.ref_s[1]) / 2, (p.ref_s[1] + p.ref_s[2]) / 2
    near = [first, first, second, second]
    assert p.scaled_s == [t * run.REF_S / r for t, r in zip(p.op_s, near)]
    assert p.wall_s == sum(p.op_s)


def cli_report(tmp_path: Path, argv: list[str]) -> bytes:
    sys.path.insert(0, str(ROOT / "src"))
    from cardsched.cli import main

    out = tmp_path / "report.json"
    assert main(argv + ["--out", str(out)]) == 0
    return out.read_bytes()


def test_check_rejects_broken_reports(tmp_path):
    sizes = [5.0, 3.0, 4.0, 1.0, 2.0]
    (tmp_path / "in.jsonl").write_text("".join(json.dumps({"size": s}) + "\n" for s in sizes))
    source = ["--m", "2", "--k", "3", "--input", str(tmp_path / "in.jsonl")]
    raw = cli_report(tmp_path, ["run", "--algo", "greedy-capped"] + source)
    expect = {"sizes": sizes, "m": 2, "k": 3}
    assert check_report(raw, "run", expect) == []
    with_nan = raw.replace(b'"final_ratio": ', b'"final_ratio": NaN, "x": ')
    assert check_report(with_nan, "run", expect)
    report = json.loads(raw)
    report["final_makespan"] += 1.0
    assert check_report(json.dumps(report).encode(), "run", expect)
    report = json.loads(raw)
    report["machines"] = [1, 1, 1, 1, 2]
    assert any("cap" in p for p in check_report(json.dumps(report).encode(), "run", expect))

    raw = cli_report(tmp_path, ["oracle"] + source)
    assert check_report(raw, "oracle", expect) == []
    report = json.loads(raw)
    report["opt"] = report["lower_bound"] / 2
    assert check_report(json.dumps(report).encode(), "oracle", expect)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    ignore = shutil.ignore_patterns("_work", "__pycache__")
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=ignore)
    proc = bench(tmp_path, "online-wide", 0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
