"""Time the load, metering and emit layers of online-wide's ops, before and after a change.

Usage (from the repository root):

    python3 tools/bench_io.py --before <other checkout>/src [--pairs P] [--repeats R]

The ops are the three of perfbench's online-wide workload (perfbench/workloads.py):
`run --algo A --m 1000 --k 1000` for round-robin, greedy-capped and constant
on one JSONL stream of 4000 loguniform sizes (random.Random(1)), written as
perfbench writes it.  A worker process times, R times each and as the CLI
calls them:

- `load_s`: `load_jobs` on the stream file
- `metrics_s`: `competitive_metrics(trace, "lower_bound")` on the op's trace
- `emit_s`: `cli._emit(report, out)` of the op's report to a file
- `op_s`: the whole op, `cli.main(argv)`

and keeps each one's median.  It also keeps a sha256 of the emitted report
with `wall_time_s` set to 0, the one field that varies between runs.

The worker runs in P pairs of fresh processes, one on the --before tree and
one on this checkout's src/, their order alternating from pair to pair, so
that both trees see the same stretch of a noisy host.  Prints one JSON
object per op: the median over pairs of each layer before and after, their
ratio, and whether the report bytes are the same.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OPS = ("round-robin", "greedy-capped", "constant")
M = K = 1000
N, SEED = 4000, 1
MODE = "lower_bound"  # n > 20: the CLI's auto mode meters against the lower bound
LAYERS = ("load_s", "metrics_s", "emit_s", "op_s")


def _median_time(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def measure(repeats: int) -> dict:
    """Per op: the median seconds of each layer and the sha256 of its report."""
    from cardsched import cli
    from cardsched.engine import competitive_metrics, run_stream
    from cardsched.jsonl import load_jobs

    rng = random.Random(SEED)
    sizes = [2.0 ** rng.uniform(-10.0, 10.0) for _ in range(N)]
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)  # relative paths: a report names its input
        path, report_path = "stream.jsonl", "report.json"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("".join(json.dumps({"size": s}) + "\n" for s in sizes))
        for algo in OPS:
            argv = ["run", "--algo", algo, "--m", str(M), "--k", str(K), "--input", path]
            args = cli.make_parser().parse_args(argv)
            report = cli.cmd_run(args)
            report["wall_time_s"] = 0.0
            trace = run_stream(cli.SCHEDULERS[algo](M, K, args.epsilon), sizes, M, K)
            row = {
                "load_s": _median_time(lambda: load_jobs(path), repeats),
                "metrics_s": _median_time(lambda: competitive_metrics(trace, MODE), repeats),
                "emit_s": _median_time(lambda: cli._emit(report, report_path), repeats),
            }
            with open(report_path, "rb") as fh:
                row["report_sha256"] = hashlib.sha256(fh.read()).hexdigest()
            row["op_s"] = _median_time(lambda: cli.main(argv + ["--out", report_path]), repeats)
            out[algo] = row
        os.chdir(ROOT)
    return out


def run_worker(src: str, repeats: int) -> dict:
    env = dict(os.environ, PYTHONPATH=src)
    cmd = [sys.executable, __file__, "--worker", "--repeats", str(repeats)]
    out = subprocess.run(cmd, env=env, capture_output=True, text=True, check=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def compare(before: str, after: str, pairs: int, repeats: int) -> list[dict]:
    runs: dict[str, list[dict]] = {"before": [], "after": []}
    for p in range(pairs):
        order = [("before", before), ("after", after)]
        for side, src in order if p % 2 == 0 else order[::-1]:
            runs[side].append(run_worker(src, repeats))
    rows = []
    for algo in OPS:
        row: dict = {"op": f"run --algo {algo} --m {M} --k {K}", "n": N, "pairs": pairs}
        digests = {}
        for side in ("before", "after"):
            results = [run[algo] for run in runs[side]]
            row[side] = {
                f"median_{layer}": round(statistics.median(r[layer] for r in results), 5)
                for layer in LAYERS
            }
            row[side]["all_op_s"] = [round(r["op_s"], 5) for r in results]
            digests[side] = {r["report_sha256"] for r in results}
            if len(digests[side]) != 1:
                raise RuntimeError(f"{algo}: {side} reports differ between runs")
            row[side]["report_sha256"] = next(iter(digests[side]))
        for layer in LAYERS:
            before_s, after_s = row["before"][f"median_{layer}"], row["after"][f"median_{layer}"]
            row[f"{layer[:-2]}_ratio"] = round(after_s / before_s, 3) if before_s else None
        row["identical"] = digests["before"] == digests["after"]
        row["python"] = platform.python_version()
        rows.append(row)
    return rows


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--before", help="src/ directory of the version to compare against")
    ap.add_argument("--pairs", type=int, default=5)
    ap.add_argument("--repeats", type=int, default=15, help="timed calls per layer in a process")
    ap.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.worker:
        print(json.dumps(measure(args.repeats)))
        return 0
    if not args.before:
        ap.error("--before is required")
    before, after = str(Path(args.before).resolve()), str(ROOT / "src")
    for row in compare(before, after, args.pairs, args.repeats):
        print(json.dumps(row), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
