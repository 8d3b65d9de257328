"""Time the stream runner on the adversary drives and run_stream, before and after a change.

Usage (from the repository root):

    python3 tools/bench_runner.py --before <other checkout>/src [--case NAME ...] [--pairs P]

Cases: the four drives of the adversary-drive workload, called as the CLI
calls them with its default parameters (perfbench/workloads.py), and one
plain online run:

- `balanced-rr`: balanced-lb vs round-robin, m = 3, k = 100000, N = 10
- `pure-rr`: pure-lb vs round-robin, m = k = 600
- `balanced-constant`: balanced-lb vs constant, m = 3, k = 2000, N = 10
- `uniform-clcs`: ClCS uniform-lb vs greedy, m = 50, k = 20, M = 20000
- `run-stream-rr`: `run_stream`, round-robin, m = k = 1000, 40k loguniform
  sizes (seed 1)

Each case runs in P pairs of fresh processes, one on the --before tree and
one on this checkout's src/, their order alternating from pair to pair, so
that both trees see the same stretch of a noisy host.  A process times the
whole drive (`drive_s`), then replays the stream it produced through a fresh
scheduler's on_arrival alone (`decide_s`); `runner_s` is the difference:
the runner's checks and trace writes plus the adversary's own logic.

Prints one JSON object per case: median seconds before and after, the
runner's microseconds per job, and the deterministic outputs of each tree: the job count and a sha256 over the
trace's sizes, machines, per-arrival makespans and migrations, which two
versions must share to have run the same drive.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CASES = ("balanced-rr", "pure-rr", "balanced-constant", "uniform-clcs", "run-stream-rr")


def _setup(case: str):
    """(make scheduler, run it) for the case, with the cardsched on sys.path."""
    from cardsched.adversaries import balanced_lb_drive, pure_lb_drive
    from cardsched.clcs import GreedyClcsScheduler, uniform_lb_drive
    from cardsched.cli import generate_sizes
    from cardsched.constant import ConstantCompetitiveScheduler
    from cardsched.engine import RoundRobinScheduler, run_stream

    if case == "balanced-rr":
        m, k = 3, 100_000
        return lambda: RoundRobinScheduler(m, k), lambda s: balanced_lb_drive(s, m, k, 10.0, 100)
    if case == "pure-rr":
        m = k = 600
        return lambda: RoundRobinScheduler(m, k), lambda s: pure_lb_drive(s, m, k, float(k))
    if case == "balanced-constant":
        m, k = 3, 2000
        make = lambda: ConstantCompetitiveScheduler(m, k)  # noqa: E731
        return make, lambda s: balanced_lb_drive(s, m, k, 10.0, 100)
    if case == "uniform-clcs":
        m, k = 50, 20
        make = lambda: GreedyClcsScheduler(m, k)  # noqa: E731
        return make, lambda s: uniform_lb_drive(s, m, k, 2.0, 1.0, 0.01, 20_000)
    m = k = 1000
    sizes = generate_sizes("loguniform", 40_000, 1)
    return lambda: RoundRobinScheduler(m, k), lambda s: run_stream(s, sizes, m, k)


def measure(case: str) -> dict:
    """One timed drive and one timed scheduler-alone replay of its stream."""
    from cardsched import adversaries, clcs, engine

    runners = []

    class Recorded(engine.StreamRunner):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            runners.append(self)

    make, drive = _setup(case)
    for module in (adversaries, clcs, engine):
        module.StreamRunner = Recorded
    scheduler = make()
    t0 = time.perf_counter()
    drive(scheduler)
    drive_s = time.perf_counter() - t0
    trace, classes = runners[-1].trace, runners[-1].classes

    fresh = make()
    on_arrival = fresh.on_arrival
    t0 = time.perf_counter()
    if classes is None:
        for size in trace.sizes:
            on_arrival(size)
    else:
        for size, cls in zip(trace.sizes, classes):
            on_arrival(size, cls)
    decide_s = time.perf_counter() - t0

    digest = hashlib.sha256()
    for column in (trace.sizes, trace.machines, trace.makespans):
        digest.update(repr(list(column)).encode())
    migrations = [
        (jid, [(mv.job, mv.src, mv.dst) for mv in r.moves], repr(r.moved_size))
        for jid, r in sorted(trace.migrations.items())
    ]
    digest.update(repr(migrations).encode())
    return {
        "drive_s": drive_s,
        "decide_s": decide_s,
        "jobs": trace.n,
        "migrations": len(migrations),
        "trace_sha256": digest.hexdigest(),
    }


def run_worker(case: str, src: str) -> dict:
    env = dict(os.environ, PYTHONPATH=src)
    cmd = [sys.executable, __file__, "--worker", case]
    out = subprocess.run(cmd, env=env, capture_output=True, text=True, check=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def compare(case: str, before: str, after: str, pairs: int) -> dict:
    times: dict[str, dict[str, list[float]]] = {"before": {}, "after": {}}
    outputs: dict[str, dict] = {}
    for p in range(pairs):
        order = [("before", before), ("after", after)]
        for side, src in order if p % 2 == 0 else order[::-1]:
            result = run_worker(case, src)
            drive_s, decide_s = result.pop("drive_s"), result.pop("decide_s")
            for key, value in (("drive_s", drive_s), ("decide_s", decide_s)):
                times[side].setdefault(key, []).append(value)
            times[side].setdefault("runner_s", []).append(drive_s - decide_s)
            if outputs.setdefault(side, result) != result:
                raise RuntimeError(f"{case}: {side} outputs differ between runs")
    row = {"case": case, "pairs": pairs}
    for side in ("before", "after"):
        medians = {f"median_{key}": statistics.median(v) for key, v in times[side].items()}
        row[side] = {key: round(value, 4) for key, value in medians.items()}
        row[side]["all_drive_s"] = [round(x, 4) for x in times[side]["drive_s"]]
        row[side].update(outputs[side])
        per_job = medians["median_runner_s"] * 1e6 / max(1, outputs[side]["jobs"])
        row[side]["runner_us_per_job"] = round(per_job, 3)
    for key in ("drive_s", "runner_s"):
        before_s, after_s = row["before"][f"median_{key}"], row["after"][f"median_{key}"]
        row[f"{key.split('_')[0]}_ratio"] = round(after_s / before_s, 3) if before_s else None
    row["identical"] = outputs["before"] == outputs["after"]
    row["python"] = platform.python_version()
    return row


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--before", help="src/ directory of the version to compare against")
    ap.add_argument("--case", action="append", choices=CASES)
    ap.add_argument("--pairs", type=int, default=5)
    ap.add_argument("--worker", choices=CASES, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.worker:
        print(json.dumps(measure(args.worker)))
        return 0
    if not args.before:
        ap.error("--before is required")
    before, after = str(Path(args.before).resolve()), str(ROOT / "src")
    for case in args.case or CASES:
        print(json.dumps(compare(case, before, after, args.pairs)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
