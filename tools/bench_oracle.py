"""Time exact_opt on the oracle benchmark's instances, before and after a change.

Usage (from the repository root):

    python3 tools/bench_oracle.py --before <other checkout>/src [--case NAME ...] [--pairs P]

Cases: `oracle-exact`, the instances the oracle-exact workload hands to
`cardsched oracle` (perfbench/workloads.py: the first 100 seed-515 instances
and the first 3 seed-3 n = 20 instances, in their baseline order);
`exact-metering`, every prefix of that workload's two exact-mode streams,
which is what exact metering solves; and `worst`, the seed-3 recipe's
1.40 M-node instance.  Each case is timed in P pairs of fresh processes, one
on the --before tree and one on this checkout's src/, their order alternating
from pair to pair, so that both trees see the same stretch of a noisy host.

Prints one JSON object per case: median seconds before and after (each the
sum of the case's exact_opt calls in one process), and the deterministic
outputs of each tree: total and largest nodes_explored and a sha256 over
every solve's (repr(opt), schedule), which two versions must share to search
the same tree.
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
CASES = ("oracle-exact", "exact-metering", "worst")


def instances(case: str) -> list[tuple[list[int], int, int]]:
    sys.path.insert(0, str(ROOT / "perfbench"))
    from workloads import HARD_K, HARD_M, SIZES, hard_oracle_set, small_oracle_set

    z = SIZES["full"]
    hard = hard_oracle_set(z["hard_count"], z["hard_n"])
    if case == "oracle-exact":
        small = small_oracle_set(z["small_count"], z["small_max_n"])
        return small + [(sizes, HARD_M, HARD_K) for sizes in hard]
    if case == "exact-metering":
        streams = hard[: z["exact_streams"]]
        return [(s[:t], HARD_M, HARD_K) for s in streams for t in range(1, len(s) + 1)]
    worst = hard_oracle_set(4, z["hard_n"])[3]
    return [(worst, HARD_M, HARD_K)]


def solve(case: str) -> dict:
    """Solve the case with the cardsched on sys.path; one timed pass."""
    from cardsched.model import instance_from_sizes
    from cardsched.oracle import exact_opt

    todo = [instance_from_sizes([float(s) for s in sizes], m, k) for sizes, m, k in instances(case)]
    results = []
    t0 = time.perf_counter()
    for inst in todo:
        results.append(exact_opt(inst))
    seconds = time.perf_counter() - t0
    digest = hashlib.sha256()
    for r in results:
        digest.update(repr((repr(r.opt_makespan), sorted(r.schedule.assignment.items()))).encode())
    nodes = [r.nodes_explored for r in results]
    return {
        "seconds": seconds,
        "solves": len(results),
        "nodes": sum(nodes),
        "nodes_max": max(nodes),
        "solutions_sha256": digest.hexdigest(),
    }


def run_worker(case: str, src: str) -> dict:
    env = dict(os.environ, PYTHONPATH=src)
    cmd = [sys.executable, __file__, "--worker", case]
    out = subprocess.run(cmd, env=env, capture_output=True, text=True, check=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def compare(case: str, before: str, after: str, pairs: int) -> dict:
    times: dict[str, list[float]] = {"before": [], "after": []}
    outputs: dict[str, dict] = {}
    for p in range(pairs):
        order = [("before", before), ("after", after)]
        for side, src in order if p % 2 == 0 else order[::-1]:
            result = run_worker(case, src)
            times[side].append(result.pop("seconds"))
            if outputs.setdefault(side, result) != result:
                raise RuntimeError(f"{case}: {side} outputs differ between runs")
    row = {"case": case, "pairs": pairs}
    for side in ("before", "after"):
        row[side] = {
            "median_s": round(statistics.median(times[side]), 4),
            "all_s": [round(x, 4) for x in times[side]],
            **outputs[side],
        }
    row["speedup"] = round(row["before"]["median_s"] / row["after"]["median_s"], 2)
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
        print(json.dumps(solve(args.worker)))
        return 0
    if not args.before:
        ap.error("--before is required")
    before, after = str(Path(args.before).resolve()), str(ROOT / "src")
    for case in args.case or CASES:
        print(json.dumps(compare(case, before, after, args.pairs)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
