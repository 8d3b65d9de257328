"""Repeat the benchmark over seeds, summarise its spread, and compare two sets of runs.

    python3 perfbench/steady.py --out set1.json
    python3 perfbench/steady.py --compare set1.json set2.json

A set runs `run.py --trace 0` once per workload of BENCHMARK.json and seed in
SEEDS, one at a time, and `run.py --trace 1` once per workload at TRACED_SEED.
For each end-to-end metric it reports the median, the quartiles and the spread
(q3 - q1) / median; the target is a spread below a third of the metric's
bound.  --compare checks that the second set's medians are within the bounds
of the first's, and that report digests and the deterministic per-layer
counters are identical.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN_TIMEOUT_S = 600
SEEDS = range(1, 11)
TRACED_SEED = 0  # the default seeds: the baseline oracle sets in their own order
# per-layer counters that must repeat exactly between runs of the same code
# (cli.report_bytes is not one: each report carries its own wall_time_s)
COUNTERS = (
    "jsonl.jobs", "engine.arrivals", "engine.moves", "engine.moved_size",
    "robust.moves_per_arrival_max", "oracle.solves", "oracle.nodes", "oracle.nodes_max",
    "adversaries.jobs", "clcs.jobs",
)  # fmt: skip


def run_once(workload: str, seed: int, trace: int, seconds: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed)]
    cmd += ["--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} failed ({proc.returncode}):\n{proc.stderr}")
    info = next(json.loads(ln.split(" ", 1)[1]) for ln in lines if ln.startswith("perfbench-info "))
    result = json.loads(lines[-1])
    values = {name: m["value"] for name, m in result["metrics"].items()}
    print(f"  {workload} seed={seed} trace={trace} failed={result['failed']} {values}", flush=True)
    return {"seed": seed, "result": result, "digest": info["digest"], "passes": info["pass_wall_s"]}


def summarise(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med, "values": values}


def run_set(spec: dict) -> dict:
    out = {"run_seconds": spec["run_seconds"], "workloads": {}}
    for w in (w["name"] for w in spec["workloads"]):
        runs = [run_once(w, s, 0, spec["run_seconds"]) for s in SEEDS]
        traced = run_once(w, TRACED_SEED, 1, spec["run_seconds"])
        out["workloads"][w] = {
            "failed": sum(r["result"]["failed"] for r in runs + [traced]),
            "attempted": sum(r["result"]["attempted"] for r in runs + [traced]),
            "digests": {str(r["seed"]): r["digest"] for r in runs + [traced]},
            "pass_wall_s": [r["passes"] for r in runs],
            "end_to_end": {
                m["name"]: summarise([r["result"]["metrics"][m["name"]]["value"] for r in runs])
                for m in spec["end_to_end"]
            },
            "per_layer": {
                "seed": TRACED_SEED,
                "pass_wall_s": traced["passes"],
                "metrics": {k: v["value"] for k, v in traced["result"]["metrics"].items()},
            },
        }
    return out


def report_spread(spec: dict, data: dict) -> bool:
    ok = True
    for w, d in data["workloads"].items():
        passes = [len(p) for p in d["pass_wall_s"]]
        print(f"{w}: failed {d['failed']} of {d['attempted']}, passes per run {passes}")
        for m in spec["end_to_end"]:
            s = d["end_to_end"][m["name"]]
            verdict = "ok" if s["spread"] <= m["bound"] / 3 else "WIDE"
            ok &= verdict == "ok"
            print(
                f"  {m['name']:14s} median {s['median']:.6g} {m['unit']:3s} "
                f"spread {s['spread']:.4f} bound {m['bound']} {verdict}"
            )
    return ok


def compare(spec: dict, a: dict, b: dict) -> bool:
    ok = True
    for w, da in a["workloads"].items():
        db = b["workloads"][w]
        for m in spec["end_to_end"]:
            ma, mb = da["end_to_end"][m["name"]]["median"], db["end_to_end"][m["name"]]["median"]
            worse = (mb - ma) / ma if m["better"] == "lower" else (ma - mb) / ma
            verdict = "ok" if worse <= m["bound"] else "WORSE"
            ok &= verdict == "ok"
            print(f"{w:16s} {m['name']:14s} {ma:.6g} -> {mb:.6g} ({worse:+.4f}) {verdict}")
        same_seeds = set(da["digests"]) & set(db["digests"])
        diff = [s for s in sorted(same_seeds) if da["digests"][s] != db["digests"][s]]
        ca, cb = da["per_layer"]["metrics"], db["per_layer"]["metrics"]
        moved = [c for c in COUNTERS if ca.get(c) != cb.get(c)]
        ok &= not diff and not moved
        print(f"{w:16s} digests differ for seeds: {diff or 'none'}")
        print(f"{w:16s} counters moved: {moved or 'none'}")
    return ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path)
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("FIRST", "SECOND"))
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.compare:
        first, second = (json.loads(p.read_text(encoding="utf-8")) for p in args.compare)
        return 0 if compare(spec, first, second) else 1
    data = run_set(spec)
    if args.out:
        args.out.write_text(json.dumps(data, indent=1) + "\n", encoding="utf-8")
    return 0 if report_spread(spec, data) else 1


if __name__ == "__main__":
    sys.exit(main())
