"""Time cases on this checkout's src/ against another tree, in fresh-process pairs.

Usage (from the repository root; to time one tree alone, pass it as --before):

    python3 tools/ab.py --before <other checkout>/src [--case NAME ...] [--pairs P]

A case is a function in CASES that runs in a worker process against the
cardsched on its PYTHONPATH and returns one flat dict: a key ending in `_s`
is seconds, every other key a deterministic output (a count or a digest)
that both trees must share.  Each case runs in P pairs of fresh processes,
one per tree, their order alternating from pair to pair so that both trees
see the same stretch of a noisy host.  One JSON object per case: each
side's median and all values of every `_s` key and its outputs, the
after/before ratio of each median, and whether the outputs are identical.
A side whose outputs differ between its own runs fails the case.  Cases
that mirror a perfbench workload take its parameters from
perfbench/workloads.py:

- `io-*`: online-wide's `run --algo *` op, and `io-ordinal`, ordinal-robust's
  `run --algo ordinal` op, each layer timed as the CLI calls it (load,
  lower-bound metering of an online run, emit, the whole op; median of 15
  calls); output: the report's sha256 with `wall_time_s` set to 0.
- `cli-oracle`: one pass of the oracle-exact workload's 105 ops (seed 1) as
  in-process `cli.main` calls, and one uncached parser build (median of
  15); output: the sha256 over the reports with `wall_time_s` set to 0.
- `oracle-exact`, `worst`: one pass of `exact_opt` on the oracle-exact
  workload's instances, and on the seed-3 recipe's 1.40 M-node instance.
- `exact-metering`: `competitive_metrics(trace, "exact")` on greedy-capped
  traces of oracle-exact's two exact-mode streams, what `run --mode exact`
  meters; outputs: the denominators and a digest of the prefix-max ratios.
- `balanced-rr`, `pure-rr`, `balanced-constant`, `uniform-clcs` (the
  adversary-drive workload's drives) and `run-stream-rr`: the drive, a
  fresh scheduler alone on its stream, and `runner_s`, their difference.
- `constant-*`: the constant scheduler in each of its modes, alone and under
  `run_stream` (median of 3 passes), with its mode and row counters.
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
from functools import partial
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
from workloads import (  # noqa: E402
    HARD_K, HARD_M, SIZES, hard_oracle_set, loguniform, plan, small_oracle_set, write_inputs
)

FULL = SIZES["full"]
IO_REPEATS = 15
CONSTANT_REPEATS = 3


def _median_time(fn, repeats: int, make=None) -> float:
    """Median seconds of `fn()`, or of `fn(make())` with `make` untimed, over `repeats` calls."""
    times = []
    for _ in range(repeats):
        args = (make(),) if make else ()
        t0 = time.perf_counter()
        fn(*args)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def io_case(algo: str) -> dict:
    from cardsched import cli
    from cardsched.engine import competitive_metrics, run_stream
    from cardsched.jsonl import load_jobs

    if algo == "ordinal":  # the last op of ordinal-robust
        expect = plan("ordinal-robust", 1, "full", Path("unused")).ops[-1].expect
        m, sizes = expect["m"], expect["sizes"]
    else:
        m = FULL["online_m"]
        sizes = loguniform(random.Random(1), FULL["online_n"])
    path, report_path = "stream.jsonl", "report.json"
    argv = ["run", "--algo", algo, "--m", str(m), "--k", str(m), "--input", path]
    cwd, tmp = os.getcwd(), tempfile.TemporaryDirectory()
    os.chdir(tmp.name)  # relative paths: a report names its input
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("".join(json.dumps({"size": s}) + "\n" for s in sizes))
        args = cli.make_parser().parse_args(argv)
        report = cli.cmd_run(args)
        report["wall_time_s"] = 0.0
        out = {"load_s": _median_time(lambda: load_jobs(path), IO_REPEATS)}
        if algo != "ordinal":  # the offline key has no trace to meter
            trace = run_stream(cli.SCHEDULERS[algo](m, m, args.epsilon), sizes, m, m)
            metering = partial(competitive_metrics, trace, "lower_bound")
            out["metrics_s"] = _median_time(metering, IO_REPEATS)
        out["emit_s"] = _median_time(lambda: cli._emit(report, report_path), IO_REPEATS)
        with open(report_path, "rb") as fh:
            out["report_sha256"] = hashlib.sha256(fh.read()).hexdigest()
        op = argv + ["--out", report_path]
        out["op_s"] = _median_time(lambda: cli.main(op), IO_REPEATS)
    finally:  # never leave the worker inside a deleted directory
        os.chdir(cwd)
        tmp.cleanup()
    return out


def cli_oracle() -> dict:
    """One pass of the oracle-exact workload's ops as in-process cli.main calls."""
    from cardsched import cli

    build = getattr(cli.make_parser, "__wrapped__", cli.make_parser)  # uncached in any tree
    cwd, tmp = os.getcwd(), tempfile.TemporaryDirectory()
    os.chdir(tmp.name)  # relative paths: a report names its input
    try:
        workload = plan("oracle-exact", 1, "full", Path("."))
        write_inputs(workload)
        ops = workload.ops
        t0 = time.perf_counter()
        codes = [cli.main(op.argv) for op in ops]
        ops_s = time.perf_counter() - t0
        digest = hashlib.sha256()
        for op in ops:
            report = json.loads(op.out.read_text(encoding="utf-8"))
            report["wall_time_s"] = 0.0
            digest.update(json.dumps(report, sort_keys=True).encode())
    finally:  # never leave the worker inside a deleted directory
        os.chdir(cwd)
        tmp.cleanup()
    return {
        "ops_s": ops_s,
        "parser_s": _median_time(build, IO_REPEATS),
        "ops": len(ops),
        "exit_codes": sorted(set(codes)),
        "reports_sha256": digest.hexdigest(),
    }


def oracle_case(instances: list[tuple[list[int], int, int]]) -> dict:
    from cardsched.model import instance_from_sizes
    from cardsched.oracle import exact_opt

    todo = [instance_from_sizes([float(s) for s in sizes], m, k) for sizes, m, k in instances]
    t0 = time.perf_counter()
    results = [exact_opt(inst) for inst in todo]
    exact_s = time.perf_counter() - t0
    digest = hashlib.sha256()
    for r in results:
        schedule = getattr(r.schedule, "assignment", r.schedule)  # a wrapped dict in older trees
        digest.update(repr((repr(r.opt_makespan), sorted(schedule.items()))).encode())
    nodes = [r.nodes_explored for r in results]
    return {
        "exact_s": exact_s,
        "solves": len(results),
        "nodes": sum(nodes),
        "nodes_max": max(nodes),
        "solutions_sha256": digest.hexdigest(),
    }


def oracle_exact() -> dict:
    small = small_oracle_set(FULL["small_count"], FULL["small_max_n"])
    hard = hard_oracle_set(FULL["hard_count"], FULL["hard_n"])
    return oracle_case(small + [(sizes, HARD_M, HARD_K) for sizes in hard])


def exact_metering() -> dict:
    from cardsched.engine import ListSchedulingCapped, competitive_metrics, run_stream

    streams = hard_oracle_set(FULL["hard_count"], FULL["hard_n"])[: FULL["exact_streams"]]
    traces = [
        run_stream(ListSchedulingCapped(HARD_M, HARD_K), [float(s) for s in sizes], HARD_M, HARD_K)
        for sizes in streams
    ]
    t0 = time.perf_counter()
    metrics = [competitive_metrics(trace, "exact") for trace in traces]
    metering_s = time.perf_counter() - t0
    ratios = repr([repr(mt.prefix_max_ratio) for mt in metrics]).encode()
    return {
        "metering_s": metering_s,
        "denominators": [mt.denominator for mt in metrics],
        "prefix_max_sha256": hashlib.sha256(ratios).hexdigest(),
    }


def worst() -> dict:
    return oracle_case([(hard_oracle_set(4, FULL["hard_n"])[3], HARD_M, HARD_K)])


def drive_case(case: str) -> dict:
    """One timed drive, then one timed scheduler-alone replay of its stream."""
    from cardsched import adversaries, clcs, cli, constant, engine

    if case == "balanced-rr":
        m, k = FULL["rr_balanced"]
        make = partial(engine.RoundRobinScheduler, m, k)
        drive = partial(adversaries.balanced_lb_drive, m=m, k=k, N=10.0, round_cap=100)
    elif case == "pure-rr":
        m, k = FULL["rr_pure"]
        make = partial(engine.RoundRobinScheduler, m, k)
        drive = partial(adversaries.pure_lb_drive, m=m, k=k, N=float(k))
    elif case == "balanced-constant":
        m, k = FULL["constant_balanced"]
        make = partial(constant.ConstantCompetitiveScheduler, m, k)
        drive = partial(adversaries.balanced_lb_drive, m=m, k=k, N=10.0, round_cap=100)
    elif case == "uniform-clcs":
        m, k, big_m = FULL["clcs_uniform"]
        make = partial(clcs.GreedyClcsScheduler, m, k)
        drive = partial(clcs.uniform_lb_drive, m=m, k=k, s=2.0, beta=1.0, eps=0.01, M=big_m)
    else:
        m = k = 1000
        make = partial(engine.RoundRobinScheduler, m, k)
        sizes = cli.generate_sizes("loguniform", 40_000, 1)
        drive = partial(engine.run_stream, sizes=sizes, m=m, k=k)

    runners = []

    class Recorded(engine.StreamRunner):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            runners.append(self)

    for module in (adversaries, clcs, engine):
        module.StreamRunner = Recorded
    scheduler = make()
    t0 = time.perf_counter()
    drive(scheduler)
    drive_s = time.perf_counter() - t0
    trace, classes = runners[-1].trace, runners[-1].classes

    on_arrival = make().on_arrival
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
        "runner_s": drive_s - decide_s,
        "jobs": trace.n,
        "migrations": len(migrations),
        "trace_sha256": digest.hexdigest(),
    }


def constant_case(m: int, k: int, n: int, gen: str, seed: int) -> dict:
    from cardsched.cli import generate_sizes
    from cardsched.constant import ConstantCompetitiveScheduler
    from cardsched.engine import run_stream

    if gen == "groups":
        # sizes cycle through 2**0 .. 2**-19: at k = 1000 (l = 19) every
        # arrival goes to the next of 20 groups, whose rows fill side by side
        sizes = [2.0 ** -(i % 20) for i in range(n)]
    else:
        sizes = generate_sizes(gen, n, seed)
    make = partial(ConstantCompetitiveScheduler, m, k)

    def alone(scheduler):
        for s in sizes:
            scheduler.on_arrival(s)

    out = {
        "scheduler_s": _median_time(alone, CONSTANT_REPEATS, make),
        "run_stream_s": _median_time(lambda s: run_stream(s, sizes, m, k), CONSTANT_REPEATS, make),
    }
    probe, modes = make(), []
    for size in sizes:
        modes.append("fallback" if probe.fallback else "terminal" if probe.terminal else "live")
        probe.on_arrival(size)
    snap = probe.structure_snapshot()
    trace = run_stream(make(), sizes, m, k)
    out.update({f"placements_{x}": modes.count(x) for x in ("fallback", "live", "terminal")})
    out.update({
        "rows_removed": len(snap.removed_rows),
        "terminal_from_arrival": modes.index("terminal") + 1 if "terminal" in modes else None,
        "active_k_final": snap.active_k,
        "machines_sha256": hashlib.sha256(trace.machines.tobytes()).hexdigest(),
        "snapshot_sha256": hashlib.sha256(repr(snap).encode()).hexdigest(),
    })
    return out


CASES = {
    **{f"io-{a}": partial(io_case, a) for a in (
        "round-robin", "greedy-capped", "constant", "ordinal"
    )},
    "cli-oracle": cli_oracle,
    "oracle-exact": oracle_exact,
    "exact-metering": exact_metering,
    "worst": worst,
    **{case: partial(drive_case, case) for case in (
        "balanced-rr", "pure-rr", "balanced-constant", "uniform-clcs", "run-stream-rr"
    )},
    "constant-online-wide": partial(
        constant_case, FULL["online_m"], FULL["online_m"], FULL["online_n"], "loguniform", 1
    ),
    "constant-terminal": partial(constant_case, 1000, 60, 60_000, "loguniform", 1),
    "constant-fallback": partial(constant_case, 1000, 40, 40_000, "loguniform", 1),
    "constant-interleaved-groups": partial(constant_case, 1000, 1000, 100_000, "groups", 0),
}


def run_worker(case: str, src: str) -> dict:
    env = dict(os.environ, PYTHONPATH=src)
    cmd = [sys.executable, __file__, "--worker", case]
    out = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True, check=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def compare(case: str, before: str, after: str, pairs: int) -> dict:
    runs: dict[str, list[dict]] = {"before": [], "after": []}
    for p in range(pairs):
        order = [("before", before), ("after", after)]
        for side, src in order if p % 2 == 0 else order[::-1]:
            runs[side].append(run_worker(case, src))
    row: dict = {"case": case, "pairs": pairs}
    for side, results in runs.items():
        timed = {key: [r.pop(key) for r in results] for key in list(results[0]) if key[-2:] == "_s"}
        if any(r != results[0] for r in results):
            raise RuntimeError(f"{case}: {side} outputs differ between runs")
        row[side] = {}
        for key, values in timed.items():
            row[side][f"median_{key}"] = round(statistics.median(values), 5)
            row[side][f"all_{key}"] = [round(v, 5) for v in values]
        row[side].update(results[0])
    for key in timed:
        before_s, after_s = row["before"][f"median_{key}"], row["after"][f"median_{key}"]
        row[f"{key[:-2]}_ratio"] = round(after_s / before_s, 3) if before_s else None
    row["identical"] = runs["before"][0] == runs["after"][0]
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
        print(json.dumps(CASES[args.worker]()))
        return 0
    if not args.before:
        ap.error("--before is required")
    before, after = str(Path(args.before).resolve()), str(ROOT / "src")
    for case in args.case or CASES:
        print(json.dumps(compare(case, before, after, args.pairs)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
