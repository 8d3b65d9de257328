"""Time cases on this checkout's src/ against another tree, in fresh-process pairs.

Usage (from the repository root; to time one tree alone, pass it as --before):

    python3 tools/ab.py --before <other checkout>/src [--case NAME ...] [--pairs P]

A case is a function in CASES that runs in a worker process against the
cardsched on its PYTHONPATH and returns one flat dict: a key ending in `_s`
is scaled seconds, every other key a deterministic output (a count or a
digest) that both trees must share.  Each timed span is scaled as
`perfbench/run.py` scales an op: its seconds times REF_S over the mean of
one `reference()` sample on either side of it, so a tenant that slows the
host for a while slows the kernel too and the scaled time moves with the
program.  Each case runs in P pairs of fresh processes,
one per tree, their order alternating from pair to pair so that both trees
see the same stretch of a noisy host.  One JSON object per case: each
side's median and all values of every `_s` key and its outputs, the
after/before ratio of each median, and whether the outputs are identical.
A side whose outputs differ between its own runs fails the case.  The 16
cases:

- `workload-<w>`, one per perfbench workload (online-wide, ordinal-robust,
  oracle-exact, adversary-drive): one pass of the workload's seed-1 ops, as
  perfbench plans them, through in-process `cli.main` calls (`ops_s`);
  outputs: the exit codes and `reports_digest`, the digest that
  `perfbench/run.py` prints for seed 1.  Per-layer splits come from
  `python3 perfbench/run.py --workload <w> --trace 1`.
- `cli-reports`: the CLI_ARGV list (`--dump-structure` in each constant
  mode, `--emit-map`, `--input`, `clcs run`, every adversary family and four
  error exits) through in-process `cli.main` calls (`ops_s`); outputs: the
  exit codes and `reports_sha256`, over each report's perfbench digest and
  its stderr.
- `startup`: a five-job `run --gen uniform --n 5 --mode lower-bound` per
  `--algo` key but phi, at m = 10**6 and k = 1 (constant at k = 60), through
  in-process `cli.main` calls (`ops_s`, and `<key>_s` per key); outputs:
  the exit codes and `reports_sha256`, over each report's perfbench digest.
- `exact-metering`: `competitive_metrics(trace, "exact")` on greedy-capped
  traces of oracle-exact's two exact-mode streams, what `run --mode exact`
  meters; outputs: the denominators and a digest of the prefix-max ratios.
- `worst`: `exact_opt` on the seed-3 recipe's 1.40 M-node instance.
- `run-stream-rr`: `run_stream` with round-robin on 200,000 loguniform jobs
  at m = k = 1000 (`drive_s`, the scheduler built before the timer starts),
  a new scheduler alone on the same stream (`decide_s`), each the median of
  REPEATS passes, and `runner_s`, their difference.
- `run-stream-clcs`: the same three timings for `run_classed_stream`, the
  classed entry every tree has, with greedy ClCS on uniform-lb's stream of
  (size, class) pairs at m = 50, k = 20 (1,000 unit jobs of distinct
  classes, then 400,000 jobs of size 0.99 over the 20 classes on machine
  1); outputs: the job count and digests of the trace and loads.
- `run-stream-robust`: the same three timings, medians of REPEATS passes,
  for robust-ordinal at eps = 0.5 on 4,000 loguniform jobs at m = k =
  1000, where the runner's migration path is most of the run; outputs: the
  migrating arrivals and digests of the makespans, the migration records
  and the final loads.
- `ordinal-map`: `ordinal_map` at (m, k) = (10**6, 3), (1000, 1000) and
  (2, 10**6) (`ops_s`, and `map_<m>x<k>_s` per shape); outputs: each map's
  sha256.
- `constant-{terminal,fallback,interleaved-groups}`: the constant scheduler
  in each of its modes, alone and under `run_stream` (medians of REPEATS
  passes), with its mode and row counters, read from attributes every tree has, and
  `snapshot_sha256`, the digest of the `run --dump-structure` report that
  `cli.main` writes for the same sizes, fed as a JSONL file.
- `io-layers`: `load_jobs` on online-wide's seed-1 stream (`load_s`), and
  apart from it `_emit` of the round-robin run report, the ordinal report
  and the `--dump-structure` report on that stream (`emit_<name>_s`),
  medians of REPEATS passes; outputs: the sha256 of the loaded
  `(repr(size), class)` pairs and of each written report.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from array import array
from functools import partial
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
from check import digest  # noqa: E402
from run import REF_S, reference  # noqa: E402
from workloads import (  # noqa: E402
    HARD_K, HARD_M, SIZES, WORKLOADS, hard_oracle_set, plan, write_inputs
)

FULL = SIZES["full"]
REPEATS = 5  # passes of each timed span in the run-stream-{rr,robust}, constant and io cases


def _timed(fn, *args):
    """fn(*args) and its scaled seconds: perfbench's scaling of an op, its time multiplied
    by REF_S over the mean of one reference() sample on either side of it."""
    before = reference()
    t0 = time.perf_counter()
    result = fn(*args)
    elapsed = time.perf_counter() - t0
    return result, elapsed * REF_S / ((before + reference()) / 2)


def _median_time(fn, repeats: int, make) -> float:
    """Median scaled seconds of `fn(make())`, `make` untimed, over `repeats` calls."""
    return statistics.median(_timed(fn, make())[1] for _ in range(repeats))


@contextlib.contextmanager
def _in_tempdir():
    """Run the body in a new temporary directory, and never stay in it once deleted."""
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            yield
        finally:
            os.chdir(cwd)


def workload_case(name: str) -> dict:
    """One pass of a perfbench workload's seed-1 ops as in-process cli.main calls."""
    from cardsched import cli

    with _in_tempdir():  # reports name their inputs by the relative paths perfbench uses
        work = plan(name, 1, "full", Path("perfbench", "_work", f"{name}-full-1"))
        write_inputs(work)
        codes, ops_s = _timed(lambda: [cli.main(op.argv) for op in work.ops])
        digests = [digest(op.out.read_bytes()) if op.out.is_file() else None for op in work.ops]
    return {
        "ops_s": ops_s,
        "ops": len(codes),
        "exit_codes": sorted(set(codes)),
        "reports_digest": hashlib.sha256("\n".join(map(str, digests)).encode()).hexdigest(),
    }


_CONSTANT = "run --algo constant --gen loguniform --seed 2 --dump-structure"
CLI_ARGV = [
    line.split()
    for line in (
        "run --algo greedy-capped --m 4 --k 8 --input jobs21.jsonl",
        "run --algo greedy-capped --m 3 --k 5 --gen uniform --n 12 --seed 4",
        f"{_CONSTANT} --m 4 --k 200 --n 60",  # live rows
        f"{_CONSTANT} --m 4 --k 60 --n 150",  # terminal
        f"{_CONSTANT} --m 3 --k 10 --n 20",  # fallback
        "run --algo ordinal --m 4 --k 6 --gen loguniform --n 20 --mode lower-bound --emit-map",
        "run --algo robust-ordinal --epsilon 0.5 --m 5 --k 5 --gen loguniform --n 25",
        "oracle --m 3 --k 3 --gen uniform --n 8",
        "clcs run --m 3 --k 2 --input classed.jsonl --speeds 1,2,0.5",
        "clcs adversary --family identical-lb --m 4 --k 2",
        "clcs adversary --family uniform-lb --m 5 --k 3",
        "adversary --family phi-lb --algo phi",
        "adversary --family robust-lb --algo robust-ordinal --m 4 --k 8",
        "adversary --family pure-lb --algo greedy-capped --m 4 --k 3",
        "adversary --family balanced-lb --algo constant --m 3 --k 60",
        # error exits: capacity, the exact guard, a missing class, a phi-lb M too small
        "run --algo round-robin --m 1 --k 1 --gen uniform --n 5",
        "oracle --m 4 --k 8 --input jobs21.jsonl",
        "clcs run --m 2 --k 2 --input jobs21.jsonl",
        "adversary --family phi-lb --algo phi --big-m 1",
    )
]


def cli_reports() -> dict:
    """CLI_ARGV through in-process cli.main calls: the report paths no workload runs."""
    from cardsched import cli

    with _in_tempdir():  # reports name their inputs by relative paths
        jobs = [{"size": (7 * j) % 23} for j in range(21)]
        classed = [{"size": 2.0**-e, "class": e % 3 + 1} for e in range(12)]
        for name, rows in (("jobs21.jsonl", jobs), ("classed.jsonl", classed)):
            Path(name).write_text("".join(json.dumps(row) + "\n" for row in rows))
        codes, parts, ops_s = [], [], 0.0
        for i, argv in enumerate(CLI_ARGV):
            out, err = Path(f"report-{i}.json"), io.StringIO()
            with contextlib.redirect_stderr(err):
                code, op_s = _timed(cli.main, [*argv, "--out", str(out)])
            codes.append(code)
            ops_s += op_s
            parts += [digest(out.read_bytes()) if out.is_file() else None, err.getvalue()]
    return {
        "ops_s": ops_s,
        "exit_codes": codes,
        "reports_sha256": hashlib.sha256("\n".join(map(str, parts)).encode()).hexdigest(),
    }


STARTUP_ALGOS = ("round-robin", "greedy-capped", "constant", "robust-ordinal", "ordinal")


def startup() -> dict:
    """Five-job runs at m = 10**6, one per --algo key but phi: what a run pays before its jobs."""
    from cardsched import cli

    out, codes, digests = {}, [], []
    with _in_tempdir():
        for algo in STARTUP_ALGOS:
            k = 60 if algo == "constant" else 1
            argv = f"run --algo {algo} --m {10**6} --k {k} --gen uniform --n 5 --mode lower-bound"
            code, out[f"{algo}_s"] = _timed(cli.main, [*argv.split(), "--out", "report.json"])
            codes.append(code)
            digests.append(digest(Path("report.json").read_bytes()))
    return {
        "ops_s": sum(out.values()),
        **out,
        "exit_codes": codes,
        "reports_sha256": hashlib.sha256("\n".join(digests).encode()).hexdigest(),
    }


def exact_metering() -> dict:
    from cardsched.engine import ListSchedulingCapped, competitive_metrics, run_stream

    streams = hard_oracle_set(FULL["hard_count"], FULL["hard_n"])[: FULL["exact_streams"]]
    traces = [
        run_stream(ListSchedulingCapped(HARD_M, HARD_K), [float(s) for s in sizes], HARD_M, HARD_K)
        for sizes in streams
    ]
    metrics, metering_s = _timed(lambda: [competitive_metrics(trace, "exact") for trace in traces])
    ratios = repr([repr(mt.prefix_max_ratio) for mt in metrics]).encode()
    return {
        "metering_s": metering_s,
        "denominators": [mt.denominator for mt in metrics],
        "prefix_max_sha256": hashlib.sha256(ratios).hexdigest(),
    }


def worst() -> dict:
    from cardsched.model import instance_from_sizes
    from cardsched.oracle import exact_opt

    sizes = hard_oracle_set(4, FULL["hard_n"])[3]
    instance = instance_from_sizes([float(s) for s in sizes], HARD_M, HARD_K)
    r, exact_s = _timed(exact_opt, instance)
    solution = repr((repr(r.opt_makespan), sorted(r.schedule.items()))).encode()
    return {
        "exact_s": exact_s,
        "nodes": r.nodes_explored,
        "solution_sha256": hashlib.sha256(solution).hexdigest(),
    }


def _drive_and_decide(make, sizes, m: int, k: int):
    """The trace of run_stream on make(); the median over REPEATS passes of its time and of a
    new make()'s alone; and the runner's, their difference.

    Each scheduler is built before its timer starts, so `runner_s` holds no constructor."""
    from cardsched.engine import run_stream

    def decide(scheduler):
        on_arrival = scheduler.on_arrival
        for size in sizes:
            on_arrival(size)

    drive_s = _median_time(lambda s: run_stream(s, sizes, m, k), REPEATS, make)
    decide_s = _median_time(decide, REPEATS, make)
    trace = run_stream(make(), sizes, m, k)
    return trace, {"drive_s": drive_s, "decide_s": decide_s, "runner_s": drive_s - decide_s}


def run_stream_rr() -> dict:
    """run_stream with round-robin, then the scheduler alone on the same stream."""
    from cardsched.cli import generate_sizes
    from cardsched.engine import RoundRobinScheduler

    m = k = 1000
    sizes = generate_sizes("loguniform", 200_000, 1)
    trace, times = _drive_and_decide(partial(RoundRobinScheduler, m, k), sizes, m, k)
    # the columns' bytes as array("i") and array("d"), whatever type holds them
    columns = array("i", trace.machines).tobytes() + array("d", trace.makespans).tobytes()
    return {**times, "jobs": trace.n, "trace_sha256": hashlib.sha256(columns).hexdigest()}


def run_stream_clcs() -> dict:
    """run_classed_stream with greedy ClCS on uniform-lb's stream, then the scheduler alone."""
    from cardsched.clcs import GreedyClcsScheduler, run_classed_stream

    m, k, rounds = FULL["clcs_uniform"]  # M rounds at the CLI's default beta = 1
    size = 1.0 / 1.0 - 0.01  # 1 / beta - eps at the default eps = 0.01
    # phase 1: one unit job per class, which greedy binds round-robin; phase 2
    # floods the min(k, m - 1) classes that land on machine 1
    targets = list(range(1, m * k + 1, m))[: min(k, m - 1)]
    jobs = [(1.0, cls) for cls in range(1, m * k + 1)] + [(size, cls) for cls in targets] * rounds
    def decide(on_arrival):
        for job in jobs:
            on_arrival(*job)

    runner, drive_s = _timed(run_classed_stream, GreedyClcsScheduler(m, k), jobs, m, k)
    _, decide_s = _timed(decide, GreedyClcsScheduler(m, k).on_arrival)
    trace = runner.trace
    columns = array("i", trace.machines).tobytes() + array("d", trace.makespans).tobytes()
    return {
        "drive_s": drive_s,
        "decide_s": decide_s,
        "runner_s": drive_s - decide_s,
        "jobs": trace.n,
        "trace_sha256": hashlib.sha256(columns).hexdigest(),
        "loads_sha256": hashlib.sha256(array("d", runner.loads).tobytes()).hexdigest(),
    }


def run_stream_robust() -> dict:
    """run_stream with robust-ordinal, then the scheduler alone on the same stream."""
    from cardsched.cli import generate_sizes
    from cardsched.robust import RobustOrdinalScheduler

    m = k = 1000
    sizes = generate_sizes("loguniform", 4000, 1)
    trace, times = _drive_and_decide(partial(RobustOrdinalScheduler, m, k, 0.5), sizes, m, k)
    # moves as plain triples and sizes by repr, whatever types hold them
    records = [
        (jid, [tuple(mv) for mv in rec.moves], repr(rec.moved_size))
        for jid, rec in trace.migrations.items()
    ]
    return {
        **times,
        "migrating_arrivals": len(records),
        "makespans_sha256": hashlib.sha256(array("d", trace.makespans).tobytes()).hexdigest(),
        "migrations_sha256": hashlib.sha256(repr(records).encode()).hexdigest(),
        "loads_sha256": hashlib.sha256(array("d", trace.loads).tobytes()).hexdigest(),
    }


ORDINAL_MAP_SHAPES = ((10**6, 3), (1000, 1000), (2, 10**6))


def ordinal_map_case() -> dict:
    """`ordinal_map` at each of ORDINAL_MAP_SHAPES."""
    from cardsched.ordinal import ordinal_map

    out, digests = {}, {}
    for m, k in ORDINAL_MAP_SHAPES:
        sigma, out[f"map_{m}x{k}_s"] = _timed(ordinal_map, m, k)
        digests[f"sigma_{m}x{k}_sha256"] = hashlib.sha256(array("i", sigma).tobytes()).hexdigest()
        del sigma  # the next shape builds with this map freed
    return {"ops_s": sum(out.values()), **out, **digests}


def constant_case(m: int, k: int, n: int, gen: str, seed: int) -> dict:
    from cardsched import cli
    from cardsched.constant import ConstantCompetitiveScheduler
    from cardsched.engine import run_stream

    if gen == "groups":
        # sizes cycle through 2**0 .. 2**-19: at k = 1000 (l = 19) every
        # arrival goes to the next of 20 groups, whose rows fill side by side
        sizes = [2.0 ** -(i % 20) for i in range(n)]
    else:
        sizes = cli.generate_sizes(gen, n, seed)
    make = partial(ConstantCompetitiveScheduler, m, k)

    def alone(scheduler):
        for s in sizes:
            scheduler.on_arrival(s)

    out = {
        "scheduler_s": _median_time(alone, REPEATS, make),
        "run_stream_s": _median_time(lambda s: run_stream(s, sizes, m, k), REPEATS, make),
    }
    probe, modes = make(), []
    for size in sizes:
        modes.append("fallback" if probe.fallback else "terminal" if probe.terminal else "live")
        probe.on_arrival(size)
    trace = run_stream(make(), sizes, m, k)
    with _in_tempdir():
        Path("sizes.jsonl").write_text("".join(f'{{"size": {s!r}}}\n' for s in sizes))
        argv = f"run --algo constant --m {m} --k {k} --input sizes.jsonl --mode lower-bound"
        cli.main([*argv.split(), "--dump-structure", "--out", "report.json"])
        snapshot_sha256 = digest(Path("report.json").read_bytes())
    out.update({f"placements_{x}": modes.count(x) for x in ("fallback", "live", "terminal")})
    out.update({
        "rows_removed": k - probe.active_k,  # each removed row lowers active_k by one
        "terminal_from_arrival": modes.index("terminal") + 1 if "terminal" in modes else None,
        "active_k_final": probe.active_k,
        "machines_sha256": hashlib.sha256(array("i", trace.machines).tobytes()).hexdigest(),
        "snapshot_sha256": snapshot_sha256,
    })
    return out


IO_REPORTS = {  # report name -> `run` arguments on the online-wide stream
    "rr": "--algo round-robin --m 1000 --k 1000",
    "ordinal": "--algo ordinal --m 100 --k 100",
    "structure": "--algo constant --m 1000 --k 1000 --dump-structure",
}


def io_layers() -> dict:
    """The input and emit layers apart: load_jobs on online-wide's seed-1 stream, and _emit
    of the IO_REPORTS built from it (median of REPEATS passes each)."""
    from cardsched import cli
    from cardsched.jsonl import load_jobs

    out = {}
    with _in_tempdir():
        work = plan("online-wide", 1, "full", Path("perfbench", "_work", "online-wide-full-1"))
        write_inputs(work)
        (stream,) = (str(path) for path in work.files)
        out["load_s"] = _median_time(load_jobs, REPEATS, lambda: stream)
        jobs = repr([(repr(size), cls) for size, cls in load_jobs(stream)]).encode()
        out["jobs_sha256"] = hashlib.sha256(jobs).hexdigest()
        for name, argv in IO_REPORTS.items():
            args = cli.make_parser().parse_args(["run", *argv.split(), "--input", stream])
            report = args.handler(args)  # less main's wall_time_s: the same bytes each run
            emit = partial(cli._emit, out="report.json")
            out[f"emit_{name}_s"] = _median_time(emit, REPEATS, lambda: report)
            out[f"{name}_sha256"] = hashlib.sha256(Path("report.json").read_bytes()).hexdigest()
    return out


CASES = {
    **{f"workload-{name}": partial(workload_case, name) for name in WORKLOADS},
    "cli-reports": cli_reports,
    "startup": startup,
    "exact-metering": exact_metering,
    "worst": worst,
    "run-stream-rr": run_stream_rr,
    "run-stream-clcs": run_stream_clcs,
    "run-stream-robust": run_stream_robust,
    "ordinal-map": ordinal_map_case,
    "constant-terminal": partial(constant_case, 1000, 60, 60_000, "loguniform", 1),
    "constant-fallback": partial(constant_case, 1000, 40, 40_000, "loguniform", 1),
    "constant-interleaved-groups": partial(constant_case, 1000, 1000, 100_000, "groups", 0),
    "io-layers": io_layers,
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
