"""Run one workload through the cardsched CLI and print its metrics.

    python3 perfbench/run.py --workload online-wide --seed 1 --seconds 20 --trace 0

The program under test is `src/cardsched` of the checkout this file sits in.
Set-up is timed in fresh processes: each one starts Python, imports cardsched
and writes the workload's seeded input files.  The measuring process calls
`cardsched.cli.main(argv)` once per op, serially, and repeats the whole op
list (a pass) for as long as the rest of the run is expected to end within
`--seconds`.  Half of SETUP_REPEATS set-ups run before the first pass, one
after every pass, and more after the last until there are SETUP_REPEATS, so
that the set-ups span the same stretch of time as the passes.

On a shared host other tenants slow every op by up to half, for
milliseconds to minutes at a time, so raw seconds of identical runs spread
by 20-35%.  Each op is therefore timed next to a reference: a fixed
pure-Python kernel (reference() below, list, tuple, dict and float work like
the schedulers') that is timed before the first op and after any op that
ends REF_GAP_S or more after the last sample.  An op's scaled time is its
time multiplied by REF_S over the mean of the samples on either side of it:
the seconds it would take on a host where the kernel takes REF_S, about its
time on an unloaded 2-vCPU Xeon KVM guest under Python 3.11.  A slower
program is slower next to the same kernel, so the scaled time moves with the
program and not with its neighbours.

wall_s is the op list in scaled seconds: the sum over ops of each op's
median scaled time over the passes; slowest_op_s is the largest of those
medians; setup_s is the median scaled set-up.  Every report is checked after
its pass, outside the timed span.

With `--trace 1` the process alternates untraced and traced passes (see
tracer.py) within `--seconds`, at least one of each, and prints the median of
each per-layer metric over the traced passes; per-layer times are unscaled,
and host.raw_wall_s (the median untraced pass) and host.ref_ms (the median
reference sample) show how fast the host ran.
trace_overhead_s is the median over pairs of the traced pass minus the
untraced one, each scaled by its pass's median reference sample; the
tracer's own bookkeeping (counting, sizing each Trace) is timed apart and
left out.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics (the end_to_end metrics of BENCHMARK.json, or its per_layer metrics
with --trace 1).
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import traceback
from pathlib import Path
from time import perf_counter

from check import check_report, digest
from tracer import Tracer
from workloads import SIZES, WORKLOADS, plan, write_inputs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 15
SETUP_TIMEOUT_S = 120
REF_S = 0.003  # seconds of one reference() call on the host that scaled seconds refer to
REF_GAP_S = 0.05  # longest stretch of ops between two reference samples


def reference() -> float:
    """Seconds of a fixed pure-Python kernel, the median of three calls.

    The collector is off while it runs: a collection would walk every object
    the program left alive, and the kernel must not depend on them.
    """
    times = []
    gc.disable()
    for _ in range(3):
        t0 = perf_counter()
        loads, snapshots, totals = [0.0] * 64, [], {}
        for i in range(4000):
            x = ((i * 7919) % 1000) / 1000.0
            j = min(range(64), key=loads.__getitem__) if i % 8 == 0 else i % 64
            loads[j] += x
            snapshots.append((i, j, x, tuple(loads[:16])))
        for _, j, x, _ in snapshots:
            totals[j] = totals.get(j, 0.0) + x
        sorted(loads)
        times.append(perf_counter() - t0)
    gc.enable()
    return sorted(times)[1]


def import_cli():
    """Import cardsched.cli from this checkout's sources, and nowhere else."""
    if not (SRC / "cardsched" / "cli.py").is_file():
        raise SystemExit(f"perfbench: no cardsched sources at {SRC}")
    sys.path.insert(0, str(SRC))
    import cardsched.cli

    if Path(cardsched.cli.__file__).resolve().parent.parent != SRC:
        raise SystemExit(f"perfbench: imported cardsched from {cardsched.cli.__file__}")
    return cardsched.cli


class Setup:
    """Writes the workload's input files afresh in a new process; each call is timed."""

    def __init__(self, args, workdir: Path):
        self.cmd = [sys.executable, str(HERE / "run.py"), "--setup-only", "--workdir", str(workdir)]
        self.cmd += ["--workload", args.workload, "--seed", str(args.seed), "--size", args.size]
        self.workdir = workdir
        self.times: list[float] = []  # scaled seconds
        self.raw_s: list[float] = []

    def __call__(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)
        before = reference()
        t0 = perf_counter()
        proc = subprocess.Popen(self.cmd)
        # a blocking wait: Popen.wait(timeout) polls in steps of up to 50 ms
        watchdog = threading.Timer(SETUP_TIMEOUT_S, proc.kill)
        watchdog.start()
        code = proc.wait()
        elapsed = perf_counter() - t0
        watchdog.cancel()
        self.raw_s.append(elapsed)
        self.times.append(elapsed * REF_S / ((before + reference()) / 2))
        if code != 0:
            raise SystemExit(f"perfbench: set-up exited with {code}")


def clear_caches() -> None:
    """A CLI run starts with empty caches, so every pass does too."""
    seen = set()
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] != "cardsched":
            continue
        for obj in list(vars(module).values()):
            clear = getattr(obj, "cache_clear", None)
            if callable(clear) and id(obj) not in seen:
                seen.add(id(obj))
                clear()
    gc.collect()


def call(cli, argv: list[str]) -> str | None:
    """Run one op; returns why it failed, or None."""
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        return f"exit {exc.code}"
    except Exception:  # a traceback is a failed op, not a failed benchmark
        return traceback.format_exc()
    return None if code == 0 else f"exit code {code}"


class Pass:
    """Runs every op once, timing each and the reference samples around it."""

    def __init__(self, cli, ops, tracer: Tracer | None = None):
        clear_caches()
        self.op_s, self.errors, self.ref_s, near = [], [], [reference()], []
        sampled = perf_counter()
        for i, op in enumerate(ops):
            if tracer is not None:
                tracer.algo = op.algo
            t0 = perf_counter()
            self.errors.append(call(cli, op.argv))
            t1 = perf_counter()
            self.op_s.append(t1 - t0)
            if t1 - sampled >= REF_GAP_S or i == len(ops) - 1:
                self.ref_s.append(reference())
                sampled = perf_counter()
                near += [(self.ref_s[-2] + self.ref_s[-1]) / 2] * (i + 1 - len(near))
        self.wall_s = sum(self.op_s)
        self.scaled_s = [t * REF_S / r for t, r in zip(self.op_s, near)]


class Checker:
    """Checks each pass's reports; a report that passed once is not checked again."""

    def __init__(self, ops):
        self.ops = ops
        self.first_digests: list[str | None] | None = None
        self.verdicts: dict[tuple[int, str], list[str]] = {}
        self.attempted = self.failed = 0

    def check(self, p: Pass) -> None:
        digests = []
        for i, (op, error) in enumerate(zip(self.ops, p.errors)):
            self.attempted += 1
            problems = [error] if error else []
            d = None
            if not problems:
                try:
                    raw = op.out.read_bytes()
                except OSError as exc:
                    problems = [f"no report: {exc}"]
                else:
                    op.out.unlink()  # the next pass must write it again
                    d = digest(raw)
                    if (i, d) not in self.verdicts:
                        self.verdicts[(i, d)] = check_report(raw, op.kind, op.expect)
                    problems = self.verdicts[(i, d)]
                    if self.first_digests is not None and d != self.first_digests[i]:
                        problems = problems + ["report differs from the first pass"]
            digests.append(d)
            if problems:
                self.failed += 1
                print(f"perfbench: op {i} {' '.join(op.argv)}: {problems[0]}", file=sys.stderr)
        if self.first_digests is None:
            self.first_digests = digests

    def digest(self) -> str:
        return hashlib.sha256("\n".join(map(str, self.first_digests)).encode()).hexdigest()


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux


def measure(cli, ops, seconds: float, checker: Checker, setup: Setup) -> dict[str, float]:
    deadline = perf_counter() + seconds
    for _ in range(SETUP_REPEATS // 2):
        setup()
    passes = []
    while not passes or (
        perf_counter()
        + statistics.median(p.wall_s for p in passes)
        + statistics.median(setup.raw_s) * max(1, SETUP_REPEATS - len(setup.times))
        <= deadline
    ):
        passes.append(Pass(cli, ops))
        checker.check(passes[-1])
        setup()
    while len(setup.times) < SETUP_REPEATS:
        setup()
    scaled = [statistics.median(times) for times in zip(*(p.scaled_s for p in passes))]
    return {
        "wall_s": sum(scaled),
        "slowest_op_s": max(scaled),
        "peak_rss_mb": peak_rss_mb(),
        "setup_s": statistics.median(setup.times),
        "pass_wall_s": [p.wall_s for p in passes],
    }


def measure_traced(cli, ops, seconds: float, checker: Checker, names) -> dict[str, float]:
    untraced, traced, per_pass, refs = [], [], [], []
    deadline = perf_counter() + seconds
    while not traced or (
        perf_counter() + statistics.median(untraced) + statistics.median(traced) <= deadline
    ):
        plain = Pass(cli, ops)
        checker.check(plain)
        untraced.append(plain.wall_s)
        refs += plain.ref_s
        tracer = Tracer()
        tracer.install()
        try:
            p = Pass(cli, ops, tracer)
        finally:
            tracer.uninstall()
        checker.check(p)
        traced.append(p.wall_s - tracer.harness_s)
        # each pass of the pair in scaled seconds, by its own median reference sample
        overhead = traced[-1] / statistics.median(p.ref_s)
        overhead -= plain.wall_s / statistics.median(plain.ref_s)
        per_pass.append(tracer.metrics(names) | {"trace_overhead_s": overhead * REF_S})
    values = {name: statistics.median(m[name] for m in per_pass) for name in names}
    values["host.raw_wall_s"] = statistics.median(untraced)
    values["host.ref_ms"] = statistics.median(refs) * 1e3
    values["pass_wall_s"] = {"untraced": untraced, "traced": traced}
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=tuple(SIZES), default="full")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--workdir", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.setup_only:
        import_cli()
        write_inputs(plan(args.workload, args.seed, args.size, args.workdir))
        return 0

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    cli = import_cli()
    # relative paths: reports name their input, so digests must not depend on
    # where the checkout is or which process ran it
    os.chdir(ROOT)
    workdir = Path("perfbench", "_work", f"{args.workload}-{args.size}-{args.seed}")
    try:
        setup = Setup(args, workdir)
        ops = plan(args.workload, args.seed, args.size, workdir).ops
        checker = Checker(ops)
        if args.trace:
            setup()
            values = measure_traced(cli, ops, args.seconds, checker, [m["name"] for m in wanted])
        else:
            values = measure(cli, ops, args.seconds, checker, setup)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    error_rate = checker.failed / checker.attempted
    for m in wanted:
        print(f"{args.workload} seed={args.seed} {m['name']} = {values[m['name']]:.6g} {m['unit']}")
    print(f"{args.workload} seed={args.seed} error_rate = {error_rate:.6g} fraction")
    info = {"workload": args.workload, "seed": args.seed, "size": args.size, "trace": args.trace}
    info.update(digest=checker.digest(), error_rate=error_rate)
    info["pass_wall_s"] = values.get("pass_wall_s")
    print("perfbench-info " + json.dumps(info))
    result = {
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
