"""Command-line harness: run schedulers, drive adversaries, query the oracle.

Reports are JSON objects (schema version 1) on stdout or --out.  Floats are
serialized with Python's shortest round-tripping repr, so replaying a report
reproduces makespans bit-exactly.  Transcripts longer than TRANSCRIPT_LIMIT
entries are omitted from the JSON (the length is always present).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import random
import sys
import time
from itertools import chain

from .adversaries import (
    AdversaryReport,
    balanced_lb_drive,
    phi_lb_drive,
    pure_lb_drive,
    robust_lb_drive,
)
from .clcs import (
    GreedyClcsScheduler,
    clcs_makespan,
    identical_lb_report,
    run_classed_stream,
    uniform_lb_drive,
)
from .constant import ConstantCompetitiveScheduler
from .engine import (
    ContractViolation,
    ListSchedulingCapped,
    PhiScheduler,
    RoundRobinScheduler,
    competitive_metrics,
    migration_stats,
    run_stream,
    safe_ratio,
)
from .jsonl import load_jobs
from .model import InfeasibleError, check_feasible, instance_from_sizes, makespan
from .oracle import EXACT_RECOMMENDED_MAX_JOBS, exact_guard, exact_opt, lower_bound, opt_makespan
from .ordinal import ordinal_map, ordinal_schedule
from .robust import RobustOrdinalScheduler

SCHEMA_VERSION = 1
TRANSCRIPT_LIMIT = 10000
MAX_MACHINES = 2**31 - 1  # the most machines a run takes; every run sizes loads and counts by m
# online scheduler key -> constructor(m, k, epsilon)
SCHEDULERS = {
    "round-robin": lambda m, k, eps: RoundRobinScheduler(m, k),
    "greedy-capped": lambda m, k, eps: ListSchedulingCapped(m, k),
    "phi": lambda m, k, eps: PhiScheduler(m, k),
    "constant": lambda m, k, eps: ConstantCompetitiveScheduler(m, k),
    "robust-ordinal": RobustOrdinalScheduler,
}


def generate_sizes(name: str, n: int, seed: int) -> list[float]:
    rng = random.Random(seed)
    if name == "uniform":
        return [rng.uniform(1.0, 100.0) for _ in range(n)]
    if name == "loguniform":
        return [2.0 ** rng.uniform(-10.0, 10.0) for _ in range(n)]
    raise ValueError(f"unknown generator {name!r}")


# the C encoder: json.dumps uses it only without indent, below Python 3.13
_c_encode = json.JSONEncoder(allow_nan=False).encode
_dumps = functools.partial(json.dumps, indent=2, sort_keys=True, allow_nan=False)
_encode_key = json.encoder.encode_basestring_ascii  # a TypeError for keys that are not str
_SCALAR_TYPES = {int, float, type(None)}
_LIST_TYPES = {list, tuple}


@functools.cache
def _c_encoder(inner: str):
    """The C encoder that writes a flat container's items on lines starting with `inner`."""
    return json.JSONEncoder(allow_nan=False, sort_keys=True, separators=("," + inner, ": ")).encode


def _encode(value, indent: str = "\n") -> str:
    """What json.dumps(value, indent=2, sort_keys=True, allow_nan=False) returns.

    `indent` is a newline plus the indentation of the line `value` starts
    on.  A non-empty list of plain ints, floats and Nones, and a dict of such
    values under str keys (an assignment), is one call of a C encoder whose
    item separator carries the newline and indentation, inside this
    container's brackets; a list of non-empty such rows (a transcript) is one
    C encoder call whose "], [" and ", " separators are replaced, which
    number text never contains.  Other dicts and lists recurse, and scalars
    go through the C encoder.  A value json.dumps refuses raises here too,
    but not always with its message (a non-finite float's lacks the `: inf`
    suffix, a key that is not a str gives a TypeError), so callers fall back
    to json.dumps.
    """
    if isinstance(value, dict):
        if not value:
            return "{}"
        inner = indent + "  "
        if set(map(type, value)) == {str} and set(map(type, value.values())) <= _SCALAR_TYPES:
            return "{" + inner + _c_encoder(inner)(value)[1:-1] + indent + "}"
        items = (_encode_key(key) + ": " + _encode(value[key], inner) for key in sorted(value))
        return "{" + inner + ("," + inner).join(items) + indent + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        inner = indent + "  "
        kinds = set(map(type, value))
        if kinds <= _SCALAR_TYPES:
            return "[" + inner + _c_encoder(inner)(value)[1:-1] + indent + "]"
        if (
            kinds <= _LIST_TYPES
            and all(value)
            and set(map(type, chain.from_iterable(value))) <= _SCALAR_TYPES
        ):
            row = inner + "  "
            text = _c_encode(value)[2:-2].replace("], [", inner + "]," + inner + "[" + row)
            text = text.replace(", ", "," + row)
            return "[" + inner + "[" + row + text + inner + "]" + indent + "]"
        items = (_encode(item, inner) for item in value)
        return "[" + inner + ("," + inner).join(items) + indent + "]"
    return _c_encode(value)


def _emit(report: dict, out: str | None) -> None:
    """Write json.dumps(report, indent=2, sort_keys=True, allow_nan=False): with the
    interpreter's own C encoder where it takes an indent (Python 3.13 on), else _encode."""
    if sys.version_info >= (3, 13):
        text = _dumps(report)
    else:
        try:
            text = _encode(report)
        except (ValueError, TypeError):  # json.dumps words the refusal, or writes a non-str key
            text = _dumps(report)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _load_sizes(args, refuse) -> list[float]:
    """The job sizes.  `refuse(n)` raises for a stream length the command
    cannot take: after a file's sizes are checked, before --gen makes any."""
    if args.input and args.gen:
        raise ValueError("--input and --gen both name the jobs; pass one")
    if args.gen:
        if args.n is None:
            raise ValueError("--gen needs --n, the stream length")
        if args.n < 0:
            raise ValueError(f"--n must be >= 0, got {args.n}")
        refuse(args.n)
        return generate_sizes(args.gen, args.n, args.seed)  # sizes in [2**-10, 100]: a finite sum
    if not args.input:
        raise ValueError("either --input or --gen is required")
    sizes = [size for size, _ in load_jobs(args.input)]
    # at m = 1 the bound is the total, the left fold metering forms too (sum() compensates on 3.12+)
    if not math.isfinite(lower_bound(sizes, 1)):
        raise ValueError("the job sizes sum past the largest float")
    refuse(len(sizes))
    return sizes


def cmd_run(args) -> dict:
    m, k = args.m, args.k

    def refuse(n: int) -> None:
        # the runner and Instance refuse these too, but only after the exact guard below
        if m < 1 or k < 1:
            raise ValueError("m and k must be >= 1")
        if n > m * k:
            raise InfeasibleError(f"infeasible: {n} jobs exceed capacity m*k = {m * k}")
        if args.mode == "exact":
            exact_guard(n)  # before the stream runs, not after

    sizes = _load_sizes(args, refuse)
    auto_exact = args.mode == "auto" and len(sizes) <= EXACT_RECOMMENDED_MAX_JOBS
    mode = "exact" if args.mode == "exact" or auto_exact else "lower_bound"
    report = {
        "command": "run",
        "algorithm": args.algo,
        "m": m,
        "k": k,
        "n": len(sizes),
        "seed": args.seed if args.gen else None,
        "generator": args.gen,
        "input": args.input,
        "denominator_mode": mode,
    }
    if args.algo == "ordinal":
        instance = instance_from_sizes(sizes, m, k)
        schedule = ordinal_schedule(instance)
        violations = check_feasible(schedule, instance)
        if violations:
            raise ContractViolation(len(sizes), "; ".join(violations))
        final = makespan(schedule, instance)
        denom = opt_makespan(instance) if mode == "exact" else lower_bound(sizes, m)
        report.update(
            {
                "final_makespan": final,
                "denominator": denom,
                "final_ratio": safe_ratio(final, denom),
                "prefix_max_ratio": None,
                "migration": {"total_moved": 0.0, "max_factor": 0.0},
                "assignment": {str(j): mach for j, mach in sorted(schedule.items())},
            }
        )
        if args.emit_map:
            report["ordinal_map"] = list(ordinal_map(m, k))
    else:
        scheduler = SCHEDULERS[args.algo](m, k, args.epsilon)
        trace = run_stream(scheduler, sizes, m, k)
        metrics = competitive_metrics(trace, mode)
        stats = migration_stats(trace)
        report.update(
            {
                "final_makespan": trace.final_makespan(),
                "denominator": metrics.denominator,
                "final_ratio": metrics.final_ratio,
                "prefix_max_ratio": metrics.prefix_max_ratio,
                "migration": {
                    "total_moved": stats.total_moved,
                    "max_factor": stats.max_factor,
                },
            }
        )
        if args.algo == "robust-ordinal":
            report["epsilon"] = args.epsilon
        if len(sizes) <= TRANSCRIPT_LIMIT:
            report["sizes"] = sizes
            report["machines"] = list(trace.machines)
        else:
            report["transcript_omitted"] = True
        if args.dump_structure and args.algo == "constant":
            report["structure"] = scheduler.structure_snapshot()
    return report


def cmd_oracle(args) -> dict:
    sizes = _load_sizes(args, exact_guard)
    result = exact_opt(instance_from_sizes(sizes, args.m, args.k))
    return {
        "command": "oracle",
        "m": args.m,
        "k": args.k,
        "n": len(sizes),
        "opt": result.opt_makespan,
        "schedule": {str(j): mach for j, mach in sorted(result.schedule.items())},
        "nodes_explored": result.nodes_explored,
        "lower_bound": lower_bound(sizes, args.m),
    }


def _report_to_dict(report: AdversaryReport, extra: dict) -> dict:
    out = {
        "command": "adversary",
        "family": report.family,
        "m": report.m,
        "k": report.k,
        "n": report.n,
        "alg_makespan": report.alg_makespan,
        "opt_value": report.opt_value,
        "opt_provenance": report.opt_provenance,
        "ratio": report.ratio,
        "note": report.note,
    }
    out.update(extra)
    if report.n <= TRANSCRIPT_LIMIT:
        out["transcript"] = [[size, mach] for size, mach in report.transcript]
        if report.classes is not None:
            out["classes"] = list(report.classes)
    else:
        out["transcript_omitted"] = True
    return out


# adversary family -> drive(scheduler, args), with the family's --n-param default;
# each drive is called by name, so a patched module attribute is the one that runs
ADVERSARIES = {
    "pure-lb": lambda s, a: pure_lb_drive(
        s, a.m, a.k, float(a.k) if a.n_param is None else a.n_param
    ),
    "balanced-lb": lambda s, a: balanced_lb_drive(
        s, a.m, a.k, 10.0 if a.n_param is None else a.n_param, a.round_cap
    ),
    "robust-lb": lambda s, a: robust_lb_drive(s, a.m, a.k),
    "phi-lb": lambda s, a: phi_lb_drive(s, a.big_m),
}
# ClCS adversary family -> drive(greedy ClCS scheduler, args)
CLCS_ADVERSARIES = {
    "identical-lb": lambda s, a: identical_lb_report(s, a.m, a.k),
    "uniform-lb": lambda s, a: uniform_lb_drive(
        s, a.m, a.k, a.speed, a.beta, a.eps_param, a.big_m
    ),
}


def cmd_adversary(args) -> dict:
    m, k = (2, 2) if args.family == "phi-lb" else (args.m, args.k)  # phi-lb plays on m = k = 2
    report = ADVERSARIES[args.family](SCHEDULERS[args.algo](m, k, args.epsilon), args)
    return _report_to_dict(report, {"algorithm": args.algo})


def cmd_clcs_run(args) -> dict:
    jobs = load_jobs(args.input, classed=True)
    speeds = [float(x) for x in args.speeds.split(",")] if args.speeds else [1.0] * args.m
    drive = run_classed_stream(GreedyClcsScheduler(args.m, args.k), jobs, args.m, args.k)
    return {
        "command": "clcs-run",
        "algorithm": "greedy-clcs",
        "m": args.m,
        "k": args.k,
        "n": drive.n,
        "speeds": speeds,
        "makespan": clcs_makespan(drive.loads, speeds),
        "loads": list(drive.loads),
        "machines": list(drive.trace.machines),
    }


def cmd_clcs_adversary(args) -> dict:
    report = CLCS_ADVERSARIES[args.family](GreedyClcsScheduler(args.m, args.k), args)
    return _report_to_dict(report, {"algorithm": "greedy-clcs", "command": "clcs-adversary"})


def _add_input_args(p: argparse.ArgumentParser):
    p.add_argument("--input", help="JSONL instance file")
    p.add_argument("--gen", choices=("uniform", "loguniform"), help="size generator")
    p.add_argument("--n", type=int, help="generated stream length (with --gen)")
    p.add_argument("--seed", type=int, default=0, help="generator seed")


@functools.cache  # built on the first main() call, not at import; parse_args leaves it as it is
def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="cardsched", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a scheduler on an instance")
    p_run.add_argument("--algo", required=True, choices=(*SCHEDULERS, "ordinal"))
    p_run.add_argument("--m", type=int, required=True)
    p_run.add_argument("--k", type=int, required=True)
    _add_input_args(p_run)
    p_run.add_argument("--epsilon", type=float, default=1.0, help="robust-ordinal accuracy")
    p_run.add_argument("--mode", choices=("auto", "exact", "lower-bound"), default="auto")
    p_run.add_argument("--dump-structure", action="store_true")
    p_run.add_argument("--emit-map", action="store_true")
    p_run.add_argument("--out")
    p_run.set_defaults(handler=cmd_run)

    p_oracle = sub.add_parser("oracle", help="exact offline optimum")
    p_oracle.add_argument("--m", type=int, required=True)
    p_oracle.add_argument("--k", type=int, required=True)
    _add_input_args(p_oracle)
    p_oracle.add_argument("--out")
    p_oracle.set_defaults(handler=cmd_oracle)

    p_adv = sub.add_parser("adversary", help="drive a lower-bound adversary")
    p_adv.add_argument("--family", required=True, choices=tuple(ADVERSARIES))
    p_adv.add_argument("--algo", required=True, choices=tuple(SCHEDULERS))
    p_adv.add_argument("--m", type=int, default=2)
    p_adv.add_argument("--k", type=int, default=2)
    p_adv.add_argument("--n-param", type=float, default=None, help="N for pure/balanced families")
    p_adv.add_argument("--round-cap", type=int, default=100)
    p_adv.add_argument("--big-m", type=float, default=1e4, help="M for the phi family")
    p_adv.add_argument("--epsilon", type=float, default=1.0)
    p_adv.add_argument("--out")
    p_adv.set_defaults(handler=cmd_adversary)

    p_clcs = sub.add_parser("clcs", help="class-constrained scheduling")
    clcs_sub = p_clcs.add_subparsers(dest="clcs_command", required=True)
    c_run = clcs_sub.add_parser("run", help="greedy ClCS on a classed JSONL instance")
    c_run.add_argument("--m", type=int, required=True)
    c_run.add_argument("--k", type=int, required=True)
    c_run.add_argument("--input", required=True)
    c_run.add_argument("--speeds", help="comma-separated machine speeds")
    c_run.add_argument("--out")
    c_run.set_defaults(handler=cmd_clcs_run)
    c_adv = clcs_sub.add_parser("adversary", help="ClCS lower-bound drivers vs greedy")
    c_adv.add_argument("--family", required=True, choices=tuple(CLCS_ADVERSARIES))
    c_adv.add_argument("--m", type=int, required=True)
    c_adv.add_argument("--k", type=int, default=1)
    c_adv.add_argument("--speed", type=float, default=2.0)
    c_adv.add_argument("--beta", type=float, default=1.0)
    c_adv.add_argument("--eps-param", type=float, default=0.01)
    c_adv.add_argument("--big-m", type=int, default=200)
    c_adv.add_argument("--out")
    c_adv.set_defaults(handler=cmd_clcs_adversary)
    return parser


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    started = time.perf_counter()
    try:
        if args.m > MAX_MACHINES:  # before any scheduler, map or solver sizes itself by m
            raise ValueError(f"--m must be at most {MAX_MACHINES}, got {args.m}")
        report = args.handler(args)
        report.update(schema=SCHEMA_VERSION, wall_time_s=time.perf_counter() - started)
        _emit(report, args.out)
    except (InfeasibleError, ContractViolation, ValueError, OverflowError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:  # its message is empty
        print("error: out of memory", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
