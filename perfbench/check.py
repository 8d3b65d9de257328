"""Independent checks of CLI reports, and digests for byte-level comparison.

Each check parses the report strictly (NaN and Infinity are refused) and
recomputes what it can from the generated inputs: machine counts against the
cap, makespans from transcripts or assignments, ratio arithmetic and bounds.
A check returns a list of problems; an empty list means the report passed.
"""

from __future__ import annotations

import hashlib
import json
import math
import re

_WALL_TIME = re.compile(rb'"wall_time_s": [^,\n}]+')
REL_TOL = 1e-9  # only where the program sums in another order than the check


def _refuse_constant(name: str):
    raise ValueError(f"non-finite number {name} in report")


def parse_strict(raw: bytes) -> dict:
    return json.loads(raw, parse_constant=_refuse_constant)


def digest(raw: bytes) -> str:
    """sha256 of the report bytes with the wall_time_s value masked."""
    return hashlib.sha256(_WALL_TIME.sub(b'"wall_time_s": null', raw)).hexdigest()


def _loads(sizes, machines, m: int) -> list[float]:
    loads = [0.0] * m
    for s, mach in zip(sizes, machines):
        loads[mach - 1] += s
    return loads


def _cap_problems(machines, m: int, k: int) -> list[str]:
    counts = [0] * (m + 1)
    for mach in machines:
        if not (isinstance(mach, int) and 1 <= mach <= m):
            return [f"machine {mach!r} outside [1, {m}]"]
        counts[mach] += 1
    worst = max(counts)
    return [f"a machine holds {worst} jobs, cap is {k}"] if worst > k else []


def _by_job(assignment: dict, n: int) -> list | None:
    """Machines of jobs 1..n from a {"job id": machine} map, or None if ids are off."""
    if sorted(assignment) != sorted(str(j) for j in range(1, n + 1)):
        return None
    return [assignment[str(j)] for j in range(1, n + 1)]


def _lower_bound(sizes, m: int) -> float:
    return max(max(sizes), sum(sizes) / m) if sizes else 0.0


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=0.0)


def check_run(r: dict, sizes: list, m: int, k: int, epsilon: float | None = None) -> list[str]:
    p = []
    n = len(sizes)
    if (r.get("command"), r.get("m"), r.get("k"), r.get("n")) != ("run", m, k, n):
        return [f"header mismatch: {r.get('command')} m={r.get('m')} k={r.get('k')} n={r.get('n')}"]
    final, denom, ratio = r["final_makespan"], r["denominator"], r["final_ratio"]
    if denom and ratio != final / denom:
        p.append(f"final_ratio {ratio} != final_makespan / denominator")
    lb = _lower_bound(sizes, m)
    if r["denominator_mode"] == "lower_bound":
        if denom != lb:
            p.append(f"denominator {denom} != lower bound {lb}")
    elif not (lb * (1 - REL_TOL) <= denom <= final * (1 + REL_TOL)):
        p.append(f"exact denominator {denom} outside [lower bound {lb}, makespan {final}]")
    if r["prefix_max_ratio"] is not None and r["prefix_max_ratio"] < ratio:
        p.append("prefix_max_ratio below final_ratio")
    if final < lb * (1 - REL_TOL):
        p.append(f"makespan {final} below lower bound {lb}")
    if r["algorithm"] == "ordinal":
        machines = _by_job(r["assignment"], n)
        if machines is None:
            return p + ["assignment does not list every job once"]
        p += _cap_problems(machines, m, k)
        if not p and not _close(max(_loads(sizes, machines, m)), final):
            p.append("makespan does not match the assignment")
        return p
    if "transcript_omitted" in r:
        return p + [f"transcript omitted for n = {n}"]
    if r["sizes"] != sizes:
        p.append("report sizes differ from the input")
    machines = r["machines"]
    if len(machines) != n:
        return p + ["machines list has the wrong length"]
    if r["algorithm"] == "robust-ordinal":
        # machines are first placements; migrations move jobs afterwards
        bound = (1 + epsilon) / epsilon
        if r["migration"]["max_factor"] > bound * (1 + REL_TOL):
            p.append(f"migration factor {r['migration']['max_factor']} above {bound}")
        return p
    if r["migration"]["total_moved"] != 0.0:
        p.append("a non-migrating scheduler moved jobs")
    p += _cap_problems(machines, m, k)
    if not p and max(_loads(sizes, machines, m), default=0.0) != final:
        p.append("final_makespan does not match the transcript")
    return p


def _srr_makespan(sizes, m: int) -> float:
    loads = [0.0] * m
    for i, s in enumerate(sorted(sizes, reverse=True)):
        loads[i % m] += s
    return max(loads)


def check_oracle(r: dict, sizes: list, m: int, k: int) -> list[str]:
    n = len(sizes)
    if (r.get("command"), r.get("m"), r.get("k"), r.get("n")) != ("oracle", m, k, n):
        return ["header mismatch"]
    p = []
    opt, lb = r["opt"], _lower_bound(sizes, m)
    if r["lower_bound"] != lb:
        p.append(f"lower_bound {r['lower_bound']} != {lb}")
    if opt < lb:
        p.append(f"opt {opt} below lower bound {lb}")
    if n and opt > _srr_makespan(sizes, m) * (1 + REL_TOL):
        p.append("opt above the sorted round-robin makespan")
    machines = _by_job(r["schedule"], n)
    if machines is None:
        return p + ["schedule does not list every job once"]
    p += _cap_problems(machines, m, k)
    if not p and n and not _close(max(_loads(sizes, machines, m)), opt):
        p.append("opt does not match the returned schedule")
    return p


def check_adversary(
    r: dict, m: int, k: int, n=None, cheap=None, alg=None, speeds=None
) -> list[str]:
    if (r.get("m"), r.get("k")) != (m, k):
        return ["header mismatch"]
    p = []
    if n is not None and r["n"] != n:
        p.append(f"n = {r['n']}, expected {n}")
    if r["ratio"] != r["alg_makespan"] / r["opt_value"]:
        p.append("ratio != alg_makespan / opt_value")
    if alg is not None and r["alg_makespan"] != alg:
        p.append(f"alg_makespan {r['alg_makespan']} != {alg}")
    if "transcript" in r:
        sizes = [s for s, _ in r["transcript"]]
        machines = [mach for _, mach in r["transcript"]]
        if "classes" in r:
            hosts = [set() for _ in range(m)]
            for c, mach in zip(r["classes"], machines):
                hosts[mach - 1].add(c)
            if max(len(h) for h in hosts) > k:
                p.append(f"a machine hosts more than {k} classes")
        else:
            p += _cap_problems(machines, m, k)
        speeds = speeds or [1.0] * m
        loads = _loads(sizes, machines, m)
        if not p and max(ld / sp for ld, sp in zip(loads, speeds)) != r["alg_makespan"]:
            p.append("alg_makespan does not match the transcript")
        if cheap is None and sizes:
            cheap = max(max(sizes) / max(speeds), sum(sizes) / sum(speeds))
        if r["opt_provenance"] == "constructive" and r["opt_value"] != _srr_makespan(sizes, m):
            p.append("constructive opt_value is not the sorted round-robin makespan")
    if cheap is None:
        p.append("no transcript and no reference to derive the cheap bound from")
    elif r["opt_value"] < cheap * (1 - REL_TOL):
        p.append(f"opt_value {r['opt_value']} below the cheap bound {cheap}")
    return p


def check_report(raw: bytes, kind: str, expect: dict) -> list[str]:
    try:
        r = parse_strict(raw)
    except ValueError as exc:
        return [f"not strict JSON: {exc}"]
    try:
        if kind == "run":
            return check_run(r, **expect)
        if kind == "oracle":
            return check_oracle(r, **expect)
        return check_adversary(r, **expect)
    except (KeyError, TypeError, ValueError) as exc:
        return [f"malformed report: {exc!r}"]
