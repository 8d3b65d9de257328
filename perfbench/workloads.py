"""Seeded workload plans: the input files each workload writes and the CLI ops it runs.

A plan is a pure function of (workload, seed, size).  The set-up step writes
its input files; the measuring process rebuilds the same plan in memory so
that every report can be checked against the generated sizes, never against
anything the program read back.

Oracle inputs are the first instances of the fixed baseline sets (seed 515:
small instances; seed 3: n = 20, m = 4, k = 5, 60 k to 154 k nodes each).
The full sets make one pass take 12 s, and the seed-3 set's 1.40 M-node
instance 3 alone takes 3 to 4.5 s: too long to repeat often enough within a
run for its fastest time to be steady.  Branch-and-bound node counts are heavy-tailed
over random instances (the 300-instance set takes 2.31 M nodes at seed 515
and 3.82 M at seed 516), so `--seed` only shuffles the arrival order inside
each instance.  exact_opt sorts by size first, so its search, and every node
count, is the same for every seed.  The exact-mode metering streams are fixed
for the same reason: prefix solves depend on arrival order.  Seed 0 keeps
the baseline order.  The adversary drives take no random input (each size
depends only on the scheduler's earlier choices), so the seed does not
change adversary-drive.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path

WORKLOADS = ("online-wide", "ordinal-robust", "oracle-exact", "adversary-drive")

SMALL_PAIRS = ((4, 5), (5, 4), (3, 6), (2, 6))
SMALL_SEED = 515
HARD_SEED = 3
HARD_M, HARD_K = 4, 5

# Sizes of each workload.  "full" is the measured benchmark; "smoke" is the same
# set of ops at toy size, for the benchmark's own tests.
SIZES = {
    "full": {
        "online_m": 1000,
        "online_n": 4000,
        "robust_mk": 100,
        "robust_streams": 4,
        "robust_n": 1000,
        "robust_eps": "0.5",
        "ordinal_n": 4000,
        "small_count": 100,
        "small_max_n": 20,
        "hard_count": 3,
        "hard_n": 20,
        "exact_streams": 2,
        "rr_balanced": (3, 100_000),
        "rr_pure": (600, 600),
        "constant_balanced": (3, 2000),
        "clcs_uniform": (50, 20, 20_000),
    },
    "smoke": {
        "online_m": 1000,
        "online_n": 200,
        "robust_mk": 20,
        "robust_streams": 2,
        "robust_n": 100,
        "robust_eps": "0.5",
        "ordinal_n": 200,
        "small_count": 20,
        "small_max_n": 10,
        "hard_count": 2,
        "hard_n": 10,
        "exact_streams": 2,
        "rr_balanced": (3, 50),
        "rr_pure": (10, 10),
        "constant_balanced": (3, 60),
        "clcs_uniform": (5, 3, 20),
    },
}


@dataclass
class Op:
    """One CLI invocation plus what the independent check needs to know."""

    argv: list[str]
    out: Path
    kind: str  # run | oracle | adversary
    algo: str
    expect: dict = field(default_factory=dict)


@dataclass
class Plan:
    files: dict[Path, list]  # JSONL path -> sizes
    ops: list[Op]


def loguniform(rng: random.Random, n: int) -> list[float]:
    return [2.0 ** rng.uniform(-10.0, 10.0) for _ in range(n)]


def small_oracle_set(count: int, max_n: int) -> list[tuple[list[int], int, int]]:
    """The first `count` of the ROADMAP's 300-instance baseline set (seed 515) when max_n >= 20."""
    rng = random.Random(SMALL_SEED)
    out = []
    for _ in range(count):
        m, k = rng.choice(SMALL_PAIRS)
        n = min(rng.randint(1, m * k), max_n)
        out.append(([rng.randint(0, 100) for _ in range(n)], m, k))
    return out


def hard_oracle_set(count: int, n: int) -> list[list[int]]:
    """The ROADMAP's seed-3 recipe: instance 3 of n = 20 takes 1.40 M nodes."""
    rng = random.Random(HARD_SEED)
    return [[rng.randint(0, 100) for _ in range(n)] for _ in range(count)]


def _shuffled(sizes: list, rng: random.Random | None) -> list:
    sizes = list(sizes)
    if rng is not None:
        rng.shuffle(sizes)
    return sizes


def plan(workload: str, seed: int, size: str, workdir: Path) -> Plan:
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    z = SIZES[size]
    inputs, reports = workdir / "inputs", workdir / "reports"
    files: dict[Path, list] = {}
    ops: list[Op] = []

    def add(argv: list[str], kind: str, algo: str, **expect) -> None:
        out = reports / f"{len(ops):04d}.json"
        ops.append(Op(argv + ["--out", str(out)], out, kind, algo, expect))

    def run(algo: str, sizes: list, m: int, k: int, name: str, *extra: str) -> None:
        path = inputs / name
        files[path] = sizes
        argv = ["run", "--algo", algo, "--m", str(m), "--k", str(k), "--input", str(path)]
        add(argv + list(extra), "run", algo, sizes=sizes, m=m, k=k)

    if workload == "online-wide":
        m = z["online_m"]
        sizes = loguniform(random.Random(seed), z["online_n"])
        for algo in ("round-robin", "greedy-capped", "constant"):
            run(algo, sizes, m, m, "stream.jsonl")
    elif workload == "ordinal-robust":
        mk, eps = z["robust_mk"], z["robust_eps"]
        rng = random.Random(seed)
        # several short streams, not one long one: each op is timed next to the
        # reference samples around it, which track the host best over short ops
        for i in range(z["robust_streams"]):
            sizes = loguniform(rng, z["robust_n"])
            run("robust-ordinal", sizes, mk, mk, f"robust-{i}.jsonl", "--epsilon", eps)
            ops[-1].expect["epsilon"] = float(eps)
        run("ordinal", loguniform(rng, z["ordinal_n"]), mk, mk, "ordinal.jsonl")
    elif workload == "oracle-exact":
        perm = random.Random(seed) if seed else None
        for i, (sizes, m, k) in enumerate(small_oracle_set(z["small_count"], z["small_max_n"])):
            path = inputs / f"small-{i:03d}.jsonl"
            files[path] = _shuffled(sizes, perm)
            argv = ["oracle", "--m", str(m), "--k", str(k), "--input", str(path)]
            add(argv, "oracle", "oracle", sizes=files[path], m=m, k=k)
        hard = hard_oracle_set(z["hard_count"], z["hard_n"])
        for i, sizes in enumerate(hard):
            path = inputs / f"hard-{i}.jsonl"
            files[path] = _shuffled(sizes, perm)
            argv = ["oracle", "--m", str(HARD_M), "--k", str(HARD_K), "--input", str(path)]
            add(argv, "oracle", "oracle", sizes=files[path], m=HARD_M, k=HARD_K)
        for i, sizes in enumerate(hard[: z["exact_streams"]]):
            run("greedy-capped", sizes, HARD_M, HARD_K, f"exact-{i}.jsonl", "--mode", "exact")
    else:
        m, k = z["rr_balanced"]
        n_param = 10
        argv = ["adversary", "--family", "balanced-lb", "--algo", "round-robin"]
        argv += ["--m", str(m), "--k", str(k), "--n-param", str(n_param)]
        add(argv, "adversary", "round-robin", **expect_rr_balanced(m, k, n_param))
        m, k = z["rr_pure"]
        argv = ["adversary", "--family", "pure-lb", "--algo", "round-robin"]
        argv += ["--m", str(m), "--k", str(k)]
        add(argv, "adversary", "round-robin", **expect_rr_pure(m, k))
        m, k = z["constant_balanced"]
        argv = ["adversary", "--family", "balanced-lb", "--algo", "constant"]
        add(argv + ["--m", str(m), "--k", str(k)], "adversary", "constant", m=m, k=k)
        m, k, big_m = z["clcs_uniform"]
        argv = ["clcs", "adversary", "--family", "uniform-lb"]
        argv += ["--m", str(m), "--k", str(k), "--big-m", str(big_m)]
        add(argv, "adversary", "greedy-clcs", **expect_clcs_uniform(m, k, big_m))
    return Plan(files, ops)


# Independent references for the adversary drives.  The CLI omits transcripts
# above 10 000 jobs, so the job count, the cheap bound and (for round-robin)
# the algorithm's makespan are derived from each drive's definition instead.


def expect_rr_balanced(m: int, k: int, n_param: int) -> dict:
    """balanced-lb vs round-robin (m <= round cap): round 1 is one job on machine 1,
    every later round deals sizes N^0..N^(m-1) to machines 2..m, 1."""
    sizes_round = [float(n_param) ** e for e in range(m)]
    total = 1.0 + (k - 1) * sum(sizes_round)
    loads = [1.0 + (k - 1) * sizes_round[-1]] + [(k - 1) * s for s in sizes_round[:-1]]
    return {
        "m": m,
        "k": k,
        "n": 1 + (k - 1) * m,
        "cheap": max(sizes_round[-1], total / m),
        "alg": max(loads),
    }


def expect_rr_pure(m: int, k: int) -> dict:
    """pure-lb vs round-robin (m >= k): every machine ends with k-1 units,
    so the size-k job lands on machine 1."""
    return {
        "m": m,
        "k": k,
        "n": m * (k - 1) + 1,
        "cheap": max(float(k), (m * (k - 1) + k) / m),
        "alg": float(2 * k - 1),
    }


def expect_clcs_uniform(m: int, k: int, big_m: int, speed=2.0, beta=1.0, eps=0.01) -> dict:
    """uniform-lb with the CLI's default speed, beta and eps: m*k unit jobs, then
    round(M*beta) rounds over min(k, m-1) classes of size 1/beta - eps."""
    rounds, classes = round(big_m * beta), min(k, m - 1)
    small = 1.0 / beta - eps
    total = m * k + rounds * classes * small
    return {
        "m": m,
        "k": k,
        "n": m * k + rounds * classes,
        "speeds": [1.0] + [speed] * (m - 1),
        "cheap": max(1.0 / speed, total / (1.0 + (m - 1) * speed)),
    }


def write_inputs(p: Plan) -> None:
    for path, sizes in p.files.items():
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("".join(json.dumps({"size": s}) + "\n" for s in sizes), encoding="utf-8")
    for op in p.ops:
        op.out.parent.mkdir(parents=True, exist_ok=True)
