"""Time the constant scheduler in each of its modes, alone and under run_stream.

Usage (from the repository root, or with PYTHONPATH pointing at another
checkout's src/ to measure that one):

    PYTHONPATH=src python3 tools/bench_constant.py [--case NAME ...] [--repeat R]

Prints one JSON object per case.  Seconds are the median of R timed passes
(each on a fresh scheduler); the counters come from one extra untimed pass and
are deterministic: placements per mode, rows removed, the arrival at which
terminal mode starts, and digests of the machine sequence and of the final
structure_snapshot(), which two versions must share to make the same
decisions.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import platform
import statistics
import sys
import time

from cardsched.cli import generate_sizes
from cardsched.constant import ConstantCompetitiveScheduler
from cardsched.engine import run_stream

# name -> (m, k, n, generator, seed)
CASES = {
    "online-wide": (1000, 1000, 4000, "loguniform", 1),
    "terminal": (1000, 60, 60_000, "loguniform", 1),
    "fallback": (1000, 40, 40_000, "loguniform", 1),
    "interleaved-groups": (1000, 1000, 100_000, "groups", 0),
}


def sizes_for(gen: str, n: int, seed: int) -> list[float]:
    if gen == "groups":
        # sizes cycle through 2**0 .. 2**-19: at k = 1000 (l = 19) every
        # arrival goes to the next of 20 groups, whose rows fill side by side
        return [2.0 ** -(i % 20) for i in range(n)]
    return generate_sizes(gen, n, seed)


def counters(m: int, k: int, sizes: list[float]) -> dict:
    scheduler = ConstantCompetitiveScheduler(m, k)
    modes = {"fallback": 0, "live": 0, "terminal": 0}
    terminal_from = None
    for jid, size in enumerate(sizes, start=1):
        mode = "fallback" if scheduler.fallback else "terminal" if scheduler.terminal else "live"
        if mode == "terminal" and terminal_from is None:
            terminal_from = jid
        modes[mode] += 1
        scheduler.on_arrival(size)
    snap = scheduler.structure_snapshot()
    trace = run_stream(ConstantCompetitiveScheduler(m, k), sizes, m, k)
    return {
        "placements": modes,
        "rows_removed": len(snap.removed_rows),
        "terminal_from_arrival": terminal_from,
        "active_k_final": snap.active_k,
        "machines_sha256": hashlib.sha256(trace.machines.tobytes()).hexdigest(),
        "snapshot_sha256": hashlib.sha256(repr(snap).encode()).hexdigest(),
    }


def time_case(m: int, k: int, sizes: list[float], repeat: int) -> dict:
    alone, streamed = [], []
    for _ in range(repeat):
        scheduler = ConstantCompetitiveScheduler(m, k)
        t0 = time.perf_counter()
        for s in sizes:
            scheduler.on_arrival(s)
        alone.append(time.perf_counter() - t0)
        scheduler = ConstantCompetitiveScheduler(m, k)
        t0 = time.perf_counter()
        run_stream(scheduler, sizes, m, k)
        streamed.append(time.perf_counter() - t0)
    return {
        "scheduler_s": round(statistics.median(alone), 4),
        "run_stream_s": round(statistics.median(streamed), 4),
        "scheduler_s_all": [round(x, 4) for x in alone],
        "run_stream_s_all": [round(x, 4) for x in streamed],
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--case", action="append", choices=sorted(CASES))
    ap.add_argument("--repeat", type=int, default=3)
    args = ap.parse_args(argv)
    for name in args.case or list(CASES):
        m, k, n, gen, seed = CASES[name]
        sizes = sizes_for(gen, n, seed)
        row = {"case": name, "m": m, "k": k, "n": n, "generator": gen, "seed": seed}
        row.update(time_case(m, k, sizes, args.repeat))
        row.update(counters(m, k, sizes))
        row["python"] = platform.python_version()
        print(json.dumps(row), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
