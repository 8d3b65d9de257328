"""Per-layer spans for the traced run, recorded from outside the program.

The tracer replaces the functions the CLI calls (as bound in the calling
module) with wrappers that time each call, and passes a timing proxy in place
of the scheduler to every stream runner.  A span's self time is its duration
minus the spans that ran inside it; a runner's self time also excludes the
time its scheduler's on_arrival took.  The tracer's own bookkeeping after a
call (counting, sizing a Trace) is timed into harness_s and charged to no span.
"""

from __future__ import annotations

import gc
import os
import sys
from collections import defaultdict
from time import perf_counter

# CLI algorithm key -> layer prefix of its decide_us metric
DECIDE_METRICS = {
    "round-robin": "engine.round_robin",
    "greedy-capped": "engine.greedy_capped",
    "constant": "constant",
    "robust-ordinal": "robust",
}


def _per(num: float, den: float) -> float:
    return num / den if den else 0.0


class TimedScheduler:
    """Stands in for a scheduler and accumulates the time spent in on_arrival."""

    def __init__(self, inner):
        self._inner = inner
        self.busy = 0.0
        self.calls = 0

    def on_arrival(self, *args):
        t0 = perf_counter()
        decision = self._inner.on_arrival(*args)
        self.busy += perf_counter() - t0
        self.calls += 1
        return decision

    def __getattr__(self, name):
        return getattr(self._inner, name)


def deep_size(obj) -> int:
    """Bytes held by obj and every object it reaches, each counted once."""
    seen, stack, total = set(), [obj], 0
    while stack:
        o = stack.pop()
        if id(o) in seen or isinstance(o, type):
            continue
        seen.add(id(o))
        total += sys.getsizeof(o)
        if not isinstance(o, (float, int, str, bytes)):
            stack.extend(gc.get_referents(o))
    return total


class Tracer:
    def __init__(self):
        self.t = defaultdict(float)  # self seconds per span key
        self.c = defaultdict(float)  # counters
        self.algo = ""  # --algo of the op being run, set by the caller
        self.harness_s = 0.0  # seconds spent in the after-call bookkeeping
        self._stack: list[str] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------
    def _span(self, key: str, fn, after=None, proxy_arg=None):
        """Wrap fn so each call adds its self time to key, then runs after(result, args)."""

        def wrapper(*args, **kwargs):
            proxy = None
            if proxy_arg is not None:
                proxy = TimedScheduler(args[proxy_arg])
                args = args[:proxy_arg] + (proxy,) + args[proxy_arg + 1 :]
            self._stack.append(key)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - t0
                self._stack.pop()
                self.t[key] += elapsed
                if self._stack:
                    self.t[self._stack[-1]] -= elapsed
            if proxy is not None:
                self.t[key] -= proxy.busy
                self.t[f"decide:{self.algo}"] += proxy.busy
                self.c[f"decide:{self.algo}"] += proxy.calls
            if after is not None:
                t1 = perf_counter()
                after(result, args)
                spent = perf_counter() - t1
                self.harness_s += spent
                if self._stack:
                    self.t[self._stack[-1]] -= spent
            return result

        return wrapper

    def _patch(self, module, name: str, key: str, after=None, proxy_arg=None) -> None:
        original = getattr(module, name, None)
        if original is None:
            print(f"perfbench: no {module.__name__}.{name}; {key} stays 0", file=sys.stderr)
            return
        self._patched.append((module, name, original))
        setattr(module, name, self._span(key, original, after, proxy_arg))

    def install(self) -> None:
        from cardsched import cli, engine, ordinal, robust

        c = self.c

        def count_jobs(jobs, _):
            c["jsonl.jobs"] += len(jobs)

        def count_trace(trace, _):
            c["engine.arrivals"] += trace.n
            worst = 0
            for r in trace.records:
                moves = len(r.migration.moves)
                c["engine.moves"] += moves
                c["engine.moved_size"] += r.migration.moved_size
                worst = max(worst, moves)
            if self.algo == "robust-ordinal":
                c["robust.moves_per_arrival_max"] = max(c["robust.moves_per_arrival_max"], worst)
            c["engine.trace_peak_mb"] = max(c["engine.trace_peak_mb"], deep_size(trace) / 2**20)

        def count_nodes(result, _):
            c["oracle.solves"] += 1
            c["oracle.nodes"] += result.nodes_explored
            c["oracle.nodes_max"] = max(c["oracle.nodes_max"], result.nodes_explored)
            c["oracle.root_closed"] += result.nodes_explored == 0

        def counter(key):
            def count(report, _):
                c[key] += report.n

            return count

        def report_bytes(_, args):
            c["cli.report_bytes"] += os.path.getsize(args[1])

        self._patch(cli, "load_jobs", "jsonl.load_s", count_jobs)
        self._patch(cli, "instance_from_sizes", "model.instance_s")
        self._patch(cli, "check_feasible", "model.check_feasible_s")
        self._patch(cli, "run_stream", "engine.runner_s", count_trace, proxy_arg=0)
        self._patch(cli, "competitive_metrics", "engine.metrics_s")
        for module in (cli, engine):
            self._patch(module, "exact_opt", "oracle.exact_s", count_nodes)
        self._patch(cli, "ordinal_schedule", "ordinal.schedule_s")
        for module in (ordinal, robust):
            self._patch(module, "ordinal_map", "ordinal.map_s")
        for name in ("pure_lb_drive", "balanced_lb_drive", "phi_lb_drive", "robust_lb_drive"):
            self._patch(cli, name, "adversaries.runner_s", counter("adversaries.jobs"), 0)
        for name in ("uniform_lb_drive", "identical_lb_report", "run_classed_stream"):
            self._patch(cli, name, "clcs.runner_s", counter("clcs.jobs"), 0)
        self._patch(cli, "_emit", "cli.emit_s", report_bytes)

    def uninstall(self) -> None:
        for module, name, original in reversed(self._patched):
            setattr(module, name, original)
        self._patched.clear()

    # -- results -------------------------------------------------------------
    def metrics(self, names) -> dict[str, float]:
        """The named metrics; a layer that never ran, and trace_overhead_s, read 0."""
        t, c = self.t, self.c
        out = {**t, **c}
        for algo, prefix in DECIDE_METRICS.items():
            out[f"{prefix}.decide_us"] = _per(t[f"decide:{algo}"] * 1e6, c[f"decide:{algo}"])
        out["engine.runner_us_per_arrival"] = _per(t["engine.runner_s"] * 1e6, c["engine.arrivals"])
        out["adversaries.runner_us_per_job"] = _per(
            t["adversaries.runner_s"] * 1e6, c["adversaries.jobs"]
        )
        out["oracle.us_per_node"] = _per(t["oracle.exact_s"] * 1e6, c["oracle.nodes"])
        out["oracle.root_closed_share"] = _per(c["oracle.root_closed"], c["oracle.solves"])
        return {name: float(out.get(name, 0.0)) for name in names}
