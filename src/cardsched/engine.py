"""Online scheduling engine: scheduler contract, stream runner and metering.

Schedulers are single-use state machines.  The runner owns the authoritative
schedule: it applies each decision (migrations first, then the triggering
job), re-derives loads and refuses infeasible states with a ContractViolation
naming the arrival index.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

from .model import (
    ArrivalRecord,
    InfeasibleError,
    Instance,
    MigrationRecord,
    Trace,
    instance_from_sizes,
)
from .oracle import EXACT_RECOMMENDED_MAX_JOBS, exact_opt, lower_bound

PHI = (1.0 + math.sqrt(5.0)) / 2.0


class ContractViolation(Exception):
    """A scheduler emitted an infeasible or inconsistent decision."""

    def __init__(self, arrival: int, message: str):
        super().__init__(f"arrival {arrival}: {message}")
        self.arrival = arrival


class SchedulerDecision(NamedTuple):
    machine: int
    migrations: Optional[MigrationRecord] = None


class Scheduler:
    """Behavioral contract: construct with (m, k), then on_arrival per job.

    Placements are irrevocable for the triggering job; only schedulers with a
    migration budget may move previously placed jobs, and they declare those
    moves in the returned decision.
    """

    m: int
    k: int

    def on_arrival(self, size: float) -> SchedulerDecision:
        raise NotImplementedError


class StreamRunner:
    """Feeds a scheduler one job at a time and records the evidence trace.

    Per arrival the runner touches only the machines the decision names, so
    an arrival costs O(1) plus O(k) for each machine a migration touches.
    """

    def __init__(self, scheduler: Scheduler, m: int, k: int):
        self.scheduler = scheduler
        self.m = m
        self.k = k
        self.trace = Trace(m, k)
        self._sizes: dict[int, float] = {}
        self._assignment: dict[int, int] = {}
        self._jobs: list[set[int]] = [set() for _ in range(m)]  # job ids per machine
        self._loads = self.trace.loads = [0.0] * m
        self._counts = [0] * m
        self._makespan = 0.0

    def push(self, size: float) -> ArrivalRecord:
        if len(self._sizes) >= self.m * self.k:
            raise InfeasibleError(f"stream longer than capacity m*k = {self.m * self.k}")
        if not math.isfinite(size) or size < 0:
            raise ValueError(f"job size must be finite and >= 0, got {size}")
        jid = len(self._sizes) + 1
        decision = self.scheduler.on_arrival(size)
        machine = decision.machine
        if not 1 <= machine <= self.m:
            raise ContractViolation(jid, f"machine {machine} outside [1, {self.m}]")

        moves = decision.migrations.moves if decision.migrations is not None else ()
        moved_size = 0.0
        for mv in moves:
            if mv.job == jid:
                raise ContractViolation(jid, "trigger job listed in its own migrations")
            if self._assignment.get(mv.job) != mv.src:
                raise ContractViolation(
                    jid, f"move of job {mv.job} from machine {mv.src} does not match schedule"
                )
            if not 1 <= mv.dst <= self.m or mv.dst == mv.src:
                raise ContractViolation(jid, f"move of job {mv.job} to invalid machine {mv.dst}")
            self._assignment[mv.job] = mv.dst
            self._jobs[mv.src - 1].remove(mv.job)
            self._jobs[mv.dst - 1].add(mv.job)
            self._counts[mv.src - 1] -= 1
            self._counts[mv.dst - 1] += 1
            moved_size += self._sizes[mv.job]

        self._sizes[jid] = size
        self._assignment[jid] = machine
        self._jobs[machine - 1].add(jid)
        self._loads[machine - 1] += size
        self._counts[machine - 1] += 1
        # only touched machines can have gone over the cap
        if moves:
            touched = sorted({mv.src for mv in moves} | {mv.dst for mv in moves} | {machine})
        else:
            touched = (machine,)
        for mi in touched:
            c = self._counts[mi - 1]
            if c > self.k:
                raise ContractViolation(jid, f"machine {mi} holds {c} jobs, cap is {self.k}")

        if moves:
            # loads drift-free: re-sum each touched machine in job-id order
            for mi in touched:
                self._loads[mi - 1] = sum(self._sizes[j] for j in sorted(self._jobs[mi - 1]))
            self._makespan = max(self._loads)
        else:
            self._makespan = max(self._makespan, self._loads[machine - 1])
        record = ArrivalRecord(
            job=jid,
            size=size,
            machine=machine,
            migration=MigrationRecord(trigger=jid, moves=tuple(moves), moved_size=moved_size),
            makespan=self._makespan,
        )
        self.trace.records.append(record)
        return record


def run_stream(scheduler: Scheduler, sizes, m: int, k: int) -> Trace:
    """Run the whole stream; fails before dispatch if it cannot fit at all."""
    sizes = list(sizes)
    if len(sizes) > m * k:
        raise InfeasibleError(f"{len(sizes)} jobs exceed capacity m*k = {m * k}")
    runner = StreamRunner(scheduler, m, k)
    for s in sizes:
        runner.push(s)
    return runner.trace


@dataclass(frozen=True)
class CompetitiveMetrics:
    final_ratio: float
    prefix_max_ratio: float
    denominator: float
    mode: str


def _ratio(numer: float, denom: float) -> float:
    if denom == 0:
        return 1.0 if numer == 0 else math.inf
    return numer / denom


def competitive_metrics(trace: Trace, instance: Instance, mode: str = "exact") -> CompetitiveMetrics:
    """Final and prefix-max ratios of the trace against exact opt or the cheap lower bound.

    Adversaries stop mid-stream while the guarantees speak about the stopping
    point, so both views are reported.
    """
    if mode not in ("exact", "lower_bound"):
        raise ValueError(f"unknown mode {mode!r}")
    n = instance.n
    if trace.n != n:
        raise ValueError("trace and instance have different lengths")
    if mode == "exact":
        if n > EXACT_RECOMMENDED_MAX_JOBS:
            raise ValueError(
                f"exact mode guard: {n} jobs > {EXACT_RECOMMENDED_MAX_JOBS}; use lower_bound"
            )
        prefix_max = 0.0
        for t in range(1, n + 1):
            prefix = Instance(instance.jobs[:t], instance.m, instance.k)
            denom = exact_opt(prefix).opt_makespan
            prefix_max = max(prefix_max, _ratio(trace.records[t - 1].makespan, denom))
        final_denom = exact_opt(instance).opt_makespan if n else 0.0
    else:
        prefix_max = 0.0
        running_total = 0.0
        running_max = 0.0
        final_denom = 0.0
        for t in range(1, n + 1):
            running_total += instance.jobs[t - 1].size
            running_max = max(running_max, instance.jobs[t - 1].size)
            final_denom = max(running_max, running_total / instance.m)
            prefix_max = max(prefix_max, _ratio(trace.records[t - 1].makespan, final_denom))
        assert n == 0 or final_denom == lower_bound(instance)
    return CompetitiveMetrics(
        final_ratio=_ratio(trace.final_makespan(), final_denom),
        prefix_max_ratio=prefix_max,
        denominator=final_denom,
        mode=mode,
    )


@dataclass(frozen=True)
class MigrationStats:
    max_factor: float
    total_moved: float


def migration_stats(trace: Trace) -> MigrationStats:
    """Worst per-arrival migration factor (moved size / arriving size) and total moved size."""
    max_factor = 0.0
    total = 0.0
    for r in trace.records:
        moved = r.migration.moved_size
        total += moved
        if moved > 0:
            max_factor = max(max_factor, math.inf if r.size == 0 else moved / r.size)
    return MigrationStats(max_factor=max_factor, total_moved=total)


class RoundRobinScheduler(Scheduler):
    """Arrival i goes to machine ((i-1) mod m) + 1."""

    def __init__(self, m: int, k: int):
        self.m, self.k = m, k
        self._i = 0

    def on_arrival(self, size: float) -> SchedulerDecision:
        if self._i >= self.m * self.k:
            raise InfeasibleError("round-robin: capacity m*k exhausted")
        machine = self._i % self.m + 1
        self._i += 1
        return SchedulerDecision(machine)


class ListSchedulingCapped(Scheduler):
    """Greedy: lowest-load machine among those with fewer than k jobs, tie to lowest index.

    A heap on (load, index, count) holds every machine below the cap exactly
    once; a machine leaves it when it reaches k jobs.
    """

    def __init__(self, m: int, k: int):
        self.m, self.k = m, k
        self._heap = [(0.0, mi, 0) for mi in range(m)] if k > 0 else []  # sorted: a heap

    def on_arrival(self, size: float) -> SchedulerDecision:
        if not self._heap:
            raise InfeasibleError("greedy-capped: all machines hold k jobs")
        load, best, count = self._heap[0]
        if count + 1 < self.k:
            heapq.heapreplace(self._heap, (load + size, best, count + 1))
        else:
            heapq.heappop(self._heap)
        return SchedulerDecision(best + 1)


class PhiScheduler(Scheduler):
    """The m=k=2 special case; accepts at most four jobs.

    Jobs 1 and 2 go to different machines.  With p1 >= p2 (roles swapped
    otherwise), job 3 joins job 1 iff p3 <= p1/phi, else job 2; job 4 fills
    the machine holding a single job.
    """

    m = 2
    k = 2

    def __init__(self):
        self._sizes: list[float] = []
        self._machines: list[int] = []

    def on_arrival(self, size: float) -> SchedulerDecision:
        j = len(self._sizes) + 1
        if j > 4:
            raise InfeasibleError("phi scheduler accepts at most 4 jobs")
        if j == 1:
            machine = 1
        elif j == 2:
            machine = 2
        elif j == 3:
            if self._sizes[0] >= self._sizes[1]:
                big, small = self._machines[0], self._machines[1]
                p_big = self._sizes[0]
            else:
                big, small = self._machines[1], self._machines[0]
                p_big = self._sizes[1]
            machine = big if size <= p_big / PHI else small
        else:
            counts = [self._machines.count(1), self._machines.count(2)]
            machine = 1 if counts[0] == 1 else 2
        self._sizes.append(size)
        self._machines.append(machine)
        return SchedulerDecision(machine)


def round_robin_scheduler(m: int, k: int) -> RoundRobinScheduler:
    return RoundRobinScheduler(m, k)


def list_scheduling_capped(m: int, k: int) -> ListSchedulingCapped:
    return ListSchedulingCapped(m, k)


def phi_scheduler() -> PhiScheduler:
    return PhiScheduler()
