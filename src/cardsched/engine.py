"""Online scheduling engine: scheduler contract, stream runner and metering.

Schedulers are single-use state machines.  A decision is the arriving job's
machine, an int, or a (machine, moves) pair when earlier jobs move, each
move a (job, src, dst) triple.  One runner serves online runs, the adversary
drives and ClCS: it owns the authoritative schedule, is the one place that
checks and prices moves, re-derives loads and refuses infeasible states with
a ContractViolation naming the arrival index.  Metering reads only the trace.
"""

from __future__ import annotations

import heapq
import math
import sys
from bisect import bisect_left, insort
from collections import defaultdict
from dataclasses import dataclass
from functools import partial
from itertools import cycle, islice

from .model import InfeasibleError, MigrationRecord, Trace, instance_from_sizes
from .oracle import exact_guard, lower_bound, opt_makespan

PHI = (1.0 + math.sqrt(5.0)) / 2.0
_MAX_SIZE = sys.float_info.max
_MAX_CLASS = 2**63 - 1  # classes are signed 64-bit integers, as the job contract says


class ContractViolation(Exception):
    """A scheduler emitted an infeasible or inconsistent decision."""

    def __init__(self, arrival: int, message: str):
        super().__init__(f"arrival {arrival}: {message}")
        self.arrival = arrival


class Scheduler:
    """Behavioral contract: construct with (m, k), then on_arrival per job.

    `on_arrival` returns the arriving job's machine in [1, m], an int.
    Placements are irrevocable for the triggering job; only schedulers with a
    migration budget may move previously placed jobs, and they return a
    (machine, moves) pair instead, `moves` a tuple of (job, src, dst)
    triples (an empty one is a plain placement).  A scheduler sees only the
    arrivals its runner admits (at most m*k jobs, each size finite and
    >= 0), so it keeps no copy of that check.
    """

    m: int
    k: int

    def on_arrival(self, size: float) -> int | tuple[int, tuple[tuple[int, int, int], ...]]:
        raise NotImplementedError


class StreamRunner:
    """Feeds a scheduler its jobs in order, checks each decision, records the trace.

    The runner is the one online owner of the job contract: at most m*k
    jobs, each size finite and >= 0 (a `classed` runner, for ClCS, has no
    job limit).  `feed` is the one arrival loop; `push` is its one-job case.
    Run whole streams through `feed`: its hot state lives in locals and
    `islice` stops the source at the capacity, so an arrival costs a
    scheduler call plus a fixed handful of checks and column appends, and
    counts nothing (about 0.19 us per arrival on pure-lb vs round-robin, the
    scheduler's own time excluded, and 0.07 us for round-robin's decision, a
    C call; CPython 3.11 on a shared 2-vCPU host, `BENCH_27.json`).
    The size, machine and class columns are lists of the fed objects, so a
    size is recorded as fed (an int stays an int); every sum starts from
    0.0, so loads and makespans come out as for the same sizes as floats.
    At most k jobs, or for a classed runner k distinct classes, per machine:
    a count is tested as it rises (only the arriving machine and a move's
    destination gain jobs), a hosted class costs one set lookup, and an
    arrival costs O(1) plus a re-sum of each machine a migration touches.
    The per-machine job lists that migrations need are built on the first
    arrival that moves jobs, from the trace's machine column: O(n), and a
    list only for a machine that has held a job.  Each list stays ascending
    (an arrival appends the largest id, a move bisects, which also checks
    that the job is on its source), so a re-sum adds in job-id order
    without sorting.  The new makespan comes from the machines a migration
    touches; only when one of them held the makespan and all of them fell
    below it are all m loads scanned.
    """

    def __init__(self, scheduler: Scheduler, m: int, k: int, classed: bool = False):
        if m < 1 or k < 1:
            raise ValueError("m and k must be >= 1")
        self.scheduler = scheduler
        self.m = m
        self.k = k
        self.trace = Trace(m, k)
        self.loads = self.trace.loads = [0.0] * m
        self.counts = [0] * m
        self._capacity = sys.maxsize if classed else m * k  # ClCS: no job limit
        # ClCS only: the class of every job (the caller's ints) and the classes each
        # machine hosts, keyed by 0-based machine; a set is made when its machine is first used
        self.classes: list[int] | None = [] if classed else None
        self.class_sets: defaultdict[int, set[int]] | None = defaultdict(set) if classed else None
        # machine -> its ascending job ids, from the first arrival that moves jobs
        # on; only machines that have held a job have a list
        self._jobs: defaultdict[int, list[int]] | None = None

    @property
    def n(self) -> int:
        return len(self.trace.sizes)

    def push(self, job) -> int:
        """Apply one arrival (a size, or a (size, class) pair); returns its machine."""
        self.feed((job,))
        return self.trace.machines[-1]

    def feed(self, jobs) -> None:
        """Apply the arrivals `jobs` in order: sizes, or (size, class) pairs on a classed runner.

        This is the runner's one arrival loop.  It draws the next job only
        after the previous arrival is fully applied and recorded, so an
        adaptive adversary can be a generator that reads the trace between
        its yields.  An arrival is refused before its scheduler call if the
        stream is over capacity, its size is not finite and >= 0, or its
        class is not in [1, 2**63 - 1], checked in that order; a classed job
        that does not unpack into a pair is refused by the unpacking.  Such a
        refusal, a scheduler error or a machine out of range leaves the
        runner as it was after the last applied arrival, running makespan
        included, so the stream can go on; a ContractViolation on the
        machines an arrival touches leaves that arrival partly applied.
        """
        classed = self.classes is not None
        trace = self.trace
        sizes_col, machines_col = trace.sizes, trace.machines  # lists: `.append` is specialised
        append_makespan = trace.makespans.append
        counts, loads, on_arrival = self.counts, self.loads, self.scheduler.on_arrival
        m, k, capacity, max_size = self.m, self.k, self._capacity, _MAX_SIZE
        job_lists = self._jobs
        if classed:
            classes_col, class_sets, max_class = self.classes, self.class_sets, _MAX_CLASS
        makespan = trace.final_makespan()  # max(loads), as of the last applied arrival
        jobs = iter(jobs)  # the draw past capacity continues the same source
        for size in islice(jobs, capacity - len(sizes_col)):
            if classed:
                size, cls = size  # a (size, class) pair
                if not 0.0 <= size <= max_size:
                    raise ValueError(f"job size must be finite and >= 0, got {size}")
                if not 1 <= cls <= max_class:
                    raise ValueError(f"job class must be in [1, 2**63 - 1], got {cls}")
                machine = on_arrival(size, cls)
            else:
                if not 0.0 <= size <= max_size:  # also rejects NaN
                    raise ValueError(f"job size must be finite and >= 0, got {size}")
                machine = on_arrival(size)
            moves = None
            if machine.__class__ is not int:
                machine, moves = machine
            if not 1 <= machine <= m:
                jid = len(sizes_col) + 1
                raise ContractViolation(jid, f"machine {machine} outside [1, {m}]")
            sizes_col.append(size)
            machines_col.append(machine)
            mi = machine - 1
            used = counts[mi] = counts[mi] + 1
            if classed:
                classes_col.append(cls)
                hosted = class_sets[mi]
                if cls in hosted:
                    used = 0  # a hosted class adds nothing to check
                else:
                    hosted.add(cls)
                    used = len(hosted)
            if moves:
                makespan = self._migrate(machine, moves, makespan)
                job_lists = self._jobs
            else:
                if job_lists is not None:
                    job_lists[machine].append(len(sizes_col))
                if used > k:
                    self._check(len(sizes_col), (machine,))
                load = loads[mi] = loads[mi] + size
                if load > makespan:
                    makespan = load
            append_makespan(makespan)
        if len(sizes_col) == capacity:
            for _ in jobs:  # a full runner draws one more job and refuses it
                raise InfeasibleError(f"stream longer than capacity m*k = {m * k}")

    def _check(self, jid: int, touched) -> None:
        """Raise for the first machine in `touched` that breaks the runner's rule."""
        for mi in touched:
            if self.classes is not None:
                if len(self.class_sets[mi - 1]) > self.k:
                    raise ContractViolation(jid, f"machine {mi} hosts more than {self.k} classes")
            elif (c := self.counts[mi - 1]) > self.k:
                raise ContractViolation(jid, f"machine {mi} holds {c} jobs, cap is {self.k}")

    def _migrate(self, machine: int, moves, makespan: float) -> float:
        """Check, apply and price the moves of the arrival just recorded; re-sum the machines
        they touch and return the new makespan, given the one before the arrival."""
        counts, sizes, m, k = self.counts, self.trace.sizes, self.m, self.k
        jobs, jid = self._jobs, len(sizes)
        if jobs is None:  # the first migration: O(n), and no list for an empty machine
            jobs = self._jobs = defaultdict(list)
            for j, mi in enumerate(self.trace.machines, start=1):
                jobs[mi].append(j)
        else:
            jobs[machine].append(jid)
        over = counts[machine - 1] > k  # only the arriving machine and destinations gain jobs
        moved_size = 0.0
        touched = {machine}
        for job, src, dst in moves:
            if job == jid:
                raise ContractViolation(jid, "trigger job listed in its own migrations")
            held = jobs.get(src, ())  # `.get`: a refused move adds no list
            i = bisect_left(held, job)
            if i == len(held) or held[i] != job:
                raise ContractViolation(
                    jid, f"move of job {job} from machine {src} does not match schedule"
                )
            if not 1 <= dst <= m or dst == src:
                raise ContractViolation(jid, f"move of job {job} to invalid machine {dst}")
            del held[i]
            insort(jobs[dst], job)
            counts[src - 1] -= 1
            counts[dst - 1] += 1
            over |= counts[dst - 1] > k
            moved_size += sizes[job - 1]
            touched.add(src)
            touched.add(dst)
        if self.classes is not None:  # a move may take a class's last job off a machine
            for mi in touched:
                self.class_sets[mi - 1] = {self.classes[j - 1] for j in jobs[mi]}
        if over or self.classes is not None:  # ascending: the lowest violator is named
            self._check(jid, sorted(touched))
        loads = self.loads
        top = 0.0  # the largest touched load
        had_makespan = False
        for mi in touched:
            # drift-free: re-add the machine's sizes in job-id order from 0.0,
            # the same sums an unmoved machine accumulates
            load = 0.0
            for j in jobs[mi]:
                load += sizes[j - 1]
            if loads[mi - 1] == makespan:
                had_makespan = True
            loads[mi - 1] = load
            if load > top:
                top = load
        self.trace.migrations[jid] = MigrationRecord(tuple(moves), moved_size)
        # the makespan was max(loads) and no untouched load changed, so only a
        # makespan machine whose touched loads all fell below it needs a scan
        if top >= makespan:
            return top
        return max(loads) if had_makespan else makespan


def run_stream(scheduler: Scheduler, sizes, m: int, k: int) -> Trace:
    """Feed the whole stream to a new runner; returns its trace."""
    runner = StreamRunner(scheduler, m, k)
    runner.feed(sizes)
    return runner.trace


@dataclass(frozen=True)
class CompetitiveMetrics:
    final_ratio: float
    prefix_max_ratio: float
    denominator: float


def safe_ratio(numer: float, denom: float) -> float:
    """numer / denom, the program's one ratio rule: 0/0 is 1.0 and x/0 is inf."""
    if denom == 0:
        return 1.0 if numer == 0 else math.inf
    return numer / denom


def competitive_metrics(trace: Trace, mode: str = "exact") -> CompetitiveMetrics:
    """Final and prefix-max ratios of the trace against exact opt or the cheap lower bound.

    Adversaries stop mid-stream while the guarantees speak about the stopping
    point, so both views are reported.  Exact mode solves each prefix once
    with `opt_makespan`: the value alone, which on integer sizes stops on the
    integer grid, so metering pays for no node count it does not report.
    Lower-bound mode is one pass that keeps nothing per arrival: a prefix's bound
    is max(total / m, largest), both left folds from 0.0 in arrival order, as in `lower_bound`.
    """
    if mode not in ("exact", "lower_bound"):
        raise ValueError(f"unknown mode {mode!r}")
    sizes, makespans, m, n = trace.sizes, trace.makespans, trace.m, trace.n
    prefix_max = final_denom = 0.0  # final_denom ends as prefix n's, the whole stream's
    if mode == "exact":
        exact_guard(n)
        for t, makespan in enumerate(makespans, start=1):
            final_denom = opt_makespan(instance_from_sizes(sizes[:t], m, trace.k))
            prefix_max = max(prefix_max, safe_ratio(makespan, final_denom))
    else:
        total = largest = 0.0
        for size, makespan in zip(sizes, makespans):
            total += size
            if size > largest:
                largest = size
            final_denom = total / m
            if largest > final_denom:
                final_denom = largest
            ratio = makespan / final_denom if final_denom else safe_ratio(makespan, final_denom)
            if ratio > prefix_max:
                prefix_max = ratio
        final_denom = float(final_denom)  # an int if the largest size, fed as an int, wins
        assert final_denom == lower_bound(sizes, m)
    return CompetitiveMetrics(
        final_ratio=safe_ratio(trace.final_makespan(), final_denom),
        prefix_max_ratio=prefix_max,
        denominator=final_denom,
    )


@dataclass(frozen=True)
class MigrationStats:
    max_factor: float
    total_moved: float


def migration_stats(trace: Trace) -> MigrationStats:
    """Worst per-arrival migration factor (moved size / arriving size) and total moved size."""
    max_factor = total = 0.0
    for jid, record in trace.migrations.items():
        moved = record.moved_size
        total += moved
        if moved > 0:
            factor = safe_ratio(moved, trace.sizes[jid - 1])
            if factor > max_factor:
                max_factor = factor
    return MigrationStats(max_factor=max_factor, total_moved=total)


class RoundRobinScheduler(Scheduler):
    """Arrival i goes to machine ((i-1) mod m) + 1."""

    def __init__(self, m: int, k: int):
        self.m, self.k = m, k
        # a decision is a C call: the size fills next's default, which the
        # endless cycle never returns; after the first lap the cycle hands
        # out the same int objects again
        self.on_arrival = partial(next, cycle(range(1, m + 1)))


class ListSchedulingCapped(Scheduler):
    """Greedy: lowest-load machine among those with fewer than k jobs, tie to lowest index.

    A heap on (load, machine, count) holds every touched machine below the
    cap exactly once, plus (0.0, f, 0) for the lowest untouched machine f:
    the untouched machines above f never come first, so the heap holds at
    most n + 1 entries whatever m is.  A machine leaves it when it reaches k
    jobs, and when f takes its first job, f + 1 (if any) joins.
    """

    def __init__(self, m: int, k: int):
        self.m, self.k = m, k
        self._heap = [(0.0, 1, 0)] if m > 0 and k > 0 else []

    def on_arrival(self, size: float) -> int:
        heap = self._heap
        if not heap:  # its own state: a direct caller can run it past m*k
            raise InfeasibleError("greedy-capped: all machines hold k jobs")
        load, best, count = heap[0]
        if count + 1 < self.k:
            heapq.heapreplace(heap, (load + size, best, count + 1))
        else:
            heapq.heappop(heap)
        if not count and best < self.m:  # the untouched machine was taken
            heapq.heappush(heap, (0.0, best + 1, 0))
        return best


class PhiScheduler(Scheduler):
    """The m=k=2 special case; accepts at most four jobs.

    Jobs 1 and 2 go to different machines.  With p1 >= p2 (roles swapped
    otherwise), job 3 joins job 1 iff p3 <= p1/phi, else job 2; job 4 fills
    the machine holding a single job.
    """

    def __init__(self, m: int = 2, k: int = 2):
        if (m, k) != (2, 2):
            raise ValueError("the phi scheduler is defined for m=2, k=2 only")
        self.m, self.k = m, k
        self._j = 0
        self._p = [0.0, 0.0]  # p1 and p2, on machines 1 and 2
        self._third = 0  # job 3's machine

    def on_arrival(self, size: float) -> int:
        j = self._j + 1
        if j > 4:
            raise InfeasibleError("phi scheduler accepts at most 4 jobs")
        self._j = j
        if j <= 2:
            self._p[j - 1] = size
            machine = j
        elif j == 3:
            big = 1 if self._p[0] >= self._p[1] else 2
            machine = self._third = big if size <= self._p[big - 1] / PHI else 3 - big
        else:  # the machine holding a single job
            machine = 3 - self._third
        return machine
