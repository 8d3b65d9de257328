"""Class-constrained scheduling (ClCS).

Here a machine may host jobs from at most k *distinct classes* instead of at
most k jobs.  The greedy scheduler pins each class to one machine; it is
m-competitive and that is the best possible even with migration, which the
two lower-bound drivers demonstrate on identical and uniform machines.  All
of them run on a classed StreamRunner; speeds enter only clcs_makespan.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .adversaries import AdversaryReport, drive_report
from .engine import SchedulerDecision, StreamRunner
from .model import InfeasibleError

CLCS_BRUTE_MAX_JOBS = 8


@dataclass(frozen=True)
class ClassedJob:
    id: int
    size: float
    cls: int

    def __post_init__(self):
        if self.size < 0:
            raise ValueError(f"job {self.id}: size must be >= 0")
        if self.cls < 1:
            raise ValueError(f"job {self.id}: class must be >= 1")


@dataclass(frozen=True)
class ClcsInstance:
    jobs: tuple[ClassedJob, ...]
    m: int
    k: int
    speeds: tuple[float, ...]

    def __post_init__(self):
        if self.m < 1 or self.k < 1:
            raise ValueError("m and k must be >= 1")
        if len(self.speeds) != self.m:
            raise ValueError("speeds must have one entry per machine")
        if any(s <= 0 for s in self.speeds):
            raise ValueError("speeds must be positive")


def clcs_instance(jobs, m: int, k: int, speeds=None) -> ClcsInstance:
    """jobs: iterable of (size, class); identical machines unless speeds given."""
    speeds = tuple(float(s) for s in speeds) if speeds is not None else (1.0,) * m
    return ClcsInstance(
        tuple(ClassedJob(i + 1, float(sz), int(c)) for i, (sz, c) in enumerate(jobs)),
        m,
        k,
        speeds,
    )


class GreedyClcsScheduler:
    """First job of an unseen class binds it to the machine with fewest bound
    classes (among those below k), tie to the lowest index; every later job of
    the class follows it.  One decision per class is cached and reused."""

    def __init__(self, m: int, k: int):
        self.m, self.k = m, k
        self._decision_of_class: dict[int, SchedulerDecision] = {}
        self._bound = [0] * m

    def on_arrival(self, size: float, cls: int) -> SchedulerDecision:
        decision = self._decision_of_class.get(cls)
        if decision is None:
            best = None
            for mi in range(self.m):
                if self._bound[mi] >= self.k:
                    continue
                if best is None or self._bound[mi] < self._bound[best]:
                    best = mi
            if best is None:
                raise InfeasibleError("all machines already host k classes")
            self._bound[best] += 1
            decision = self._decision_of_class[cls] = SchedulerDecision(best + 1)
        return decision


def clcs_makespan(loads, speeds) -> float:
    """Largest completion time load / speed over the machines."""
    if len(speeds) != len(loads) or not all(0 < s < math.inf for s in speeds):
        raise ValueError(f"speeds must be {len(loads)} finite values > 0, got {list(speeds)}")
    return max(ld / sp for ld, sp in zip(loads, speeds))


def run_classed_stream(scheduler, jobs, m: int, k: int) -> StreamRunner:
    """Feed (size, class) pairs in order under the class cap; returns the finished runner.

    The runner refuses a class outside [1, 2**63 - 1] before the scheduler
    sees it (a ValueError), as it does for the drives.
    """
    runner = StreamRunner(scheduler, m, k, classed=True)
    jobs = list(jobs)
    runner.feed((float(size) for size, _ in jobs), (int(cls) for _, cls in jobs))
    return runner


def clcs_exact(instance: ClcsInstance) -> float:
    """True optimum by enumerating all assignments (n <= 8)."""
    n, m, k = len(instance.jobs), instance.m, instance.k
    if n > CLCS_BRUTE_MAX_JOBS:
        raise ValueError(f"clcs_exact guard: {n} jobs > {CLCS_BRUTE_MAX_JOBS}")
    if n == 0:
        return 0.0
    best = None
    for assign in itertools.product(range(m), repeat=n):
        loads = [0.0] * m
        class_sets: list[set[int]] = [set() for _ in range(m)]
        ok = True
        for job, mi in zip(instance.jobs, assign):
            loads[mi] += job.size
            class_sets[mi].add(job.cls)
            if len(class_sets[mi]) > k:
                ok = False
                break
        if not ok:
            continue
        cost = max(ld / sp for ld, sp in zip(loads, instance.speeds))
        if best is None or cost < best:
            best = cost
    if best is None:
        raise InfeasibleError("no class-feasible assignment exists")
    return best


def identical_lb_report(scheduler, m: int, k: int) -> AdversaryReport:
    """m unit jobs of one common class; offline puts one on each machine."""
    if m < 2:
        raise ValueError(f"requires m >= 2, got {m}")
    drive = run_classed_stream(scheduler, [(1.0, 1)] * m, m, k)
    return drive_report(drive, "clcs-identical-lb", 1.0, "analytic")


def uniform_lb_drive(
    scheduler, m: int, k: int, s: float, beta: float, eps: float, M: int
) -> AdversaryReport:
    """Machine 1 has speed 1, the rest speed s > 1.  Phase 1 hands out m*k unit
    jobs with distinct classes; phase 2 floods the classes stuck on machine 1
    with M*beta rounds of jobs of size 1/beta - eps, too small to migrate."""
    if not 1 < s < math.inf:
        raise ValueError(f"requires finite s > 1, got {s}")
    if beta <= 0 or not 0 < eps < 1.0 / beta:
        raise ValueError("requires beta > 0 and 0 < eps < 1/beta")
    if M < 0:
        raise ValueError("M must be >= 0")
    speeds = (1.0,) + (float(s),) * (m - 1)
    drive = run_classed_stream(scheduler, [(1.0, cls) for cls in range(1, m * k + 1)], m, k)

    k_prime = min(k, m - 1)
    on_machine_1 = sorted(drive.class_sets[0])
    targets = on_machine_1[:k_prime]
    note = None
    if len(targets) < k_prime:
        # non-conforming scheduler left machine 1 short; pad to keep the drive total
        spare = [c for c in range(1, m * k + 1) if c not in targets]
        targets += spare[: k_prime - len(targets)]
        note = "machine 1 held fewer than min(k, m-1) classes after phase 1"

    rounds = round(M * beta)
    size = 1.0 / beta - eps
    classes = itertools.chain.from_iterable(itertools.repeat(targets, rounds))
    drive.feed(itertools.repeat(size, rounds * len(targets)), classes)
    alg = clcs_makespan(drive.loads, speeds)
    return drive_report(drive, "clcs-uniform-lb", M / s + k / s, "analytic", note, alg)
