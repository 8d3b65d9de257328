"""Class-constrained scheduling (ClCS).

Here a machine may host jobs from at most k *distinct classes* instead of at
most k jobs.  The greedy scheduler pins each class to one machine; it is
m-competitive and that is the best possible even with migration, which the
two lower-bound drivers demonstrate on identical and uniform machines.  All
of them run on a classed StreamRunner, which takes each job as the (size,
class) pair the callers hold; speeds enter only clcs_makespan.
"""

from __future__ import annotations

import itertools
import math

from .adversaries import AdversaryReport, drive_report
from .engine import ListSchedulingCapped, StreamRunner
from .model import InfeasibleError


class GreedyClcsScheduler:
    """First job of an unseen class binds it to the machine with fewest bound
    classes (among those below k), tie to the lowest index; every later job of
    the class follows it.  A binding is capped list scheduling of one unit job,
    so it costs O(log n) and nothing per machine, whatever m is."""

    def __init__(self, m: int, k: int):
        self.m, self.k = m, k
        self._machine_of_class: dict[int, int] = {}
        self._bind = ListSchedulingCapped(m, k).on_arrival

    def on_arrival(self, size: float, cls: int) -> int:
        try:
            return self._machine_of_class[cls]  # a bound class: one lookup
        except KeyError:
            try:
                machine = self._machine_of_class[cls] = self._bind(1.0)
            except InfeasibleError:
                raise InfeasibleError("all machines already host k classes") from None
            return machine


def clcs_makespan(loads, speeds) -> float:
    """Largest completion time load / speed over the machines."""
    if len(speeds) != len(loads) or not all(0 < s < math.inf for s in speeds):
        raise ValueError(f"speeds must be {len(loads)} finite values > 0, got {list(speeds)}")
    return max(ld / sp for ld, sp in zip(loads, speeds))


def run_classed_stream(scheduler, jobs, m: int, k: int) -> StreamRunner:
    """Feed (size, class) pairs as given under the class cap; returns the finished runner.

    Sizes and classes are recorded as fed.  The runner refuses a bad size, then a
    class outside [1, 2**63 - 1], before the scheduler sees it (a ValueError).
    """
    runner = StreamRunner(scheduler, m, k, classed=True)
    runner.feed(jobs)
    return runner


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
    with M*beta rounds of jobs of size 1/beta - eps, too small to migrate.

    `opt_value` >= opt: the lower of the scheduler's own schedule and the larger of
    the analytic M/s + k/s (alone it can fall below opt >= k) and the schedule that
    puts each flooded class with k-1 unit classes on a fast machine of its own.
    """
    if not 1 < s < math.inf:
        raise ValueError(f"requires finite s > 1, got {s}")
    if beta <= 0 or not 0 < eps < 1.0 / beta:
        raise ValueError("requires beta > 0 and 0 < eps < 1/beta")
    if M < 0:
        raise ValueError("M must be >= 0")
    if m == 1:  # no fast machine to flood; the runner refuses m < 1 itself
        raise ValueError(f"requires m >= 2, got {m}")
    speeds = (1.0,) + (float(s),) * (m - 1)
    drive = run_classed_stream(scheduler, [(1.0, cls) for cls in range(1, m * k + 1)], m, k)

    # m*k distinct classes, at most k per machine: every machine, machine 1 too, hosts k
    targets = sorted(drive.class_sets[0])[: min(k, m - 1)]
    rounds = round(M * beta)
    size = 1.0 / beta - eps
    classes = itertools.chain.from_iterable(itertools.repeat(targets, rounds))
    drive.feed(zip(itertools.repeat(size), classes))
    alg = clcs_makespan(drive.loads, speeds)
    analytic, constructive = M / s + k / s, max(float(k), (k + rounds * size) / s)
    opt, provenance = analytic, "analytic"
    if constructive > analytic:
        opt, provenance = constructive, "constructive"
    if alg < opt:
        opt, provenance = alg, "alg-schedule"
    return drive_report(drive, "clcs-uniform-lb", opt, provenance, alg=alg)
