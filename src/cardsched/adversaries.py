"""Interactive lower-bound drivers.

Each driver plays a proof's adversary strategy against a live scheduler:
it observes every placement, chooses the next size accordingly, and reports
the achieved ratio against an analytic or constructive optimum.  Drives run on
the library's StreamRunner, whose trace is parallel columns (O(1) per
arrival), because the balanced driver emits millions of jobs.  Each phase is
one `StreamRunner.feed` call: a fixed phase feeds `itertools.repeat`, and an
adaptive one is a generator that reads the last placement from the trace
between its yields.  That works because feed draws the next size only after
the previous arrival (moves included) is applied.  No drive builds a list
with one entry per job.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat
from typing import Optional

from .engine import PHI, Scheduler, StreamRunner, safe_ratio
from .oracle import sorted_round_robin_makespan

ROBUST_LB_X = (-3.0 + math.sqrt(837.0)) / 2.0  # makespan-ratio fixed point, ~12.965476


@dataclass
class AdversaryReport:
    family: str
    m: int
    k: int
    sizes: list  # the runner's trace columns, shared, not copied
    machines: list[int]
    alg_makespan: float
    opt_value: float
    opt_provenance: str  # analytic | oracle | constructive | alg-schedule
    ratio: float
    note: Optional[str] = None
    classes: Optional[list[int]] = None  # only for class-constrained drivers

    @property
    def transcript(self) -> list[tuple[float, int]]:
        return list(zip(self.sizes, self.machines))

    @property
    def n(self) -> int:
        return len(self.sizes)


def drive_report(
    runner: StreamRunner, family: str, opt: float, provenance: str, note=None, alg=None
) -> AdversaryReport:
    """The report of a finished drive; `alg` overrides the trace's final makespan."""
    trace = runner.trace
    alg = trace.final_makespan() if alg is None else alg
    return AdversaryReport(
        family=family,
        m=runner.m,
        k=runner.k,
        sizes=trace.sizes,
        machines=trace.machines,
        alg_makespan=alg,
        opt_value=opt,
        opt_provenance=provenance,
        ratio=safe_ratio(alg, opt),
        note=note,
        classes=runner.classes,
    )


def pure_lb_drive(scheduler: Scheduler, m: int, k: int, N: float) -> AdversaryReport:
    """Unit jobs m*(k-1) times, then either one size-k job (balanced case) or
    m jobs of size N (some machine kept spare slots)."""
    if not (m >= k >= 2):
        raise ValueError(f"requires m >= k >= 2, got m={m}, k={k}")
    if not 0 < N < math.inf:  # also refuses NaN
        raise ValueError("N must be finite and > 0")
    drive = StreamRunner(scheduler, m, k)
    drive.feed(repeat(1.0, m * (k - 1)))
    if all(c == k - 1 for c in drive.counts):
        drive.push(float(k))
        # offline: k units on each of m-1 machines, the big job alone
        return drive_report(drive, "pure-lb", float(k), "analytic")
    drive.feed(repeat(float(N), m))
    # offline: k-1 units plus one size-N job per machine
    return drive_report(drive, "pure-lb", float(N) + k - 1, "analytic")


def balanced_lb_drive(
    scheduler: Scheduler, m: int, k: int, N: float, round_cap: int
) -> AdversaryReport:
    """k rounds of geometric sizes 1, N, N^2, ..., each ending when machine 1
    receives a job.  `opt_value` is the lower makespan of two feasible
    schedules of the same sizes: sorted round-robin (provenance
    "constructive"), or the scheduler's own checked schedule where that is
    lower ("alg-schedule").  It bounds the optimum from above, so the ratio
    is at least 1 and never overstates the scheduler's true ratio.

    The sizes come from a generator that the runner drains, reading each
    placement from `trace.machines[-1]` and counting the runner's m*k
    capacity down in a local; it sets `note` when it stops early: capacity
    exhausted, which takes precedence, else a round over `round_cap` jobs or
    a size overflow.
    Every round deals from one table of the powers `N**ell`, built before
    the first job, so the trace's size column shares its float objects.
    """
    if not N >= 2 or k < 2 or round_cap < 1:  # also refuses NaN
        raise ValueError("requires N >= 2, k >= 2, round_cap >= 1")
    drive = StreamRunner(scheduler, m, k)
    note = None
    # N**0, N**1, ...: at most round_cap powers, ending before the first one
    # that overflows (so at most 1,024 for N >= 2); a round that deals them
    # all stops with `end` instead
    powers, base = [], float(N)
    end = f"unbounded-evidence: round exceeded cap of {round_cap} jobs"
    for ell in range(round_cap):
        try:
            size = base**ell  # inf if N is; a finite N raises on overflow
        except OverflowError:
            size = math.inf
        if math.isinf(size):
            end = "unbounded-evidence: geometric size overflow"
            break
        powers.append(size)

    def sizes():
        # the runner draws the next size only after placing the last one
        nonlocal note
        machines, left = drive.trace.machines, m * k  # left: the runner's capacity to go
        exhausted = "unbounded-evidence: scheduler capacity exhausted before k rounds"
        for _ in range(k):
            for size in powers:
                if not left:
                    note = exhausted
                    return
                yield size
                left -= 1
                if machines[-1] == 1:
                    break
            else:  # the round dealt every power; exhausted capacity still comes first
                note = end if left else exhausted
                return

    drive.feed(sizes())
    opt = sorted_round_robin_makespan(drive.trace.sizes, m)
    alg = drive.trace.final_makespan()
    if alg < opt:
        return drive_report(drive, "balanced-lb", alg, "alg-schedule", note)
    return drive_report(drive, "balanced-lb", opt, "constructive", note)


def phi_lb_drive(scheduler: Scheduler, M: float) -> AdversaryReport:
    """The m=k=2 adversary: sizes M and 1, then either two M^2 jobs (if the
    first two were co-located) or (phi-1)*M followed by 1 or phi*M."""
    if not math.isfinite(M * M):  # an overflow makes both sides of the next test inf
        raise ValueError(f"M={M}: M*M = {M * M} is not finite")
    if not M > 0:  # a negative M passes the next test
        raise ValueError(f"M={M} must be > 0")
    if not 2 * M * M > PHI * (M + M * M):
        raise ValueError(f"M={M} too small: need 2M^2 > phi*(M + M^2)")
    drive = StreamRunner(scheduler, 2, 2)
    drive.push(float(M))
    drive.push(1.0)
    placed = drive.trace.final_schedule()
    if placed[1] == placed[2]:
        drive.push(float(M) * M)
        drive.push(float(M) * M)
        return drive_report(drive, "phi-lb", M + M * M, "analytic")
    if drive.push((PHI - 1.0) * M) == drive.trace.final_schedule()[1]:
        drive.push(1.0)
        return drive_report(drive, "phi-lb", M + 1.0, "analytic")
    drive.push(PHI * M)
    return drive_report(drive, "phi-lb", PHI * M + 1.0, "analytic")


def robust_lb_drive(scheduler: Scheduler, m: int, k: int) -> AdversaryReport:
    """Three 6s, two 9s and m-2 jobs of size X; any schedule other than the
    canonical one already loses, and the canonical one is then flooded with
    tiny jobs it cannot migrate away."""
    if m < 3:
        raise ValueError(f"requires m >= 3, got {m}")
    if k < 8 or k % 2:
        raise ValueError(f"requires even k >= 8, got {k}")
    X = ROBUST_LB_X
    drive = StreamRunner(scheduler, m, k)
    drive.feed([6.0, 6.0, 6.0, 9.0, 9.0] + [X] * (m - 2))

    per_machine: list[list[float]] = [[] for _ in range(m)]
    for jid, machine in drive.trace.final_schedule().items():
        per_machine[machine - 1].append(drive.trace.sizes[jid - 1])
    arrangement = sorted(tuple(sorted(sz)) for sz in per_machine)
    canonical = sorted([(6.0, 6.0, 6.0), (9.0, 9.0)] + [(X,)] * (m - 2))
    if arrangement != canonical:
        return drive_report(drive, "robust-lb", 18.0, "analytic", "non-canonical after part 1")

    drive.feed(repeat(6.0 / (k - 1), (m - 3) * (k - 1)))
    drive.feed(repeat((X - 9.0) / (k - 2), 2 * (k - 2)))
    return drive_report(drive, "robust-lb", X + 6.0, "analytic", "canonical after part 1")

