"""Core domain types for cardinality-constrained makespan scheduling.

A problem instance is a list of job sizes, a machine count m and a
per-machine cardinality cap k: every machine may hold at most k jobs.  Job j
is the j-th size of the list, and a schedule is a dict of job id -> machine.
Jobs and machines are 1-based everywhere.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, field
from typing import NamedTuple


class InfeasibleError(Exception):
    """No feasible schedule exists (or capacity would be exceeded)."""


@dataclass(frozen=True)
class Instance:
    """The offline owner of the job contract; job j (1-based) has size `sizes[j-1]`."""

    sizes: tuple[float, ...]
    m: int
    k: int

    def __post_init__(self):
        for jid, size in enumerate(self.sizes, start=1):
            if not 0.0 <= size < math.inf:  # also rejects NaN
                raise ValueError(f"job {jid}: size must be finite and >= 0, got {size}")
        if self.m < 1 or self.k < 1:
            raise ValueError("m and k must be >= 1")
        if self.n > self.m * self.k:
            raise InfeasibleError(f"{self.n} jobs exceed capacity m*k = {self.m * self.k}")

    @property
    def n(self) -> int:
        return len(self.sizes)


def instance_from_sizes(sizes, m: int, k: int) -> Instance:
    """Build an Instance whose job ids are the arrival order (1-based)."""
    return Instance(tuple(map(float, sizes)), m, k)


class MigrationRecord(NamedTuple):
    """Jobs the runner moved on one arrival, as (job, src, dst) triples;
    `moved_size` sums their sizes.  The trace keys it by the arriving job."""

    moves: tuple[tuple[int, int, int], ...] = ()
    moved_size: float = 0.0


_NO_MIGRATION = MigrationRecord()


@dataclass(frozen=True)
class ArrivalRecord:
    job: int
    size: float
    machine: int
    migration: MigrationRecord
    makespan: float


@dataclass
class Trace:
    """Evidence stream of an online run, as parallel columns over arrivals.

    Job j (1-based) has size `sizes[j-1]`, was placed on `machines[j-1]` and
    left makespan `makespans[j-1]`; `migrations` holds the record of each
    arrival that moved jobs, keyed by its job id.  `loads` holds the
    per-machine loads after the last arrival (the runner keeps it current).

    `sizes` and `machines` are lists of the caller's own objects: the sizes
    as fed (an int size stays an int) and the machine ints of the decisions,
    so a list pays one pointer per job, as many bytes as an array("d") or
    array("q"), and an append parses nothing.  A new makespan float exists
    only when the makespan rises; the array("d") column stores it unboxed
    for the streams where it rises on every arrival (ClCS's phase 2).
    """

    m: int
    k: int
    sizes: list = field(default_factory=list)
    machines: list[int] = field(default_factory=list)
    makespans: array = field(default_factory=lambda: array("d"))
    migrations: dict[int, MigrationRecord] = field(default_factory=dict)
    loads: list[float] = field(default_factory=list)

    @property
    def n(self) -> int:
        return len(self.sizes)

    def migration(self, jid: int) -> MigrationRecord:
        """Moves made when job `jid` arrived (an empty record if none)."""
        return self.migrations.get(jid, _NO_MIGRATION)

    @property
    def records(self) -> tuple[ArrivalRecord, ...]:
        """One ArrivalRecord per arrival, built on demand."""
        return tuple(
            ArrivalRecord(jid, size, machine, self.migration(jid), ms)
            for jid, (size, machine, ms) in enumerate(
                zip(self.sizes, self.machines, self.makespans), start=1
            )
        )

    def final_makespan(self) -> float:
        return self.makespans[-1] if self.makespans else 0.0

    def final_schedule(self) -> dict[int, int]:
        """Job id -> machine after the last arrival, keyed in arrival order."""
        schedule = dict(enumerate(self.machines, start=1))
        for record in self.migrations.values():
            for job, _, dst in record.moves:
                schedule[job] = dst
        return schedule


def loads(schedule: dict[int, int], instance: Instance) -> list[float]:
    """Per-machine total size under `schedule`; machine i is component i-1.

    A load folds its sizes from 0.0 in the order the dict iterates, so the
    same assignment keyed in another order may differ in the last bit.
    """
    sizes, ids, m = instance.sizes, range(1, instance.n + 1), instance.m
    out = [0.0] * m
    for jid, machine in schedule.items():
        if jid not in ids:  # an id below 1 must not index from the end
            raise KeyError(f"schedule references unknown job id {jid}")
        if not 1 <= machine <= m:
            raise ValueError(f"job {jid} assigned to machine {machine} outside [1, {m}]")
        out[machine - 1] += sizes[jid - 1]
    return out


def makespan(schedule: dict[int, int], instance: Instance) -> float:
    ld = loads(schedule, instance)
    return max(ld) if ld else 0.0


def check_feasible(schedule: dict[int, int], instance: Instance) -> list[str]:
    """All cap/assignment violations; an empty list means the schedule is ok."""
    violations = []
    ids, m = range(1, instance.n + 1), instance.m
    counts = [0] * m
    seen = set()
    for jid, machine in schedule.items():
        seen.add(jid)  # assigned, even to a machine out of range
        if not 1 <= machine <= m:
            violations.append(f"job {jid}: machine {machine} outside [1, {m}]")
            continue
        counts[machine - 1] += 1
    for mi, c in enumerate(counts, start=1):
        if c > instance.k:
            violations.append(f"machine {mi}: {c} jobs exceeds cap {instance.k}")
    for jid in ids:
        if jid not in seen:
            violations.append(f"job {jid}: unassigned")
    for jid in seen:
        if jid not in ids:
            violations.append(f"job {jid}: not part of the instance")
    return violations


def power(base: float, exponent: int) -> float:
    """base**exponent by binary lifting; deterministic for size-class keys."""
    if exponent < 0:
        return 1.0 / power(base, -exponent)
    result = 1.0
    acc = base
    e = exponent
    while e:
        if e & 1:
            result *= acc
        acc *= acc
        e >>= 1
    return result


class GeometricClasses:
    """Size classes of one eps: a size rounds up to the smallest integer power of (1+eps) >= it.

    The exponent is a log estimate corrected on the lifted powers themselves,
    so equal sizes always share a class, even at class boundaries: probes 1,
    2, 4, ... classes from the estimate until one lands past the size, then
    a bisection, O(log d) lifts for an estimate d classes off.  The powers
    that bound each class found are kept, so a size whose estimate lands in
    a known class costs a log and two dict lookups.
    """

    def __init__(self, eps: float):
        if not (eps > 0) or not math.isfinite(eps) or 1.0 + eps == 1.0:
            raise ValueError(f"eps must be positive, finite and make 1 + eps > 1, got {eps}")
        self._base = 1.0 + eps
        self._log_base = math.log(1.0 + eps)
        self._powers: dict[int, float] = {}  # e -> power(1 + eps, e), known classes' bounds

    def exponent(self, size: float) -> int:
        """The class of `size`: an e with power(1+eps, e-1) < size <= power(1+eps, e)."""
        if not (size > 0) or not math.isfinite(size):
            raise ValueError(f"size must be positive and finite, got {size}")
        powers = self._powers
        e = math.ceil(math.log(size) / self._log_base - 1e-12)
        try:
            if powers[e] >= size > powers[e - 1]:  # no correction needed
                return e
        except KeyError:
            pass
        base, lo, hi, step = self._base, e, e, 1
        while power(base, hi) < size:  # gallop up
            lo, hi, step = hi, e + step, 2 * step
        while power(base, lo) >= size:  # or down
            hi, lo, step = lo, e - step, 2 * step
        while hi - lo > 1:  # power(lo) < size <= power(hi)
            mid = (lo + hi) // 2
            lo, hi = (lo, mid) if power(base, mid) >= size else (mid, hi)
        powers[hi], powers[lo] = power(base, hi), power(base, lo)
        return hi
