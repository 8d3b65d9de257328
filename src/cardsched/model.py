"""Core domain types for cardinality-constrained makespan scheduling.

A problem instance is a list of jobs, a machine count m and a per-machine
cardinality cap k: every machine may hold at most k jobs.  Machines are
1-based everywhere.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, field
from typing import NamedTuple


class InfeasibleError(Exception):
    """No feasible schedule exists (or capacity would be exceeded)."""


@dataclass(frozen=True)
class Job:
    """A job: `id` is the 1-based arrival index, `size` is finite and >= 0."""

    id: int
    size: float

    def __post_init__(self):
        if not 0.0 <= self.size < math.inf:  # also rejects NaN
            raise ValueError(f"job {self.id}: size must be finite and >= 0, got {self.size}")


@dataclass(frozen=True)
class Instance:
    """The offline owner of the job contract: at most m*k jobs, each a valid `Job`."""

    jobs: tuple[Job, ...]
    m: int
    k: int

    def __post_init__(self):
        if self.m < 1 or self.k < 1:
            raise ValueError("m and k must be >= 1")
        if self.n > self.m * self.k:
            raise InfeasibleError(f"{self.n} jobs exceed capacity m*k = {self.m * self.k}")
        ids = [j.id for j in self.jobs]
        if len(set(ids)) != len(ids):
            raise ValueError("job ids must be unique")

    @property
    def n(self) -> int:
        return len(self.jobs)


def instance_from_sizes(sizes, m: int, k: int) -> Instance:
    """Build an Instance with ids equal to arrival order (1-based)."""
    return Instance(tuple(Job(i + 1, float(s)) for i, s in enumerate(sizes)), m, k)


@dataclass(frozen=True)
class Schedule:
    """Job id -> machine index in [1, m]."""

    assignment: dict[int, int]

    def machine_of(self, jid: int) -> int:
        return self.assignment[jid]


class Move(NamedTuple):
    job: int
    src: int
    dst: int


@dataclass(frozen=True)
class MigrationRecord:
    """Jobs the runner moved when `trigger` arrived; `moved_size` sums their sizes."""

    trigger: int
    moves: tuple[Move, ...] = ()
    moved_size: float = 0.0


@dataclass(frozen=True)
class ArrivalRecord:
    job: int
    size: float
    machine: int
    migration: MigrationRecord
    makespan: float


@dataclass
class Trace:
    """Evidence stream of an online run, as parallel arrays over arrivals.

    Job j (1-based) has size `sizes[j-1]`, was placed on `machines[j-1]` and
    left makespan `makespans[j-1]`; `migrations` holds the record of each
    arrival that moved jobs, keyed by its job id.  `loads` holds the
    per-machine loads after the last arrival (the runner keeps it current).
    """

    m: int
    k: int
    sizes: array = field(default_factory=lambda: array("d"))
    machines: array = field(default_factory=lambda: array("i"))  # indices fit in 32 bits
    makespans: array = field(default_factory=lambda: array("d"))
    migrations: dict[int, MigrationRecord] = field(default_factory=dict)
    loads: list[float] = field(default_factory=list)

    @property
    def n(self) -> int:
        return len(self.sizes)

    def migration(self, jid: int) -> MigrationRecord:
        """Moves made when job `jid` arrived (an empty record if none)."""
        return self.migrations.get(jid) or MigrationRecord(jid)

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

    def final_schedule(self) -> Schedule:
        assignment = dict(enumerate(self.machines, start=1))
        for record in self.migrations.values():
            for mv in record.moves:
                assignment[mv.job] = mv.dst
        return Schedule(assignment)


def loads(schedule: Schedule, instance: Instance) -> list[float]:
    """Per-machine total size under `schedule`; machine i is component i-1."""
    sizes = {j.id: j.size for j in instance.jobs}
    out = [0.0] * instance.m
    for jid, machine in schedule.assignment.items():
        if jid not in sizes:
            raise KeyError(f"schedule references unknown job id {jid}")
        if not 1 <= machine <= instance.m:
            raise ValueError(f"job {jid} assigned to machine {machine} outside [1, {instance.m}]")
        out[machine - 1] += sizes[jid]
    return out


def makespan(schedule: Schedule, instance: Instance) -> float:
    ld = loads(schedule, instance)
    return max(ld) if ld else 0.0


def check_feasible(schedule: Schedule, instance: Instance) -> list[str]:
    """All cap/assignment violations; an empty list means the schedule is ok."""
    violations = []
    counts = [0] * instance.m
    seen = set()
    for jid, machine in schedule.assignment.items():
        if not 1 <= machine <= instance.m:
            violations.append(f"job {jid}: machine {machine} outside [1, {instance.m}]")
            continue
        counts[machine - 1] += 1
        seen.add(jid)
    for mi, c in enumerate(counts, start=1):
        if c > instance.k:
            violations.append(f"machine {mi}: {c} jobs exceeds cap {instance.k}")
    for j in instance.jobs:
        if j.id not in seen:
            violations.append(f"job {j.id}: unassigned")
    ids = {j.id for j in instance.jobs}
    for jid in seen:
        if jid not in ids:
            violations.append(f"job {jid}: not part of the instance")
    return violations


def round_down_pow2(size: float) -> tuple[float, int]:
    """Largest power of two <= size, as (value, exponent); exponent may be negative."""
    if not (size > 0) or not math.isfinite(size):
        raise ValueError(f"size must be positive and finite, got {size}")
    e = math.frexp(size)[1] - 1  # size = frac * 2**(e+1) with frac in [0.5, 1), exactly
    return math.ldexp(1.0, e), e


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


def round_up_geometric(size: float, eps: float) -> tuple[float, int]:
    """Smallest integer power of (1+eps) >= size, as (value, exponent).

    The exponent is found from a log estimate and then corrected by neighbor
    comparison on the lifted powers themselves, so two equal sizes always land
    in the same class even at class boundaries.
    """
    if not (size > 0) or not math.isfinite(size):
        raise ValueError(f"size must be positive and finite, got {size}")
    if not (eps > 0) or not math.isfinite(eps) or 1.0 + eps == 1.0:
        raise ValueError(f"eps must be positive, finite and make 1 + eps > 1, got {eps}")
    base = 1.0 + eps
    e = math.ceil(math.log(size) / math.log(base) - 1e-12)
    while power(base, e) < size:
        e += 1
    while power(base, e - 1) >= size:
        e -= 1
    return power(base, e), e
