"""Test-only references: the plain O(m) / O(n) scans the fast paths replaced.

Each reference keeps the straightforward code that the indexed version must
match decision for decision and bit for bit: the stream runner that scans
every machine per arrival (`RefStreamRunner`, which with `classed` checks
ClCS's distinct classes per machine in place of the job count),
greedy ClCS class pinning by a `.get` and a scan, capped greedy as a
linear scan, a standalone constant scheduler that chooses every machine and
row by a scan (slots allocated up front), the robust-ordinal scheduler that
diffs a job -> machine map over all jobs before and after each resort (its
sizes rounded by `ref_round_up_geometric`, which lifts every power of
(1+eps) afresh on each call), the ordinal map
by simulating every round one machine at a time (`ref_ordinal_map`), and
the exact oracle (with the sorted round-robin schedule it starts from) that
re-sums the free slots and rescans every machine's slot-forcing bound at
every node, searching on after a leaf has reached the lower bound unless
told to stop there.  The sorted round-robin makespan, dealt by `i % m` in
one pass over all sizes.  For the input, metering and report
layers: the per-line `json.loads` loader, the lower-bound metering loop
and `json.dumps` with the report settings.

It also holds the two brute-force oracles that the exact solvers are checked
against: `brute_opt`, the cardinality-constrained optimum by enumerating every
capped assignment (n <= 10), and `clcs_exact`, the class-constrained optimum
by enumerating every assignment (n <= 8).  And `check_report`, the internal
consistency of an adversary report.

The references take a scheduler's decision through `as_pair`: a bare machine
int is a placement with no moves.  `Replay` is the one scripted scheduler:
it hands out a fixed list of decisions in arrival order, for the tests whose
decisions depend on nothing but the arrival index.  Seven helpers only tests
use live here too: `check_invariants`, the constant scheduler's structural
invariants; `rows_of_kind`, a snapshot's live rows of one kind;
`round_down_pow2`, the checked rounding the reference constant scheduler
uses; `certify_load_bound`, the constant scheduler's end-of-stream load
bound on the rounded sizes; `positions`, the list position of each job a
robust-ordinal scheduler holds; `iota`, the closed form of the jobs an
ordinal phase's first border machine receives; and `wide_rounds`, the wide
rounds of each phase read off an ordinal map.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from functools import lru_cache

from cardsched.constant import FALLBACK_MAX_K, _floor_2log2
from cardsched.engine import ContractViolation, ListSchedulingCapped, Scheduler
from cardsched.model import InfeasibleError, Instance, Trace, makespan, power
from cardsched.oracle import OracleResult, lower_bound
from cardsched.ordinal import borders, ordinal_map

BRUTE_MAX_JOBS = 10
CLCS_BRUTE_MAX_JOBS = 8


@dataclass(frozen=True)
class RefRecord:
    job: int
    machine: int
    moves: tuple[tuple[int, int, int], ...]
    moved_size: float
    loads: tuple[float, ...]
    makespan: float


def as_pair(decision) -> tuple[int, tuple[tuple[int, int, int], ...]]:
    """A scheduler's decision as (machine, moves): a bare machine int moves no job."""
    return (decision, ()) if decision.__class__ is int else decision


class RefStreamRunner:
    """Checks every machine's count, or on a `classed` runner its distinct classes,
    and copies all loads on every arrival.

    A classed runner, for ClCS, takes (size, class) pairs, has no job limit, and
    after a move rebuilds every machine's classes from the assignment.
    """

    def __init__(self, scheduler: Scheduler, m: int, k: int, classed: bool = False):
        self.scheduler = scheduler
        self.m = m
        self.k = k
        self.records: list[RefRecord] = []
        self.assignment: dict[int, int] = {}
        self.classes: list[int] | None = [] if classed else None
        self.class_sets: list[set[int]] | None = [set() for _ in range(m)] if classed else None
        self._sizes: dict[int, float] = {}
        self._loads = [0.0] * m
        self._counts = [0] * m

    def push(self, job) -> RefRecord:
        classed = self.classes is not None
        size, cls = job if classed else (job, None)
        if not classed and len(self._sizes) >= self.m * self.k:
            raise InfeasibleError(f"stream longer than capacity m*k = {self.m * self.k}")
        if size < 0:
            raise ValueError(f"job size must be >= 0, got {size}")
        jid = len(self._sizes) + 1
        on_arrival = self.scheduler.on_arrival
        machine, moves = as_pair(on_arrival(size, cls) if classed else on_arrival(size))
        if not 1 <= machine <= self.m:
            raise ContractViolation(jid, f"machine {machine} outside [1, {self.m}]")

        moved_size = 0.0
        for job, src, dst in moves:
            if job == jid:
                raise ContractViolation(jid, "trigger job listed in its own migrations")
            if self.assignment.get(job) != src:
                raise ContractViolation(
                    jid, f"move of job {job} from machine {src} does not match schedule"
                )
            if not 1 <= dst <= self.m or dst == src:
                raise ContractViolation(jid, f"move of job {job} to invalid machine {dst}")
            self.assignment[job] = dst
            self._counts[src - 1] -= 1
            self._counts[dst - 1] += 1
            moved_size += self._sizes[job]

        self._sizes[jid] = size
        self.assignment[jid] = machine
        self._loads[machine - 1] += size
        self._counts[machine - 1] += 1
        if classed:
            self.classes.append(cls)
            self.class_sets[machine - 1].add(cls)
            if moves:  # a move may take a class's last job off a machine
                self.class_sets = [set() for _ in range(self.m)]
                for j, mm in self.assignment.items():
                    self.class_sets[mm - 1].add(self.classes[j - 1])
            for mi, hosted in enumerate(self.class_sets, start=1):
                if len(hosted) > self.k:
                    raise ContractViolation(jid, f"machine {mi} hosts more than {self.k} classes")
        else:
            for mi, c in enumerate(self._counts, start=1):
                if c > self.k:
                    raise ContractViolation(jid, f"machine {mi} holds {c} jobs, cap is {self.k}")

        if moves:
            touched = {src for _, src, _ in moves} | {dst for _, _, dst in moves} | {machine}
            for mi in touched:
                load = 0.0  # a machine left empty reads 0.0, as if it was never used
                for j, mm in self.assignment.items():
                    if mm == mi:
                        load += self._sizes[j]
                self._loads[mi - 1] = load
        record = RefRecord(
            job=jid,
            machine=machine,
            moves=tuple(moves),
            moved_size=moved_size,
            loads=tuple(self._loads),
            makespan=max(self._loads),
        )
        self.records.append(record)
        return record


class Replay:
    """Replays `decisions` in arrival order, each a machine int or a (machine, moves) pair."""

    def __init__(self, decisions):
        self._decisions = iter(decisions)

    def on_arrival(self, *job):
        decision = next(self._decisions, None)
        if decision is None:  # a bare StopIteration could end an enclosing loop quietly
            raise AssertionError("no decision left")
        return decision


class RefGreedyClcs:
    """Greedy class pinning with a `.get` per arrival and a scan per new class."""

    def __init__(self, m: int, k: int):
        self.m, self.k = m, k
        self._machine_of_class: dict[int, int] = {}
        self._bound = [0] * m

    def on_arrival(self, size: float, cls: int) -> int:
        machine = self._machine_of_class.get(cls)
        if machine is None:
            best = None
            for mi in range(self.m):
                if self._bound[mi] >= self.k:
                    continue
                if best is None or self._bound[mi] < self._bound[best]:
                    best = mi
            if best is None:
                raise InfeasibleError("all machines already host k classes")
            self._bound[best] += 1
            machine = self._machine_of_class[cls] = best + 1
        return machine


class RefListSchedulingCapped(Scheduler):
    """Capped greedy by a linear scan over all machines."""

    def __init__(self, m: int, k: int):
        self.m, self.k = m, k
        self._loads = [0.0] * m
        self._counts = [0] * m

    def on_arrival(self, size: float) -> int:
        best = None
        for mi in range(self.m):
            if self._counts[mi] >= self.k:
                continue
            if best is None or self._loads[mi] < self._loads[best]:
                best = mi
        if best is None:
            raise InfeasibleError("greedy-capped: all machines hold k jobs")
        self._loads[best] += size
        self._counts[best] += 1
        return best + 1


def round_down_pow2(size: float) -> tuple[float, int]:
    """Largest power of two <= size, as (value, exponent); exponent may be negative."""
    if not (size > 0) or not math.isfinite(size):
        raise ValueError(f"size must be positive and finite, got {size}")
    e = math.frexp(size)[1] - 1  # size = frac * 2**(e+1) with frac in [0.5, 1), exactly
    return math.ldexp(1.0, e), e


def certify_load_bound(trace: Trace) -> list[str]:
    """End-of-stream load-bound certificate on the rounded sizes.

    For original caps >= 50 each machine's rounded load must be at most
    (2/m) * sum(rounded) + (50 - 1/(k-1)) * max(rounded); smaller caps run in
    fallback mode, where any feasible schedule is within k * max(rounded).
    A zero rounds to 0.
    """
    if not trace.n:
        return []
    m, k0 = trace.m, trace.k
    rounded = [round_down_pow2(size)[0] if size else 0.0 for size in trace.sizes]
    total = sum(rounded)
    p_max = max(rounded)
    rounded_loads = [0.0] * m
    for jid, machine in trace.final_schedule().items():
        rounded_loads[machine - 1] += rounded[jid - 1]
    violations = []
    if k0 <= FALLBACK_MAX_K:
        bound = k0 * p_max
        label = "fallback bound k*p'_max"
    else:
        bound = (2.0 / m) * total + (50.0 - 1.0 / (k0 - 1)) * p_max
        label = "(2/m)*sum(p') + (50 - 1/(k-1))*p'_max"
    for mi, load in enumerate(rounded_loads, start=1):
        if load > bound + 1e-9:
            violations.append(f"machine {mi}: rounded load {load} > {label} = {bound}")
    return violations


class _RefRow:
    def __init__(self, rid: int, m: int):
        self.rid = rid
        self.kind = "free"
        self.group: int | None = None
        self.slots: list[int | None] = [None] * m
        self.filled = 0


class RefConstantScheduler(Scheduler):
    """The constant scheduler with every machine and row chosen by a scan.

    A standalone copy: all m*k slots up front, the slot by `min` over the
    row's empty slots, the small row and the free row by `min`, the fallback
    machine by the fewest lifetime jobs below k, and terminal mode by a scan
    of every machine over every live row.
    """

    def __init__(self, m: int, k: int):
        if m < 1 or k < 1:
            raise ValueError("m and k must be >= 1")
        self.m, self.k = m, k
        self.fallback = k <= FALLBACK_MAX_K
        self.terminal = False
        self.counts = [0] * m
        self.arrivals = 0
        self.active_k = k
        self.l: int | None = None
        self.e_pmax: int | None = None
        self._pure: dict[int, _RefRow] = {}
        self._mixed: dict[int, _RefRow] = {}
        self._small: list[_RefRow] = []
        self._free: list[_RefRow] = []
        self._removed: list[_RefRow] = []
        self._next_rid = 0

    @staticmethod
    def _floor_2log2(k: int) -> int:
        return int(math.floor(2 * math.log2(k) + 1e-12))

    def _new_row(self) -> _RefRow:
        row = _RefRow(self._next_rid, self.m)
        self._next_rid += 1
        return row

    def _init_structure(self):
        self.l = self._floor_2log2(self.active_k)
        small_target = -(self.active_k // -2) - 2 * (self.l + 1)
        assert small_target >= 1
        for i in range(self.l + 1):
            row = self._new_row()
            row.kind, row.group = "pure", i
            self._pure[i] = row
            row = self._new_row()
            row.kind, row.group = "mixed", i
            self._mixed[i] = row
        for _ in range(small_target):
            self._make_small(self._new_row())
        for _ in range(self.active_k - 2 * (self.l + 1) - small_target):
            self._free.append(self._new_row())

    def _make_small(self, row: _RefRow):
        row.kind, row.group = "small", None
        self._small.append(row)

    def _take_free(self) -> _RefRow:
        assert self._free, "free rows exhausted before terminal mode"
        best = min(self._free, key=lambda r: r.rid)
        self._free.remove(best)
        return best

    def _live(self) -> list[_RefRow]:
        return list(self._pure.values()) + list(self._mixed.values()) + self._small + self._free

    def _put(self, row: _RefRow, mi: int, jid: int) -> int:
        assert row.slots[mi] is None
        row.slots[mi] = jid
        row.filled += 1
        self.counts[mi] += 1
        return mi + 1

    def _place_in_row(self, row: _RefRow, jid: int) -> int:
        best = None
        for mi in range(self.m):
            if row.slots[mi] is None and (best is None or self.counts[mi] < self.counts[best]):
                best = mi
        assert best is not None, "placement into a full row"
        return self._put(row, best, jid)

    def _remove_row(self, row: _RefRow):
        row.kind = "removed"
        self._removed.append(row)
        self.active_k -= 1

    def _check_terminal(self) -> bool:
        if self.active_k <= FALLBACK_MAX_K:
            self.terminal = True
        return self.terminal

    def _repair_after_pair_removal(self, i: int):
        new_l = self._floor_2log2(self.active_k)
        if new_l == self.l:
            srow = min(self._small, key=lambda r: r.rid)
            self._small.remove(srow)
            srow.kind, srow.group = "mixed", i
            self._mixed[i] = srow
            frow = self._take_free()
            frow.kind, frow.group = "pure", i
            self._pure[i] = frow
            return
        assert new_l == self.l - 1
        if i == self.l:
            self._make_small(self._take_free())
        else:
            old_pure = self._pure.pop(self.l)
            old_mixed = self._mixed.pop(self.l)
            new_mixed = max((old_mixed, old_pure), key=lambda r: r.filled)
            leftover = old_pure if new_mixed is old_mixed else old_mixed
            new_mixed.kind, new_mixed.group = "mixed", i
            self._mixed[i] = new_mixed
            self._make_small(leftover)
            frow = self._take_free()
            frow.kind, frow.group = "pure", i
            self._pure[i] = frow
        self.l = new_l

    def _repair_after_single_removal(self):
        while True:
            new_l = self._floor_2log2(self.active_k)
            if new_l == self.l:
                break
            merged = [self._pure.pop(self.l), self._mixed.pop(self.l)]
            for row in merged:
                self._make_small(row)
            self.l = new_l
            full = [r for r in merged if r.filled == self.m]
            if not full:
                break
            for row in full:
                self._small.remove(row)
                self._remove_row(row)
            if self._check_terminal():
                return
        target = -(self.active_k // -2) - 2 * (self.l + 1)
        while len(self._small) < target:
            self._make_small(self._take_free())

    def _place_balanced(self) -> int:
        best = None
        for mi in range(self.m):
            if self.counts[mi] < self.k and (best is None or self.counts[mi] < self.counts[best]):
                best = mi
        self.counts[best] += 1
        return best + 1

    def _place_terminal(self, jid: int) -> int:
        live = self._live()
        best = None
        for mi in range(self.m):
            if any(r.slots[mi] is None for r in live):
                if best is None or self.counts[mi] < self.counts[best]:
                    best = mi
        assert best is not None
        row = min((r for r in live if r.slots[best] is None), key=lambda r: r.rid)
        return self._put(row, best, jid)

    def _place_group(self, jid: int, i: int) -> int:
        pure, mixed = self._pure[i], self._mixed[i]
        candidates = [r for r in (mixed, pure) if r.filled < self.m]
        row = max(candidates, key=lambda r: r.filled)
        machine = self._place_in_row(row, jid)
        if pure.filled == self.m and mixed.filled == self.m:
            del self._pure[i]
            del self._mixed[i]
            self._remove_row(pure)
            self._remove_row(mixed)
            if not self._check_terminal():
                self._repair_after_pair_removal(i)
        return machine

    def _place_small(self, jid: int) -> int:
        assert self._small, "no small row available"
        row = min(self._small, key=lambda r: (self.m - r.filled, r.rid))
        machine = self._place_in_row(row, jid)
        if row.filled == self.m:
            self._small.remove(row)
            self._remove_row(row)
            if not self._check_terminal():
                self._repair_after_single_removal()
        return machine

    def on_arrival(self, size: float) -> int:
        if self.arrivals >= self.m * self.k:
            raise InfeasibleError("capacity m*k exhausted")
        self.arrivals += 1
        if self.fallback:
            return self._place_balanced()
        if self.l is None:
            self._init_structure()
        jid = self.arrivals
        e = None
        if size > 0:  # a zero is a small job and sets no p_max
            _, e = round_down_pow2(size)
            if self.e_pmax is None or e > self.e_pmax:
                self.e_pmax = e
        if self.terminal:
            return self._place_terminal(jid)
        if e is not None and self.e_pmax - e <= self.l:
            return self._place_group(jid, self.e_pmax - e)
        return self._place_small(jid)

    def structure_snapshot(self) -> dict:
        def snap(row: _RefRow) -> dict:
            slots = tuple(row.slots)
            return {"rid": row.rid, "kind": row.kind, "group": row.group, "slots": slots}

        return {
            "active_k": self.active_k,
            "p_max": None if self.e_pmax is None else math.ldexp(1.0, self.e_pmax),
            "l": self.l,
            "rows": [snap(r) for r in sorted(self._live(), key=lambda r: r.rid)],
            "removed_rows": [snap(r) for r in self._removed],
            "fallback": self.fallback,
            "terminal": self.terminal,
        }


def check_invariants(scheduler) -> None:
    """Raise AssertionError when a `ConstantCompetitiveScheduler` invariant is broken.

    O(m + k), cheap enough to call after every arrival.  The machines from
    `_next_fresh` on are untouched; each touched machine sits in one bucket
    (bucket 0 stays empty), between the removed rows (each full: one job per
    machine) and k; the buckets hold every arrival, and so do the removed
    rows and the live rows' filled slots, each live row counting its slot
    entries; terminal pointers have passed filled slots; the row population
    is checked while live.  Fallback keeps no state.
    """
    sc = scheduler
    if sc.fallback or sc.l is None:
        return
    buckets, removed, fresh = sc._buckets, len(sc._removed), sc._next_fresh
    assert not buckets[0] and 0 <= fresh <= sc.m and (fresh == sc.m or not removed)
    assert sorted(itertools.chain.from_iterable(buckets)) == list(range(fresh))
    assert all(b == sorted(b) for b in filter(None, buckets)) and len(buckets) <= sc.k + 1
    assert 1 <= sc._low and not any(buckets[: sc._low]) and sc._low >= removed
    assert buckets[sc._low] or not fresh
    jobs = sum(c * len(b) for c, b in enumerate(buckets))
    live = sc._live_rows()
    live_jobs = sum(len(row.slots) for row in live)
    assert jobs == sc.arrivals == sc.m * removed + live_jobs
    if sc.terminal:
        rows = sc._frozen
        assert all(i == 0 or mi in rows[i - 1].slots for mi, i in enumerate(sc._next))
        return
    assert sc.active_k > FALLBACK_MAX_K
    assert sc.l == _floor_2log2(sc.active_k)
    for i in range(sc.l + 1):
        pure, mixed = sc._pure[i], sc._mixed[i]
        assert pure.kind == "pure" and pure.group == i
        assert mixed.kind == "mixed" and mixed.group == i
        assert len(pure.slots) < sc.m or len(mixed.slots) < sc.m, f"pair {i} fully full"
    assert len(sc._pure) == len(sc._mixed) == sc.l + 1
    small_target = -(sc.active_k // -2) - 2 * (sc.l + 1)
    assert len(sc._small) == small_target, f"small rows {len(sc._small)} != target {small_target}"
    for row in sc._small:
        assert len(row.slots) < sc.m, "full small row survived"
    free = sc.k - sc._next_free
    assert free == sc.active_k // 2, f"free rows {free} != floor(active_k/2)"
    live = 2 * (sc.l + 1) + len(sc._small) + free
    assert live == sc.active_k


def rows_of_kind(snapshot: dict, kind: str) -> list[dict]:
    """The live rows of a constant scheduler's snapshot labelled `kind`."""
    return [r for r in snapshot["rows"] if r["kind"] == kind]


def positions(scheduler) -> dict[int, int]:
    """A `RobustOrdinalScheduler`'s job id -> 1-based list position
    (descending class exponent, queue order)."""
    order = (jid for e in scheduler._order for jid in scheduler._classes[e])
    return {jid: p for p, jid in enumerate(order, start=1)}


def iota(s: int, k: int) -> int:
    """Jobs the first border machine of ordinal phase s receives during phase s (closed form)."""
    if s < 2:
        raise ValueError(f"s must be >= 2, got {s}")
    if k < 3:
        raise ValueError(f"k must be >= 3, got {k}")
    if (k - 1) % 3 == 1 and s % 2 == 1:
        return (k - 1) // 3
    return -((k - 1) // -3)  # ceil((k-1)/3)


def ref_ordinal_map(m: int, k: int) -> tuple[int, ...]:
    """The ordinal map by simulating every round one machine at a time: per-machine
    counts, an overflow check per position, and a scan of the narrow interval
    after every round to see whether the phase is over."""
    if m < 1 or k < 1:
        raise ValueError("m and k must be >= 1")
    if m == 1:
        return (1,) * k
    if k == 1:
        return tuple(range(1, m + 1))
    if k == 2:
        return tuple(range(1, m + 1)) + tuple(range(m, 0, -1))
    xi = (m.bit_length() - 1) + 2  # floor(log2 m) + 2
    mu = tuple(m // 2 ** (xi - i) + 1 for i in range(1, xi + 1))
    sigma: list[int] = []
    counts = [0] * (m + 1)  # 1-based

    def do_round(a: int, b: int):
        for mach in range(a, b):
            if counts[mach] >= k:
                raise AssertionError(f"round [{a},{b}) overflows machine {mach} past k={k}")
            sigma.append(mach)
            counts[mach] += 1

    def interval_full(a: int, b: int) -> bool:
        return all(counts[mach] == k for mach in range(a, b))

    do_round(1, m + 1)
    wide_a, nar_a, b = mu[xi - 3], mu[xi - 2], mu[xi - 1]
    while not interval_full(nar_a, b):
        do_round(wide_a, b)
        if interval_full(nar_a, b):
            break
        do_round(nar_a, b)
        if interval_full(nar_a, b):
            break
        do_round(nar_a, b)
    for s in range(3, xi):
        wide_a, nar_a, b = mu[xi - s - 1], mu[xi - s], mu[xi - s + 1]
        while not interval_full(nar_a, b):
            do_round(wide_a, b)
            if interval_full(nar_a, b):
                break
            do_round(nar_a, b)
    while counts[1] < k:
        do_round(1, 2)
    assert all(c == k for c in counts[1:]) and len(sigma) == m * k
    return tuple(sigma)


def wide_rounds(sigma, m: int) -> dict[int, int]:
    """Ordinal phase s (2 <= s < xi) -> the wide rounds the map `sigma` deals in it.

    A round deals one position to each machine of an interval in order, so
    sigma splits into rounds wherever sigma[i] != sigma[i-1] + 1.  After the
    first round, phase s's wide rounds are those over [mu(xi-s), mu(xi-s+2)).
    """
    mu = borders(m)
    cuts = [i for i in range(1, len(sigma)) if sigma[i] != sigma[i - 1] + 1]
    rounds = [(sigma[i], sigma[j - 1] + 1) for i, j in zip(cuts, cuts[1:] + [len(sigma)])]
    return {s: rounds.count((mu[-s - 1], mu[-s + 1])) for s in range(2, len(mu))}


def ref_round_up_geometric(size: float, eps: float) -> tuple[float, int]:
    """Smallest integer power of (1+eps) >= size, as (value, exponent): every
    power lifted afresh, and size and eps checked on every call."""
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


class RefRobustOrdinal(Scheduler):
    """Robust-ordinal by rebuilding every job's machine before and after the resort."""

    def __init__(self, m: int, k: int, eps: float):
        if eps <= 0:
            raise ValueError(f"eps must be positive, got {eps}")
        self.m, self.k = m, k
        self.eps = eps
        self._sigma = ordinal_map(m, k)
        self._classes: dict[float, list[int]] = {}  # exponent (-inf for zeros) -> job ids
        self._dummies = m * k

    def positions(self) -> dict[int, int]:
        """Job id -> 1-based list position (descending class exponent, queue order)."""
        pos = {}
        p = 1
        for e in sorted(self._classes, reverse=True):
            for jid in self._classes[e]:
                pos[jid] = p
                p += 1
        return pos

    def _machines(self) -> dict[int, int]:
        sigma = self._sigma
        out = {}
        p = 0
        for e in sorted(self._classes, reverse=True):
            for jid in self._classes[e]:
                out[jid] = sigma[p]
                p += 1
        return out

    def resort_on_arrival(self, jid: int, exponent: int) -> list[int]:
        """Insert job `jid` into class `exponent`; returns the repositioned job ids."""
        if self._dummies == 0:
            raise InfeasibleError("no dummy slot left: capacity m*k exhausted")
        self._classes.setdefault(exponent, []).append(jid)
        moved = []
        for e in sorted(self._classes, reverse=True):
            if e >= exponent:
                continue
            queue = self._classes[e]
            if not queue:
                continue
            head = queue.pop(0)
            queue.append(head)
            moved.append(head)
        self._dummies -= 1
        return moved

    def on_arrival(self, size: float) -> tuple[int, tuple[tuple[int, int, int], ...]]:
        # a zero sits in a class below every exponent
        exponent = ref_round_up_geometric(size, self.eps)[1] if size else -math.inf
        jid = self.m * self.k - self._dummies + 1
        before = self._machines()
        moved = self.resort_on_arrival(jid, exponent)
        after = self._machines()
        moves = tuple((j, before[j], after[j]) for j in moved if before[j] != after[j])
        return after[jid], moves


def _by_size(instance: Instance) -> list[int]:
    """Job ids by non-increasing size, ties by ascending id."""
    return sorted(range(1, instance.n + 1), key=lambda j: (-instance.sizes[j - 1], j))


def sorted_round_robin(instance: Instance) -> dict[int, int]:
    """Sort jobs non-increasingly, send the i-th to machine 1+(i-1) mod m."""
    return {j: 1 + i % instance.m for i, j in enumerate(_by_size(instance))}


def ref_sorted_round_robin_makespan(sizes, m: int) -> float:
    """The sorted round-robin makespan by one pass over all sizes, dealing by `i % m`."""
    ld = [0.0] * m
    for i, s in enumerate(sorted(sizes, reverse=True)):
        ld[i % m] += s
    return max(ld)


def ref_exact_opt(instance: Instance, stop_at_lb: bool = False, target=None) -> OracleResult:
    """Branch-and-bound that re-sums the free slots and rescans every machine's
    bound at every node; it searches on after a leaf has reached the lower
    bound, or with `stop_at_lb` stops at the first such leaf.  `target`, if
    given, stands in for the lower bound in both exits."""
    if instance.n > instance.m * instance.k:
        raise InfeasibleError(
            f"{instance.n} jobs exceed capacity m*k = {instance.m * instance.k}"
        )
    m, k = instance.m, instance.k
    srr = sorted_round_robin(instance)
    incumbent = makespan(srr, instance)
    lb = lower_bound(instance.sizes, m) if target is None else target
    if incumbent == lb or not instance.sizes:
        return OracleResult(incumbent, srr, 0)

    order = _by_size(instance)
    sizes = [instance.sizes[j - 1] for j in order]
    n = len(sizes)
    best_assign = [srr[j] - 1 for j in order]
    best = incumbent
    greedy = ListSchedulingCapped(m, k)
    lpt = [greedy.on_arrival(s) - 1 for s in sizes]
    lpt_loads = [0.0] * m
    for s, mi in zip(sizes, lpt):
        lpt_loads[mi] += s
    lpt_make = max(lpt_loads)
    if lpt_make < best:
        best, best_assign = lpt_make, lpt
    if best == lb:
        schedule = {j: best_assign[i] + 1 for i, j in enumerate(order)}
        return OracleResult(best, schedule, 0)

    # suffix_sum[j] = total size of jobs j..n-1; the t smallest remaining jobs
    # always sit at the tail of the sorted order
    suffix_sum = [0.0] * (n + 1)
    for j in range(n - 1, -1, -1):
        suffix_sum[j] = suffix_sum[j + 1] + sizes[j]

    machine_load = [0.0] * m
    machine_count = [0] * m
    current = [0] * n
    nodes = 0

    def recurse(idx: int, cur_max: float) -> bool:
        """True once the search is to stop."""
        nonlocal best, best_assign, nodes
        nodes += 1
        if cur_max >= best:
            return False
        if idx == n:
            best = cur_max
            best_assign = current[:]
            return stop_at_lb and best == lb
        remaining = n - idx
        slack = sum(k - c for c in machine_count) - remaining
        if slack < m:  # some machine is forced to take more jobs
            for mi in range(m):
                forced = k - machine_count[mi] - slack
                if forced > 0 and machine_load[mi] + suffix_sum[n - forced] >= best:
                    return False
        size = sizes[idx]
        start = current[idx - 1] if idx and sizes[idx - 1] == size else 0
        seen = set()
        for mi in range(start, m):
            if machine_count[mi] == k:
                continue
            state = (machine_load[mi], machine_count[mi])
            if state in seen:
                continue
            seen.add(state)
            old_load = machine_load[mi]
            new_load = old_load + size
            if new_load >= best:
                continue
            machine_load[mi] = new_load
            machine_count[mi] += 1
            current[idx] = mi
            if recurse(idx + 1, cur_max if cur_max >= new_load else new_load):
                return True
            machine_load[mi] = old_load
            machine_count[mi] -= 1
        return False

    recurse(0, 0.0)
    schedule = {j: best_assign[i] + 1 for i, j in enumerate(order)}
    result = OracleResult(best, schedule, nodes)
    assert makespan(schedule, instance) == result.opt_makespan
    return result


@lru_cache(maxsize=None)
def _feasible_assignments(n: int, m: int, k: int) -> tuple[tuple[int, ...], ...]:
    # all of m**n assignment vectors, filtered to those obeying the cap
    out = []
    for assign in itertools.product(range(m), repeat=n):
        counts = [0] * m
        ok = True
        for mi in assign:
            counts[mi] += 1
            if counts[mi] > k:
                ok = False
                break
        if ok:
            out.append(assign)
    return tuple(out)


def brute_opt(instance: Instance) -> float:
    """Minimum makespan by full enumeration; independent of the branch-and-bound path."""
    n, m, k = instance.n, instance.m, instance.k
    if n > BRUTE_MAX_JOBS:
        raise ValueError(f"brute_opt guard: {n} jobs > {BRUTE_MAX_JOBS}")
    if n > m * k:
        raise InfeasibleError(f"{n} jobs exceed capacity m*k = {m * k}")
    if n == 0:
        return 0.0
    sizes = instance.sizes
    best = None
    for assign in _feasible_assignments(n, m, k):
        ld = [0.0] * m
        for s, mi in zip(sizes, assign):
            ld[mi] += s
        cost = max(ld)
        if best is None or cost < best:
            best = cost
    return best


def clcs_exact(jobs, m: int, k: int, speeds=None) -> float:
    """ClCS optimum over (size, class) pairs by enumerating all assignments (n <= 8);
    identical machines unless speeds are given."""
    jobs = [(float(size), int(cls)) for size, cls in jobs]
    speeds = (1.0,) * m if speeds is None else tuple(float(sp) for sp in speeds)
    n = len(jobs)
    if n > CLCS_BRUTE_MAX_JOBS:
        raise ValueError(f"clcs_exact guard: {n} jobs > {CLCS_BRUTE_MAX_JOBS}")
    if n == 0:
        return 0.0
    best = None
    for assign in itertools.product(range(m), repeat=n):
        loads = [0.0] * m
        class_sets: list[set[int]] = [set() for _ in range(m)]
        ok = True
        for (size, cls), mi in zip(jobs, assign):
            loads[mi] += size
            class_sets[mi].add(cls)
            if len(class_sets[mi]) > k:
                ok = False
                break
        if not ok:
            continue
        cost = max(ld / sp for ld, sp in zip(loads, speeds))
        if best is None or cost < best:
            best = cost
    if best is None:
        raise InfeasibleError("no class-feasible assignment exists")
    return best


def ref_load_jobs(path: str, classed: bool = False) -> list[tuple[float, int | None]]:
    """The loader with one json.loads call per line; `classed` requires a class in range."""
    entries: list[tuple[float, int | None]] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}: line {lineno}: invalid JSON ({exc.msg})") from exc
            if not isinstance(obj, dict) or "size" not in obj:
                raise ValueError(f"{path}: line {lineno}: expected an object with a 'size' field")
            size = obj["size"]
            if isinstance(size, bool) or not isinstance(size, (int, float)):
                raise ValueError(f"{path}: line {lineno}: 'size' must be a number")
            try:
                size = float(size)
            except OverflowError:
                size = math.inf
            if not (math.isfinite(size) and size >= 0):
                raise ValueError(f"{path}: line {lineno}: size must be finite and >= 0, got {size}")
            cls = obj.get("class")
            if cls is not None and (isinstance(cls, bool) or not isinstance(cls, int)):
                raise ValueError(f"{path}: line {lineno}: 'class' must be an integer")
            if classed:
                if cls is None:
                    raise ValueError(f"{path}: line {lineno}: 'class' field required for clcs")
                if not 1 <= cls <= 2**63 - 1:
                    raise ValueError(
                        f"{path}: line {lineno}: job class must be in [1, 2**63 - 1], got {cls}"
                    )
            entries.append((size, cls))
    return entries


def _ref_ratio(numer: float, denom: float) -> float:
    if denom == 0:
        return 1.0 if numer == 0 else math.inf
    return numer / denom


def ref_lower_bound_metrics(sizes, makespans, m: int) -> tuple[float, float]:
    """(prefix-max ratio, final denominator) of lower-bound metering, one prefix per step."""
    prefix_max = 0.0
    final_denom = 0.0
    running_total = 0.0
    running_max = 0.0
    for t in range(len(sizes)):
        running_total += sizes[t]
        running_max = max(running_max, sizes[t])
        final_denom = max(running_max, running_total / m)
        prefix_max = max(prefix_max, _ref_ratio(makespans[t], final_denom))
    return prefix_max, final_denom


def ref_migration_stats(trace) -> tuple[float, float]:
    """(max factor, total moved) of migration metering, one record per arrival."""
    max_factor = total = 0.0
    for jid in range(1, trace.n + 1):
        moved = trace.migration(jid).moved_size
        total += moved
        if moved > 0:
            size = trace.sizes[jid - 1]
            max_factor = max(max_factor, math.inf if size == 0 else moved / size)
    return max_factor, total


def ref_report_text(report) -> str:
    """A report as the CLI printed it before it had its own encoder."""
    return json.dumps(report, indent=2, sort_keys=True, allow_nan=False)


def check_report(report) -> None:
    """Internal consistency of an adversary report: ratio arithmetic and the cheap bound."""
    assert math.isclose(report.ratio, report.alg_makespan / report.opt_value, rel_tol=1e-12)
    cheap = lower_bound(report.sizes, report.m)
    assert report.opt_value >= cheap - 1e-9 * max(1.0, cheap), (
        f"opt_value {report.opt_value} below cheap lower bound {cheap}"
    )
