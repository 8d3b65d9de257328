"""The O(1)-competitive online scheduler for the cardinality-constrained problem.

Sizes are rounded down to powers of two and jobs are grouped by how many
doublings they sit below the current maximum: group i holds rounded size
p_max / 2**i for i in 0..l with l = floor(2*log2(active_k)); everything
smaller is "small".  Machine capacity is organized into rows of one slot per
machine.  While the structure is live, each group owns a pure row (group jobs
only) and a mixed row (group plus small jobs), small jobs fill dedicated
small rows, and the rest of the rows are free.  Full rows are retired
together with one unit (small row) or two units (group pair) of active_k, and
the row population is repaired from the free pool; once active_k falls below
50 the structure freezes and the remaining slots are filled balanced.

When the maximum grows, row labels stay fixed: the groups are re-read
relative to the new maximum, which treats the old jobs as if enlarged; loads
only ever count real sizes.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

from .engine import Scheduler, SchedulerDecision
from .model import InfeasibleError, Trace, round_down_pow2

FALLBACK_MAX_K = 49


def _floor_2log2(k: int) -> int:
    """floor(2*log2(k)) = floor(log2(k*k)), exactly."""
    return (k * k).bit_length() - 1


class _Row:
    __slots__ = ("rid", "kind", "group", "slots", "filled", "heap")

    def __init__(self, rid: int, m: int):
        self.rid = rid
        self.kind = "free"
        self.group: int | None = None
        self.slots: list[int | None] = [None] * m
        self.filled = 0
        # (lifetime count, machine) of the empty slots, built on the first
        # placement; counts only rise, so a stale entry is a lower bound
        self.heap: list[tuple[int, int]] | None = None


@dataclass(frozen=True)
class RowSnapshot:
    rid: int
    kind: str
    group: int | None
    slots: tuple[int | None, ...]


@dataclass(frozen=True)
class RowStructure:
    """Read-only copy of the scheduler's internal state, for tests and dumps."""

    m: int
    original_k: int
    active_k: int
    p_max: float | None
    l: int | None
    rows: tuple[RowSnapshot, ...]
    removed_rows: tuple[RowSnapshot, ...]
    fallback: bool
    terminal: bool

    def rows_of_kind(self, kind: str) -> tuple[RowSnapshot, ...]:
        return tuple(r for r in self.rows if r.kind == kind)


class ConstantCompetitiveScheduler(Scheduler):
    def __init__(self, m: int, k: int):
        if m < 1 or k < 1:
            raise ValueError("m and k must be >= 1")
        self.m = m
        self.k = k  # original cap, never changes
        self.fallback = k <= FALLBACK_MAX_K
        self.terminal = False
        self.counts = [0] * m  # lifetime jobs per machine
        self.arrivals = 0
        self.active_k = k
        self.l: int | None = None
        self.e_pmax: int | None = None
        self._pure: dict[int, _Row] = {}
        self._mixed: dict[int, _Row] = {}
        self._small: list[_Row] = []
        # (empty slots, rid, seq, row) for small rows; stale entries are skipped
        self._small_heap: list[tuple[int, int, int, _Row]] = []
        self._seq = 0
        self._free: list[_Row] = []
        self._removed: list[_Row] = []
        self._next_rid = 0

    # -- structure bookkeeping ------------------------------------------------

    def _new_row(self) -> _Row:
        row = _Row(self._next_rid, self.m)
        self._next_rid += 1
        return row

    def _init_structure(self, e: int):
        self.e_pmax = e
        self.l = _floor_2log2(self.active_k)
        small_target = -(self.active_k // -2) - 2 * (self.l + 1)
        assert small_target >= 1, "structure requires ceil(k/2) > 2*(l+1)"
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

    def _make_small(self, row: _Row):
        row.kind, row.group = "small", None
        self._small.append(row)
        self._push_small(row)

    def _push_small(self, row: _Row):
        self._seq += 1
        heapq.heappush(self._small_heap, (self.m - row.filled, row.rid, self._seq, row))

    def _take_free(self) -> _Row:
        assert self._free, "free rows exhausted before terminal mode"
        best = min(self._free, key=lambda r: r.rid)
        self._free.remove(best)
        return best

    def _place_in_row(self, row: _Row, jid: int) -> int:
        # empty slot on the machine with the fewest lifetime jobs, tie to lowest index
        heap = row.heap
        if heap is None:
            heap = row.heap = [
                (self.counts[mi], mi) for mi in range(self.m) if row.slots[mi] is None
            ]
            heapq.heapify(heap)
        counts = self.counts
        assert heap, "placement into a full row"
        count, best = heap[0]
        while count != counts[best]:
            heapq.heapreplace(heap, (counts[best], best))
            count, best = heap[0]
        heapq.heappop(heap)
        assert row.slots[best] is None, "heap entry for a filled slot"
        row.slots[best] = jid
        row.filled += 1
        self.counts[best] += 1
        return best + 1

    def _remove_row(self, row: _Row):
        row.kind = "removed"
        self._removed.append(row)
        self.active_k -= 1

    def _check_terminal(self) -> bool:
        if self.active_k <= FALLBACK_MAX_K:
            self.terminal = True
        return self.terminal

    # -- repairs ---------------------------------------------------------------

    def _repair_after_pair_removal(self, i: int):
        new_l = _floor_2log2(self.active_k)
        if new_l == self.l:
            # Case 1: promote one small row to the new mixed row, one free to pure
            assert self._small, "no small row available for case-1 repair"
            srow = min(self._small, key=lambda r: r.rid)
            self._small.remove(srow)
            srow.kind, srow.group = "mixed", i
            self._mixed[i] = srow
            frow = self._take_free()
            frow.kind, frow.group = "pure", i
            self._pure[i] = frow
            return
        assert new_l == self.l - 1, "l may drop by at most 1 per removal event"
        if i == self.l:
            # Case 2: the removed pair was the last group; it disappears
            self._make_small(self._take_free())
        else:
            # Case 3: the last group's pair turns small; reuse one row as the
            # new mixed row (the complete one when there is one), a free row
            # becomes the new pure row, the leftover joins the small rows
            old_pure = self._pure.pop(self.l)
            old_mixed = self._mixed.pop(self.l)
            new_mixed = max((old_mixed, old_pure), key=lambda r: r.filled)
            leftover = old_pure if new_mixed is old_mixed else old_mixed
            assert leftover.filled < self.m, "both rows of a live pair are full"
            new_mixed.kind, new_mixed.group = "mixed", i
            self._mixed[i] = new_mixed
            self._make_small(leftover)
            frow = self._take_free()
            frow.kind, frow.group = "pure", i
            self._pure[i] = frow
        self.l = new_l

    def _repair_after_single_removal(self):
        while True:
            new_l = _floor_2log2(self.active_k)
            if new_l == self.l:
                break
            assert new_l == self.l - 1
            merged = [self._pure.pop(self.l), self._mixed.pop(self.l)]
            for row in merged:
                self._make_small(row)
            self.l = new_l
            # a merged row may already be full; full small rows never persist
            full = [r for r in merged if r.filled == self.m]
            if not full:
                break
            for row in full:
                self._small.remove(row)
                self._remove_row(row)
            if self._check_terminal():
                return
        target = -(self.active_k // -2) - 2 * (self.l + 1)
        assert len(self._small) <= target, "small rows exceed the invariant target"
        while len(self._small) < target:
            self._make_small(self._take_free())

    # -- placements --------------------------------------------------------

    def _place_balanced(self) -> int:
        # fallback mode: any machine below the lifetime cap, fewest jobs first
        best = None
        for mi in range(self.m):
            if self.counts[mi] >= self.k:
                continue
            if best is None or self.counts[mi] < self.counts[best]:
                best = mi
        assert best is not None
        self.counts[best] += 1
        return best + 1

    def _place_terminal(self, jid: int) -> int:
        # frozen structure: fewest-jobs machine that still has an empty slot
        # in a live row; slots guarantee the cap is never exceeded
        live = (
            list(self._pure.values())
            + list(self._mixed.values())
            + self._small
            + self._free
        )
        best = None
        for mi in range(self.m):
            if any(r.slots[mi] is None for r in live):
                if best is None or self.counts[mi] < self.counts[best]:
                    best = mi
        assert best is not None, "no live empty slot despite remaining capacity"
        row = min((r for r in live if r.slots[best] is None), key=lambda r: r.rid)
        row.slots[best] = jid
        row.filled += 1
        self.counts[best] += 1
        return best + 1

    def _place_group(self, jid: int, i: int) -> int:
        pure, mixed = self._pure[i], self._mixed[i]
        candidates = [r for r in (mixed, pure) if r.filled < self.m]
        assert candidates, "both rows of a pair are full before placement"
        row = max(candidates, key=lambda r: r.filled)  # fewest empty slots, tie mixed
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
        # small row with the fewest empty slots, tie to lowest rid
        heap = self._small_heap
        while True:
            assert heap, "no small row available"
            empty, _, _, row = heapq.heappop(heap)
            if row.kind == "small" and self.m - row.filled == empty:
                break
        machine = self._place_in_row(row, jid)
        if row.filled < self.m:
            self._push_small(row)
        else:
            self._small.remove(row)
            self._remove_row(row)
            if not self._check_terminal():
                self._repair_after_single_removal()
        return machine

    # -- contract ------------------------------------------------------------

    def on_arrival(self, size: float) -> SchedulerDecision:
        if size <= 0:
            raise ValueError(f"job size must be positive, got {size}")
        if self.arrivals >= self.m * self.k:
            raise InfeasibleError("capacity m*k exhausted")
        self.arrivals += 1
        if self.fallback:
            return SchedulerDecision(self._place_balanced())
        _, e = round_down_pow2(size)
        if self.e_pmax is None:
            self._init_structure(e)
        elif e > self.e_pmax:
            self.e_pmax = e
        jid = self.arrivals
        if self.terminal:
            return SchedulerDecision(self._place_terminal(jid))
        i = self.e_pmax - e
        if i <= self.l:
            machine = self._place_group(jid, i)
        else:
            machine = self._place_small(jid)
        return SchedulerDecision(machine)

    # -- introspection -------------------------------------------------------

    def structure_snapshot(self) -> RowStructure:
        def snap(row: _Row) -> RowSnapshot:
            return RowSnapshot(row.rid, row.kind, row.group, tuple(row.slots))

        live = (
            list(self._pure.values())
            + list(self._mixed.values())
            + self._small
            + self._free
        )
        live.sort(key=lambda r: r.rid)
        return RowStructure(
            m=self.m,
            original_k=self.k,
            active_k=self.active_k,
            p_max=None if self.e_pmax is None else math.ldexp(1.0, self.e_pmax),
            l=self.l,
            rows=tuple(snap(r) for r in live),
            removed_rows=tuple(snap(r) for r in self._removed),
            fallback=self.fallback,
            terminal=self.terminal,
        )

    def check_invariants(self):
        """Raise AssertionError when the live structural invariant is broken.

        Cheap enough to call after every arrival; only meaningful while the
        structure is live (not fallback, not terminal, active_k >= 50).
        """
        for mi in range(self.m):
            assert self.counts[mi] <= self.k, f"machine {mi + 1} over lifetime cap"
        if self.fallback or self.terminal or self.e_pmax is None:
            return
        assert self.active_k > FALLBACK_MAX_K
        assert self.l == _floor_2log2(self.active_k)
        for i in range(self.l + 1):
            pure, mixed = self._pure[i], self._mixed[i]
            assert pure.kind == "pure" and pure.group == i
            assert mixed.kind == "mixed" and mixed.group == i
            assert pure.filled < self.m or mixed.filled < self.m, f"pair {i} fully full"
        assert len(self._pure) == len(self._mixed) == self.l + 1
        small_target = -(self.active_k // -2) - 2 * (self.l + 1)
        assert len(self._small) == small_target, (
            f"small rows {len(self._small)} != target {small_target}"
        )
        for row in self._small:
            assert row.filled < self.m, "full small row survived"
        assert len(self._free) == self.active_k // 2, (
            f"free rows {len(self._free)} != floor(active_k/2)"
        )
        live = 2 * (self.l + 1) + len(self._small) + len(self._free)
        assert live == self.active_k


def certify_load_bound(trace: Trace) -> list[str]:
    """End-of-stream load-bound certificate on the rounded sizes.

    For original caps >= 50 each machine's rounded load must be at most
    (2/m) * sum(rounded) + (50 - 1/(k-1)) * max(rounded); smaller caps run in
    fallback mode, where any feasible schedule is within k * max(rounded).
    """
    if not trace.n:
        return []
    m, k0 = trace.m, trace.k
    rounded = [round_down_pow2(size)[0] for size in trace.sizes]
    total = sum(rounded)
    p_max = max(rounded)
    rounded_loads = [0.0] * m
    for jid, machine in trace.final_schedule().assignment.items():
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
