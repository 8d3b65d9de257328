"""The O(1)-competitive online scheduler for the cardinality-constrained problem.

Sizes are rounded down to powers of two and jobs are grouped by how many
doublings they sit below the current maximum: group i holds rounded size
p_max / 2**i for i in 0..l with l = floor(2*log2(active_k)); everything
smaller, a zero included, is "small".  Machine capacity is organized into
rows of one slot per machine.  While the structure is live, each group owns
a pure row (group jobs only) and a mixed row (group plus small jobs), small
jobs fill dedicated small rows, and the rest of the rows are free.  Full
rows are retired together with one unit (small row) or two units (group
pair) of active_k, and the row population is repaired from the free pool;
once active_k falls below 50 the structure freezes (terminal mode) and the
remaining live slots are filled, fewest-jobs machine first.  Caps k <= 49
never build the structure: that fallback's `on_arrival` is round-robin's
own, so an arrival runs none of this module's code.  Otherwise the
first arrival builds it, and the first positive size sets p_max.

Within a row the slot goes to the machine with the fewest lifetime jobs, tie
to the lowest index.  All rows share one (count, machine) order, kept as
buckets of touched machines per count.  Bucket 0 is implicit: the untouched
machines are an index range, counted by `_next_fresh`, and an untouched
machine is empty in every row and first in the order, so it takes the job
without a walk.  A row keeps its filled slots only, as a dict from machine
to job, so a run holds O(n + k) state whatever m is; the snapshot builds a
row's m slots only when asked.  Per arrival, fallback is O(1); live mode is
one Python frame that picks the row, walks the order up to the first
machine empty in it (the machines skipped are the cost; no log m bound in
theory) and moves that machine to the next count by bisection; a full row
retires in O(k).  Terminal mode takes the first machine of the order, and a
per-machine pointer over the frozen rows passes each row at most once.

When the maximum grows, row labels stay fixed: the groups are re-read
relative to the new maximum, which treats the old jobs as if enlarged; loads
only ever count real sizes.
"""

from __future__ import annotations

import math
from bisect import bisect_left, insort
from math import frexp

from .engine import RoundRobinScheduler, Scheduler

FALLBACK_MAX_K = 49


def _floor_2log2(k: int) -> int:
    """floor(2*log2(k)) = floor(log2(k*k)), exactly."""
    return (k * k).bit_length() - 1


def _small_order(row: _Row) -> tuple[int, int]:
    return -len(row.slots), row.rid


class _Row:
    __slots__ = ("rid", "kind", "group", "slots")

    def __init__(self, rid: int):
        self.rid = rid
        self.kind = "free"
        self.group: int | None = None
        self.slots: dict[int, int] = {}  # machine index -> job id, filled slots only


class ConstantCompetitiveScheduler(Scheduler):
    def __init__(self, m: int, k: int):
        self.m = m
        self.k = k  # original cap, never changes
        self.fallback = k <= FALLBACK_MAX_K
        self.terminal = False
        self.arrivals = 0
        self.active_k = k
        self.l: int | None = None  # None until the structure is built
        self.e_pmax: int | None = None
        self._pure: dict[int, _Row] = {}
        self._mixed: dict[int, _Row] = {}
        # by (fewest empty slots, rid): only the head takes jobs, which keeps it first
        self._small: list[_Row] = []
        # the free rows are rids _next_free .. k - 1, made when taken, lowest first
        self._next_free = k
        self._removed: list[_Row] = []
        # the (count, machine) order all rows share: the untouched machines are
        # _next_fresh .. m - 1, and buckets[c] holds the touched machines with c
        # lifetime jobs in index order (bucket 0 stays empty); the touched
        # buckets below _low are empty, and a bucket is added when the first
        # machine reaches it
        self._next_fresh = 0
        self._buckets: list[list[int]] = []
        self._low = 1
        # terminal mode: the frozen live rows by rid, and per machine the first
        # of them that may still be empty there
        self._frozen: list[_Row] = []
        self._next: list[int] = []
        if self.fallback:  # round-robin's own decision, a C call; no structure is built
            self.on_arrival = RoundRobinScheduler(m, k).on_arrival

    # -- structure bookkeeping ------------------------------------------------

    def _init_structure(self):
        # ceil(k/2) rows by rid, the pairs and then the small rows; the floor(k/2)
        # free rows after them are made when taken
        self.l = _floor_2log2(self.k)
        self._buckets = [[], []]
        pairs = 2 * (self.l + 1)
        small_target = -(self.k // -2) - pairs
        assert small_target >= 1, "structure requires ceil(k/2) > 2*(l+1)"
        rows = [_Row(rid) for rid in range(pairs + small_target)]
        for i in range(self.l + 1):
            self._label(rows[2 * i], "pure", i)
            self._label(rows[2 * i + 1], "mixed", i)
        # every new row is empty, so ascending rid is already _small_order
        self._small = rows[pairs : pairs + small_target]
        for row in self._small:
            row.kind = "small"
        self._next_free = len(rows)

    def _label(self, row: _Row, kind: str, i: int):
        row.kind, row.group = kind, i
        (self._pure if kind == "pure" else self._mixed)[i] = row

    def _make_small(self, row: _Row):
        row.kind, row.group = "small", None
        insort(self._small, row, key=_small_order)

    def _take_free(self) -> _Row:
        assert self._next_free < self.k, "free rows exhausted before terminal mode"
        self._next_free += 1
        return _Row(self._next_free - 1)

    def _live_rows(self) -> list[_Row]:
        if self._frozen:  # terminal: the free rows were made at the freeze
            return self._frozen
        free = map(_Row, range(self._next_free, self.k))
        return [*self._pure.values(), *self._mixed.values(), *self._small, *free]

    def _remove_row(self, row: _Row):
        row.kind = "removed"
        self._removed.append(row)
        self.active_k -= 1

    def _check_terminal(self) -> bool:
        if not self.terminal and self.active_k <= FALLBACK_MAX_K:
            self.terminal = True
            self._frozen = sorted(self._live_rows(), key=lambda r: r.rid)
            self._next = [0] * self.m
        return self.terminal

    # -- repairs ---------------------------------------------------------------

    def _repair_after_pair_removal(self, i: int):
        new_l = _floor_2log2(self.active_k)
        if new_l == self.l:
            # Case 1: promote one small row to the new mixed row, one free to pure
            assert self._small, "no small row available for case-1 repair"
            srow = min(self._small, key=lambda r: r.rid)
            self._small.remove(srow)
            self._label(srow, "mixed", i)
            self._label(self._take_free(), "pure", i)
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
            new_mixed = max((old_mixed, old_pure), key=lambda r: len(r.slots))
            leftover = old_pure if new_mixed is old_mixed else old_mixed
            assert len(leftover.slots) < self.m, "both rows of a live pair are full"
            self._label(new_mixed, "mixed", i)
            self._make_small(leftover)
            self._label(self._take_free(), "pure", i)
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
            full = [r for r in merged if len(r.slots) == self.m]
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

    def _retire(self, row: _Row):
        # `row` just filled up: a small row retires at once, a group row with its
        # pair once both are full; the structure freezes or is repaired
        if row.kind == "small":
            del self._small[0]  # only the head takes jobs
            self._remove_row(row)
            if not self._check_terminal():
                self._repair_after_single_removal()
            return
        i = row.group
        pure, mixed = self._pure[i], self._mixed[i]
        if len(pure.slots) == len(mixed.slots) == self.m:
            del self._pure[i]
            del self._mixed[i]
            self._remove_row(pure)
            self._remove_row(mixed)
            if not self._check_terminal():
                self._repair_after_pair_removal(i)

    # -- contract ------------------------------------------------------------

    def on_arrival(self, size: float) -> int:
        jid = self.arrivals = self.arrivals + 1
        if self.l is None:
            self._init_structure()
        if size:  # a zero is a small job and sets no p_max
            # size rounds down to 2**e, exactly; the runner admits only finite sizes
            e = frexp(size)[1] - 1
            if self.e_pmax is None or e > self.e_pmax:
                self.e_pmax = e
        m, buckets = self.m, self._buckets
        if self.terminal:
            # frozen structure: every removed row holds one job per machine, so a
            # machine has an empty live slot exactly when its count is below k; the
            # first machine in (count, index) order takes the job in its lowest-rid
            # live row still empty there, and frozen rows only fill
            c = self._low
            assert c < self.k, "no live empty slot despite remaining capacity"
            mi = buckets[c][0]
            rows, r = self._frozen, self._next[mi]
            while mi in rows[r].slots:
                r += 1
            self._next[mi] = r + 1
            row = rows[r]
        else:
            if size and (i := self.e_pmax - e) <= self.l:
                pure, mixed = self._pure[i], self._mixed[i]
                # the pair's row with the fewest empty slots, tie to mixed; the
                # pair is never full, and a full row takes no job
                pf, mf = len(pure.slots), len(mixed.slots)
                row = pure if mf == m or mf < pf < m else mixed
            else:
                row = self._small[0]  # fewest empty slots, tie to lowest rid
            # the slot goes to the first machine in (count, index) order empty in
            # the row; an untouched machine is empty in every row and comes first
            mi = self._next_fresh
            if mi < m:
                self._next_fresh = mi + 1
                buckets[1].append(mi)
                c = 0
            else:
                slots = row.slots
                for c in range(self._low, len(buckets)):
                    for mi in buckets[c]:
                        if mi not in slots:
                            break
                    else:
                        continue  # every machine of count c is filled in this row
                    break
                else:
                    raise AssertionError("placement into a full row")
        if c:  # a touched machine leaves bucket c for c + 1
            bucket = buckets[c]
            del bucket[bisect_left(bucket, mi)]
            if c + 1 == len(buckets):
                buckets.append([mi])
            else:
                insort(buckets[c + 1], mi)
            if not buckets[self._low]:
                self._low += 1
        row.slots[mi] = jid
        if len(row.slots) == m and not self.terminal:
            self._retire(row)
        return mi + 1

    # -- introspection -------------------------------------------------------

    def structure_snapshot(self) -> dict:
        """The dict `run --dump-structure` prints: the live rows by rid and the removed
        rows in removal order, each {rid, kind, group, slots} with a job id or None per machine."""
        empty = (None,) * self.m

        def snap(row: _Row) -> dict:
            slots = empty
            if row.slots:
                slots = list(empty)
                for mi, jid in row.slots.items():
                    slots[mi] = jid
                slots = tuple(slots)
            return {"rid": row.rid, "kind": row.kind, "group": row.group, "slots": slots}

        return {
            "active_k": self.active_k,
            "p_max": None if self.e_pmax is None else math.ldexp(1.0, self.e_pmax),
            "l": self.l,
            "rows": [snap(r) for r in sorted(self._live_rows(), key=lambda r: r.rid)],
            "removed_rows": [snap(r) for r in self._removed],
            "fallback": self.fallback,
            "terminal": self.terminal,
        }
