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
buckets of machines per count.  Per arrival, fallback is O(1); live mode
walks that order up to the first machine empty in the row (the machines
skipped are the cost; no log m bound in theory), moves it to the next count
by bisection, and retires rows in O(k); terminal mode takes the first
machine of the order, and a per-machine pointer over the frozen rows passes
each row at most once.

When the maximum grows, row labels stay fixed: the groups are re-read
relative to the new maximum, which treats the old jobs as if enlarged; loads
only ever count real sizes.
"""

from __future__ import annotations

import math
from bisect import insort

from .engine import RoundRobinScheduler, Scheduler
from .model import Trace, round_down_pow2

FALLBACK_MAX_K = 49


def _floor_2log2(k: int) -> int:
    """floor(2*log2(k)) = floor(log2(k*k)), exactly."""
    return (k * k).bit_length() - 1


def _small_order(row: _Row) -> tuple[int, int]:
    return -row.filled, row.rid


class _Row:
    __slots__ = ("rid", "kind", "group", "slots", "filled")

    def __init__(self, rid: int):
        self.rid = rid
        self.kind = "free"
        self.group: int | None = None
        self.slots: list[int | None] | None = None  # allocated on the first placement
        self.filled = 0


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
        # the (count, machine) order all rows share: buckets[c] holds the
        # machines with c lifetime jobs in index order, the buckets below _low
        # are empty, and a bucket is added when the first machine reaches it
        self._buckets: list[list[int]] = []
        self._low = 0
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
        self._buckets = [list(range(self.m))]
        pairs = 2 * (self.l + 1)
        small_target = -(self.k // -2) - pairs
        assert small_target >= 1, "structure requires ceil(k/2) > 2*(l+1)"
        rows = [_Row(rid) for rid in range(pairs + small_target)]
        for i in range(self.l + 1):
            self._label(rows[2 * i], "pure", i)
            self._label(rows[2 * i + 1], "mixed", i)
        # every new row has filled == 0, so ascending rid is already _small_order
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

    def _fill(self, row: _Row, c: int, pos: int, jid: int) -> int:
        # machine buckets[c][pos] takes the job in row; it moves to bucket c + 1
        buckets = self._buckets
        mi = buckets[c].pop(pos)
        if c + 1 == len(buckets):
            buckets.append([])
        insort(buckets[c + 1], mi)
        if not buckets[self._low]:
            self._low += 1
        if row.slots is None:
            row.slots = [None] * self.m
        row.slots[mi] = jid
        row.filled += 1
        return mi + 1

    def _place_in_row(self, row: _Row, jid: int) -> int:
        # empty slot on the machine with the fewest lifetime jobs, tie to lowest
        # index: the first machine in (count, index) order empty in this row
        buckets, slots = self._buckets, row.slots
        for c in range(self._low, len(buckets)):
            for pos, mi in enumerate(buckets[c]):
                if slots is None or slots[mi] is None:
                    return self._fill(row, c, pos, jid)
        raise AssertionError("placement into a full row")

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
            new_mixed = max((old_mixed, old_pure), key=lambda r: r.filled)
            leftover = old_pure if new_mixed is old_mixed else old_mixed
            assert leftover.filled < self.m, "both rows of a live pair are full"
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

    def _place_terminal(self, jid: int) -> int:
        # frozen structure: every removed row holds one job per machine, so a
        # machine has an empty live slot exactly when its count is below k; the
        # first machine in (count, index) order takes the job in its lowest-rid
        # live row still empty there, and frozen rows only fill
        assert self._low < self.k, "no live empty slot despite remaining capacity"
        mi = self._buckets[self._low][0]
        rows, i = self._frozen, self._next[mi]
        while rows[i].slots is not None and rows[i].slots[mi] is not None:
            i += 1
        self._next[mi] = i + 1
        return self._fill(rows[i], self._low, 0, jid)

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
        assert self._small, "no small row available"
        row = self._small[0]
        machine = self._place_in_row(row, jid)
        if row.filled == self.m:
            del self._small[0]
            self._remove_row(row)
            if not self._check_terminal():
                self._repair_after_single_removal()
        return machine

    # -- contract ------------------------------------------------------------

    def on_arrival(self, size: float) -> int:
        self.arrivals += 1
        if self.l is None:
            self._init_structure()
        if size:  # a zero is a small job and sets no p_max
            e = round_down_pow2(size)[1]
            if self.e_pmax is None or e > self.e_pmax:
                self.e_pmax = e
        jid = self.arrivals
        if self.terminal:
            return self._place_terminal(jid)
        if size and self.e_pmax - e <= self.l:
            return self._place_group(jid, self.e_pmax - e)
        return self._place_small(jid)

    # -- introspection -------------------------------------------------------

    def structure_snapshot(self) -> dict:
        """The dict `run --dump-structure` prints: the live rows by rid and the removed
        rows in removal order, each {rid, kind, group, slots} with a job id or None per machine."""
        empty = (None,) * self.m

        def snap(row: _Row) -> dict:
            slots = empty if row.slots is None else tuple(row.slots)
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
