"""Bounded-migration wrapper around the ordinal map.

Each arriving size is rounded up to a power of (1+eps) and appended as the
tail of its size class in a non-increasing job list padded with zero-size
dummies to m*k entries.  Resorting moves only the head of every smaller class
to its own tail, so per arrival at most one job of each smaller class is
repositioned; machines are read off the fixed ordinal map by list position.
"""

from __future__ import annotations

from dataclasses import dataclass

from .engine import Scheduler, SchedulerDecision
from .model import InfeasibleError, MigrationRecord, Move, round_up_geometric
from .ordinal import ordinal_map


@dataclass(frozen=True)
class SizeClassList:
    """Read-only view of the maintained order: exponent -> job ids, plus dummies."""

    classes: dict[int, tuple[int, ...]]
    zero_dummies: int
    total_positions: int

    def positions(self) -> dict[int, int]:
        """Job id -> 1-based list position (descending class exponent, queue order)."""
        pos = {}
        p = 1
        for e in sorted(self.classes, reverse=True):
            for jid in self.classes[e]:
                pos[jid] = p
                p += 1
        return pos


class RobustOrdinalScheduler(Scheduler):
    """Ordinal assignment with one-move-per-size-class resorting on arrival."""

    def __init__(self, m: int, k: int, eps: float):
        if eps <= 0:
            raise ValueError(f"eps must be positive, got {eps}")
        self.m, self.k = m, k
        self.eps = eps
        self._map = ordinal_map(m, k)
        self._classes: dict[int, list[int]] = {}
        self._sizes: dict[int, float] = {}
        self._dummies = m * k

    def class_list(self) -> SizeClassList:
        return SizeClassList(
            classes={e: tuple(q) for e, q in self._classes.items() if q},
            zero_dummies=self._dummies,
            total_positions=self.m * self.k,
        )

    def _machines(self) -> dict[int, int]:
        sigma = self._map.sigma
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

    def on_arrival(self, size: float) -> SchedulerDecision:
        _, exponent = round_up_geometric(size, self.eps)
        jid = len(self._sizes) + 1
        before = self._machines()
        moved = self.resort_on_arrival(jid, exponent)
        after = self._machines()
        self._sizes[jid] = size
        moves = tuple(
            Move(j, before[j], after[j]) for j in moved if before[j] != after[j]
        )
        record = MigrationRecord(
            trigger=jid,
            moves=moves,
            moved_size=sum(self._sizes[mv.job] for mv in moves),
        )
        return SchedulerDecision(machine=after[jid], migrations=record)
