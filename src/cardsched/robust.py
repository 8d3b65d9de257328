"""Bounded-migration wrapper around the ordinal map.

Each arriving size is rounded up to a power of (1+eps) and appended as the
tail of its size class in a non-increasing list of at most m*k jobs; zeros
form a class below all others.  The machine of the job at list position p
is sigma[p-1] of the fixed ordinal map.  The append shifts every smaller
class one position back; rotating each smaller class's head to its tail
cancels that shift for every other member, so per arrival only the head of
each smaller class can change machine.  The decision pairs the arriving
job's machine with those head moves as (job, src, dst) triples; the stream
runner checks them and prices them (the migration factor), so the scheduler
keeps no sizes.
"""

from __future__ import annotations

import math
from bisect import insort
from collections import deque
from operator import neg

from .engine import Scheduler
from .model import GeometricClasses
from .ordinal import ordinal_map


class RobustOrdinalScheduler(Scheduler):
    """Ordinal assignment with one-move-per-size-class resorting on arrival.

    An arrival costs one pass over the size classes, never over the jobs.
    """

    def __init__(self, m: int, k: int, eps: float):
        self.m, self.k = m, k
        # one set of size classes for the whole run (it checks eps now), so an
        # arrival in a class met before lifts no power of (1+eps)
        self._exponent = GeometricClasses(eps).exponent
        self._sigma = ordinal_map(m, k)
        # exponent (-inf for zeros) -> job ids, head first
        self._classes: dict[float, deque[int]] = {}
        self._order: list[float] = []  # the exponents of _classes, descending
        self._arrivals = 0

    def on_arrival(self, size: float) -> tuple[int, tuple[tuple[int, int, int], ...]]:
        # a zero joins the bottom class, below every exponent, and moves nothing
        exponent = self._exponent(size) if size else -math.inf
        self._arrivals += 1
        jid = self._arrivals
        classes = self._classes
        if exponent not in classes:
            classes[exponent] = deque()
            insort(self._order, exponent, key=neg)
        sigma = self._sigma
        moves = []
        end = 0  # list positions taken by the classes visited so far, new job included
        for e in self._order:
            queue = classes[e]
            if e == exponent:
                queue.append(jid)
                machine = sigma[end + len(queue) - 1]
            elif e < exponent:
                # the head sat at position `end` (1-based) and becomes the tail
                head = queue.popleft()
                queue.append(head)
                src, dst = sigma[end - 1], sigma[end + len(queue) - 1]
                if src != dst:
                    moves.append((head, src, dst))
            end += len(queue)
        return machine, tuple(moves)
