"""Exact and heuristic offline solvers.

These provide the denominators for every competitive-ratio measurement in the
repo: a branch-and-bound exact solver, a cheap lower bound and the sorted
round-robin makespan.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from operator import add

from .model import Instance, makespan

EXACT_RECOMMENDED_MAX_JOBS = 20


@dataclass(frozen=True)
class OracleResult:
    opt_makespan: float
    schedule: dict[int, int]  # job id -> machine, keyed in the search's job order
    nodes_explored: int


def exact_guard(n: int) -> None:
    """The one job-count limit on exact solves: the search is exponential in n."""
    if n > EXACT_RECOMMENDED_MAX_JOBS:
        limit = EXACT_RECOMMENDED_MAX_JOBS
        raise ValueError(f"exact mode guard: {n} jobs > {limit}; use a lower bound instead")


def lower_bound(sizes, m: int) -> float:
    """max(average load, largest job) <= opt; the total is a left fold in the given order.

    The fold starts at 0.0, so on a tie the average wins and a -0.0 size never
    makes the bound -0.0.
    """
    total = 0.0
    for s in sizes:
        total += s
    return max(total / m, max(sizes)) if len(sizes) else 0.0


def sorted_round_robin_makespan(sizes, m: int) -> float:
    """Makespan of dealing the sizes, sorted non-increasingly, round-robin over m machines."""
    ordered = sorted(sizes, reverse=True)
    # machine r + 1's sizes, added in sorted order from 0.0: a left fold, which
    # the builtin `sum` is not from Python 3.12 on (it compensates)
    folds = (reduce(add, ordered[r::m], 0.0) for r in range(min(m, len(ordered))))
    return max(folds, default=0.0)


def exact_opt(instance: Instance) -> OracleResult:
    """True optimal makespan, its schedule and the search's node count.

    The search exits on `lower_bound` of the sizes in arrival order; the
    `oracle` report's `nodes_explored` counts that search.
    """
    return branch_and_bound(instance, lower_bound(instance.sizes, instance.m))


def exit_target(instance: Instance) -> float:
    """A value opt cannot fall below: ceil(lower_bound) on the integer grid, else lower_bound.

    When every size is an integer and their total is below 2**53, every sum
    the search forms is exact, so opt is an integer at or above the bound.
    The total is summed in integers; it is below 2**53 exactly when the float
    fold is.  Off the grid the target is `exact_opt`'s own.
    """
    sizes = instance.sizes
    lb = lower_bound(sizes, instance.m)
    if all(int(s) == s for s in sizes) and sum(map(int, sizes)) < 2**53:
        return float(math.ceil(lb))
    return lb


def opt_makespan(instance: Instance) -> float:
    """The optimal makespan alone, from the search that exits on `exit_target`.

    It equals `exact_opt(instance).opt_makespan` bit for bit, from fewer
    nodes on integer sizes; metering, which reads no node count, calls it.
    """
    return branch_and_bound(instance, exit_target(instance)).opt_makespan


def branch_and_bound(instance: Instance, target: float) -> OracleResult:
    """Optimal makespan via branch-and-bound over jobs sorted non-increasingly.

    `target` is a value opt cannot fall below, so a schedule on it is
    optimal: the early exit stops at the first one, at the root or at any
    leaf.  A lower target changes only the node count: the search order is
    the same, and only a strictly better leaf replaces the incumbent.

    Pruning: never branch twice into machines with an identical (load, count)
    state; equal-size jobs take machines in non-decreasing index order; and a
    slot-forcing bound charges every machine the smallest remaining jobs it is
    still forced to take.  That bound is carried down the tree, not rescanned:
    a machine holding c jobs is charged `forced[c]`, fixed per solve, so a
    placement changes only its own machine's bound and each node tests the
    running max `cur_lb` in O(1).  In exact arithmetic a machine's bound only
    grows; where rounding lowers the bound of the machine that held the max,
    the max is recomputed over all machines, so the search prunes exactly as
    a scan at every node would.  Incumbent: the better of sorted round-robin
    and capped LPT.  `Instance` admits at most m*k jobs, so capped LPT always
    finds a machine below k.

    The schedule is keyed in search order (non-increasing size, ties by id),
    so `makespan` re-adds each machine's sizes as the search added them.

    Nodes: `nodes_explored` counts the root and each child that passes the
    machine filters (a free slot, a load below the incumbent, a new state).
    The parent counts such a child and runs its entry tests (running max,
    leaf, `cur_lb`) in place, so only a child that passes them costs a call.
    """
    sizes, m, k = instance.sizes, instance.m, instance.k
    # a stable reverse sort: non-increasing sizes, ties by ascending id
    order = sorted(range(instance.n), key=sizes.__getitem__, reverse=True)
    best, best_assign, nodes = _search([sizes[j] for j in order], m, k, target)
    schedule = {j + 1: mi + 1 for j, mi in zip(order, best_assign)}
    assert makespan(schedule, instance) == best
    return OracleResult(best, schedule, nodes)


def _search(sizes: list[float], m: int, k: int, target: float) -> tuple[float, list[int], int]:
    """`branch_and_bound` on sorted sizes: (opt, the 0-based machine of each size, nodes)."""
    from .engine import ListSchedulingCapped  # engine imports this module

    n = len(sizes)
    best_assign = [i % m for i in range(n)]
    best = sorted_round_robin_makespan(sizes, m)
    if best == target:  # also every empty instance: both are 0.0
        return best, best_assign, 0

    greedy = ListSchedulingCapped(m, k)
    lpt = [greedy.on_arrival(s) - 1 for s in sizes]
    lpt_loads = [0.0] * m
    for s, mi in zip(sizes, lpt):
        lpt_loads[mi] += s
    lpt_make = max(lpt_loads)
    if lpt_make < best:
        best, best_assign = lpt_make, lpt
    if best == target:
        return best, best_assign, 0

    # suffix_sum[j] = total size of jobs j..n-1; the t smallest remaining jobs
    # always sit at the tail of the sorted order
    suffix_sum = [0.0] * (n + 1)
    for j in range(n - 1, -1, -1):
        suffix_sum[j] = suffix_sum[j + 1] + sizes[j]

    # every placed job fills one slot, so the spare slots never change; a
    # machine holding c jobs must still take max(k - c - slack, 0) more jobs,
    # which weigh at least as much as that many jobs at the sorted tail; a
    # machine never holds more than n jobs, so counts past n need no entry
    slack = m * k - n
    if slack < m:
        forced = [suffix_sum[n - max(k - c - slack, 0)] for c in range(min(k, n) + 1)]
    else:  # no machine is forced to take more jobs
        forced = [0.0] * (min(k, n) + 1)

    machine_load = [0.0] * m
    machine_count = [0] * m
    current = [0] * n
    # an equal-size job takes machines from its predecessor's index on; the
    # tie test and the machine ranges are built once per solve, since a
    # range() call at every node is a measurable share of the search
    tie = [i > 0 and sizes[i - 1] == sizes[i] for i in range(n)]
    spans = [range(start, m) for start in range(m)]
    nodes = 1  # the root

    def recurse(idx: int, cur_max: float, cur_lb: float) -> bool:
        """Count and test each child of a node that passed its entry tests.

        True once a leaf reaches the target, which no later leaf can beat.
        """
        nonlocal best, best_assign, nodes
        size = sizes[idx]
        leaf = idx + 1 == n
        first_count = -1  # the first child's state; a set only from the second on
        seen = None
        for mi in spans[current[idx - 1] if tie[idx] else 0]:
            old_load = machine_load[mi]
            new_load = old_load + size
            if new_load >= best:  # best only falls, so this state stays pruned
                continue
            count = machine_count[mi]
            if count == k:
                continue
            if first_count < 0:
                first_count, first_load = count, old_load
            elif seen is None:
                if count == first_count and old_load == first_load:
                    continue
                seen = {(first_load, first_count), (old_load, count)}
            else:
                state = (old_load, count)
                if state in seen:
                    continue
                seen.add(state)
            nodes += 1
            if cur_max >= best:  # the child's max is cur_max, as new_load < best
                continue
            current[idx] = mi
            if leaf:
                best = cur_max if cur_max >= new_load else new_load
                best_assign = current[:]
                if best == target:
                    return True
                continue
            machine_load[mi] = new_load
            machine_count[mi] = count + 1
            child_lb = new_load + forced[count + 1]
            if child_lb < cur_lb:
                if old_load + forced[count] < cur_lb:
                    child_lb = cur_lb  # another machine holds the max
                else:  # rounding lowered the machine that held the max
                    child_lb = max([ld + forced[c] for ld, c in zip(machine_load, machine_count)])
            # the child's last entry test: no machine's load plus forced jobs reaches best
            if child_lb < best and recurse(
                idx + 1, cur_max if cur_max >= new_load else new_load, child_lb
            ):
                return True
            machine_load[mi] = old_load
            machine_count[mi] = count
        return False

    if 0.0 < best and forced[0] < best:  # the root's entry tests; n > 0, so it is no leaf
        recurse(0, 0.0, forced[0])
    return best, best_assign, nodes
