"""Ordinal scheduling: a size-oblivious position -> machine map.

The map spreads the m largest jobs over all machines, then fills the machines
from the back in phases of overlapping wide/narrow rounds delimited by border
machines, ending with machine 1.  It depends only on (m, k), never on sizes.
"""

from __future__ import annotations

from itertools import chain, cycle, islice, repeat

from .model import Instance


def borders(m: int) -> tuple[int, ...]:
    """The border machines mu_1 = 1 < mu_2 = 2 < ... < mu_xi = m + 1, xi = floor(log2 m) + 2."""
    return tuple(m // 2**j + 1 for j in range(m.bit_length(), -1, -1))


def ordinal_map(m: int, k: int) -> tuple[int, ...]:
    """sigma[pos-1] is the machine of the pos-th largest job; len(sigma) == m*k.

    A round deals one position to each machine of an interval [a, b) in
    order.  Every machine of a phase's narrow interval holds the same count
    when the phase starts: one from phase 1 plus one per wide round of the
    phase before, whose wide interval covers it whole.  So each phase is a
    closed-form number of rounds, each a slice of one shared list.
    """
    if m < 1 or k < 1:
        raise ValueError("m and k must be >= 1")
    if k <= 2:  # phase 1 alone, or for k = 2 followed by the zigzag back
        first = tuple(range(1, m + 1))
        return first + first[::-1] if k == 2 else first
    machines = list(range(m + 1))
    mu = borders(m)
    rounds = [machines[1:]]  # phase 1: one round over every machine
    held = 1  # positions each machine of the next phase's narrow interval holds
    for s in range(2, len(mu)):
        # phase 2 repeats (wide, narrow, narrow), later phases (wide, narrow),
        # until the narrow interval [mu(xi-s+1), mu(xi-s+2)) holds k each
        wide, narrow = machines[mu[-s - 1] : mu[-s + 1]], machines[mu[-s] : mu[-s + 1]]
        pattern = (wide, narrow, narrow) if s == 2 else (wide, narrow)
        count = k - held
        rounds += islice(cycle(pattern), count)
        held = 1 - (-count // len(pattern))  # 1 + its wide rounds
    rounds += repeat(machines[1:2], k - held)  # last phase: machine 1 alone
    return tuple(chain.from_iterable(rounds))


def ordinal_schedule(instance: Instance) -> dict[int, int]:
    """Apply the (m, k) ordinal map to the jobs sorted non-increasingly, ties by id.

    Short instances are padded with zero-size virtual jobs; those are dropped
    from the returned schedule (job id -> machine, keyed in sorted order).
    """
    sigma = ordinal_map(instance.m, instance.k)
    order = sorted(range(instance.n), key=instance.sizes.__getitem__, reverse=True)  # stable
    return {j + 1: machine for j, machine in zip(order, sigma)}
