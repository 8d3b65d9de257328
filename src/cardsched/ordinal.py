"""Ordinal scheduling: a size-oblivious position -> machine map.

The map spreads the m largest jobs over all machines, then fills the machines
from the back in phases of overlapping wide/narrow rounds delimited by border
machines, ending with machine 1.  It depends only on (m, k), never on sizes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .model import Instance


@dataclass(frozen=True)
class OrdinalMap:
    """sigma[pos-1] is the machine of the pos-th largest job; len(sigma) == m*k."""

    sigma: tuple[int, ...]
    xi: int
    borders: tuple[int, ...]
    # phase_counts[s-1][mach-1] = jobs machine `mach` received in phase s;
    # None for the m=1 / k=1 / k=2 special-cased maps.
    phase_counts: tuple[tuple[int, ...], ...] | None


def _borders(m: int, xi: int) -> tuple[int, ...]:
    return tuple(m // 2 ** (xi - i) + 1 for i in range(1, xi + 1))


@lru_cache(maxsize=None)
def ordinal_map(m: int, k: int) -> OrdinalMap:
    if m < 1 or k < 1:
        raise ValueError("m and k must be >= 1")
    xi = (m.bit_length() - 1) + 2 if m >= 2 else 2  # floor(log2 m) + 2
    mu = _borders(m, xi) if m >= 2 else (1, 2)

    if m == 1:
        return OrdinalMap((1,) * k, xi, mu, None)
    if k == 1:
        return OrdinalMap(tuple(range(1, m + 1)), xi, mu, None)
    if k == 2:
        zigzag = tuple(range(1, m + 1)) + tuple(range(m, 0, -1))
        return OrdinalMap(zigzag, xi, mu, None)

    sigma: list[int] = []
    counts = [0] * (m + 1)  # 1-based
    phase_counts = [[0] * m for _ in range(xi)]

    def do_round(a: int, b: int, phase: int):
        # one job to each machine of [a, b); overflow would break ordinality
        for mach in range(a, b):
            if counts[mach] >= k:
                raise AssertionError(f"round [{a},{b}) overflows machine {mach} past k={k}")
            sigma.append(mach)
            counts[mach] += 1
            phase_counts[phase - 1][mach - 1] += 1

    def interval_full(a: int, b: int) -> bool:
        return all(counts[mach] == k for mach in range(a, b))

    # phase 1: one round over every machine
    do_round(1, m + 1, 1)

    # phase 2: (wide, narrow, narrow) repeated until [mu(xi-1), mu(xi)) is full
    wide_a, nar_a, b = mu[xi - 3], mu[xi - 2], mu[xi - 1]
    while not interval_full(nar_a, b):
        do_round(wide_a, b, 2)
        if interval_full(nar_a, b):
            break
        do_round(nar_a, b, 2)
        if interval_full(nar_a, b):
            break
        do_round(nar_a, b, 2)

    # phases 3..xi-1: alternate wide then narrow until the narrow interval fills
    for s in range(3, xi):
        wide_a, nar_a, b = mu[xi - s - 1], mu[xi - s], mu[xi - s + 1]
        while not interval_full(nar_a, b):
            do_round(wide_a, b, s)
            if interval_full(nar_a, b):
                break
            do_round(nar_a, b, s)

    # last phase: machine 1 alone
    while counts[1] < k:
        do_round(1, 2, xi)

    assert all(c == k for c in counts[1:]) and len(sigma) == m * k
    return OrdinalMap(tuple(sigma), xi, mu, tuple(tuple(p) for p in phase_counts))


def ordinal_schedule(instance: Instance) -> dict[int, int]:
    """Apply the (m, k) ordinal map to the jobs sorted non-increasingly, ties by id.

    Short instances are padded with zero-size virtual jobs; those are dropped
    from the returned schedule (job id -> machine, keyed in sorted order).
    """
    sigma = ordinal_map(instance.m, instance.k).sigma
    order = sorted(range(instance.n), key=instance.sizes.__getitem__, reverse=True)  # stable
    return {j + 1: machine for j, machine in zip(order, sigma)}

