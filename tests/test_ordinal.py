import random

import pytest
from hypothesis import given, settings, strategies as st

from cardsched.model import InfeasibleError, check_feasible, instance_from_sizes, makespan
from cardsched.oracle import exact_opt
from cardsched.ordinal import ordinal_map, ordinal_schedule
from reference_scans import iota


def test_borders_power_of_two():
    omap = ordinal_map(8, 3)
    assert omap.xi == 5
    assert omap.borders == (1, 2, 3, 5, 9)


def test_borders_m6():
    omap = ordinal_map(6, 3)
    assert omap.xi == 4
    assert omap.borders == (1, 2, 4, 7)


@pytest.mark.parametrize("m,expected", [(4, 3), (5, 3), (6, 4), (7, 4)])
def test_third_border_m4_to_7(m, expected):
    assert ordinal_map(m, 3).borders[2] == expected


def test_k2_zigzag():
    assert ordinal_map(2, 2).sigma == (1, 2, 2, 1)
    assert ordinal_map(4, 2).sigma == (1, 2, 3, 4, 4, 3, 2, 1)


def test_special_cases():
    assert ordinal_map(1, 5).sigma == (1,) * 5
    assert ordinal_map(4, 1).sigma == (1, 2, 3, 4)


def test_first_round_spreads_largest_jobs():
    for m in range(2, 12):
        for k in (3, 4, 7):
            sigma = ordinal_map(m, k).sigma
            assert sigma[:m] == tuple(range(1, m + 1))


def test_each_machine_gets_exactly_k_positions():
    for m in range(1, 12):
        for k in range(1, 9):
            sigma = ordinal_map(m, k).sigma
            assert len(sigma) == m * k
            for machine in range(1, m + 1):
                assert sigma.count(machine) == k


def test_wide_range_of_shapes_never_overflows():
    # do_round raises if any round would push a machine past k
    for m in list(range(2, 41)) + [63, 64, 65, 100]:
        for k in (3, 4, 5, 7, 11, 30):
            sigma = ordinal_map(m, k).sigma
            assert len(sigma) == m * k


def test_ordinal_schedule_example():
    inst = instance_from_sizes([4, 3, 2, 1], 2, 2)
    schedule = ordinal_schedule(inst)
    assert schedule == {1: 1, 2: 2, 3: 2, 4: 1}
    assert makespan(schedule, inst) == 5


def test_ordinal_schedule_single_machine():
    inst = instance_from_sizes([5, 1, 2], 1, 3)
    assert set(ordinal_schedule(inst).values()) == {1}


def test_ordinal_schedule_pads_with_virtual_zeros():
    inst = instance_from_sizes([1], 2, 2)
    schedule = ordinal_schedule(inst)
    assert schedule == {1: 1}


def test_ordinal_schedule_infeasible():
    with pytest.raises(InfeasibleError):
        ordinal_schedule(instance_from_sizes([1] * 5, 2, 2))


@pytest.mark.parametrize(
    "k,s,expected",
    [(10, 2, 3), (10, 3, 3), (11, 3, 3), (11, 4, 4), (4, 2, 1), (7, 2, 2), (7, 3, 2)],
)
def test_iota_closed_form(k, s, expected):
    assert iota(s, k) == expected


def test_iota_domain():
    with pytest.raises(ValueError):
        iota(1, 10)
    with pytest.raises(ValueError):
        iota(2, 2)


def test_iota_matches_simulation_small():
    for m in (8, 16):
        for k in range(3, 40):
            omap = ordinal_map(m, k)
            for s in range(2, omap.xi):
                first_border = omap.borders[omap.xi - s - 1]
                assert omap.phase_counts[s - 1][first_border - 1] == iota(s, k), (m, k, s)


def test_phase_count_parity_small():
    for m in (8, 16):
        for k in range(3, 40):
            omap = ordinal_map(m, k)
            for s in range(2, omap.xi):
                even = ((k - 1) - iota(s, k)) % 2 == 0
                expected = (k - 1) % 3 == 0 or ((k - 1) % 3 == 1 and s % 2 == 0)
                assert even == expected, (m, k, s)


@given(st.integers(min_value=0, max_value=2**20 - 1), st.integers(min_value=0, max_value=11))
def test_floor_halving_identity(x, y):
    assert x // 2**y == 2 * (x // 2 ** (y + 1)) + (x % 2 ** (y + 1)) // 2**y


@given(
    st.lists(st.integers(min_value=0, max_value=50), min_size=1, max_size=12),
    st.randoms(use_true_random=False),
)
@settings(max_examples=60, deadline=None)
def test_ordinality_permuting_equal_sizes(sizes, rng):
    m, k = 3, 4
    if len(sizes) > m * k:
        return
    inst = instance_from_sizes(sizes, m, k)
    shuffled = sizes[:]
    rng.shuffle(shuffled)
    other = instance_from_sizes(shuffled, m, k)

    def machine_multisets(instance):
        schedule = ordinal_schedule(instance)
        per_machine = [[] for _ in range(instance.m)]
        for jid, machine in schedule.items():
            per_machine[machine - 1].append(instance.sizes[jid - 1])
        return sorted(tuple(sorted(x)) for x in per_machine)

    assert machine_multisets(inst) == machine_multisets(other)


def test_ordinality_scaling_invariance():
    sizes = [9, 7, 5, 3, 2, 1]
    a = ordinal_schedule(instance_from_sizes(sizes, 2, 3))
    b = ordinal_schedule(instance_from_sizes([4 * s for s in sizes], 2, 3))
    assert a == b


def test_rate_spot_checks():
    rng = random.Random(1)
    for _ in range(150):
        m = rng.randint(2, 4)
        k = rng.randint(3, 5)
        if m * k > 16:
            continue
        n = rng.randint(1, m * k)
        sizes = [rng.randint(0, 32) for _ in range(n)]
        inst = instance_from_sizes(sizes, m, k)
        schedule = ordinal_schedule(inst)
        assert check_feasible(schedule, inst) == []
        opt = exact_opt(inst).opt_makespan
        assert makespan(schedule, inst) <= (81 / 41) * opt + 1e-9, (m, k, sizes)


@given(
    st.lists(st.integers(min_value=0, max_value=60), min_size=1, max_size=10),
    st.integers(min_value=2, max_value=5),
)
@settings(max_examples=80, deadline=None)
def test_k2_is_exactly_optimal(sizes, m):
    if len(sizes) > 2 * m:
        return
    inst = instance_from_sizes(sizes, m, 2)
    schedule = ordinal_schedule(inst)
    assert makespan(schedule, inst) == exact_opt(inst).opt_makespan


def test_sort_ties_break_by_arrival_id():
    inst = instance_from_sizes([5, 5, 5, 5], 2, 2)
    assert ordinal_schedule(inst) == {1: 1, 2: 2, 3: 2, 4: 1}
