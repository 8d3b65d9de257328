import random
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from cardsched.model import InfeasibleError, check_feasible, instance_from_sizes, makespan
from cardsched.oracle import exact_opt
from cardsched.ordinal import borders, ordinal_map, ordinal_schedule
from reference_scans import iota, ref_ordinal_map, wide_rounds


def test_borders_power_of_two():
    assert borders(8) == (1, 2, 3, 5, 9)  # xi = 5


def test_borders_m6():
    assert borders(6) == (1, 2, 4, 7)  # xi = 4


def test_borders_m1():
    assert borders(1) == (1, 2)


@pytest.mark.parametrize("m,expected", [(4, 3), (5, 3), (6, 4), (7, 4)])
def test_third_border_m4_to_7(m, expected):
    assert borders(m)[2] == expected


def test_ordinal_map_is_a_tuple():
    assert type(ordinal_map(5, 4)) is tuple


def test_k2_zigzag():
    assert ordinal_map(2, 2) == (1, 2, 2, 1)
    assert ordinal_map(4, 2) == (1, 2, 3, 4, 4, 3, 2, 1)


def test_special_cases():
    assert ordinal_map(1, 5) == (1,) * 5
    assert ordinal_map(4, 1) == (1, 2, 3, 4)


def test_first_round_spreads_largest_jobs():
    for m in range(2, 12):
        for k in (3, 4, 7):
            sigma = ordinal_map(m, k)
            assert sigma[:m] == tuple(range(1, m + 1))


def test_each_machine_gets_exactly_k_positions():
    for m in range(1, 12):
        for k in range(1, 9):
            sigma = ordinal_map(m, k)
            assert len(sigma) == m * k
            for machine in range(1, m + 1):
                assert sigma.count(machine) == k


def test_wide_range_of_shapes_never_overflows():
    # no round pushes a machine past k: each machine holds exactly k positions
    for m in list(range(2, 41)) + [63, 64, 65, 100]:
        for k in (3, 4, 5, 7, 11, 30):
            sigma = ordinal_map(m, k)
            assert len(sigma) == m * k
            assert all(sigma.count(machine) == k for machine in range(1, m + 1)), (m, k)


def test_closed_form_matches_round_simulation():
    shapes = [(m, k) for m in range(1, 70) for k in range(1, 40)]
    shapes += [(m, k) for j in range(1, 12) for m in (2**j - 1, 2**j, 2**j + 1) for k in (3, 4, 5, 7, 64)]
    # log-uniform draws over m <= 3000 and k <= 300, at most 10**5 positions each
    rng = random.Random(28)
    for _ in range(300):
        m = round(3000 ** rng.random())
        shapes.append((m, round(min(300, 10**5 // m) ** rng.random())))
    for m, k in shapes:
        assert ordinal_map(m, k) == ref_ordinal_map(m, k), (m, k)


def test_ordinal_map_allocates_one_pointer_per_position():
    # 3 * 10**5 positions: the tuple is 2.4 MB and the machine ints 2.8 MB;
    # per-machine counts or per-phase copies of them would exceed the bound
    tracemalloc.start()
    try:
        sigma = ordinal_map(10**5, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20, peak
    assert len(sigma) == 3 * 10**5


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


def test_iota_matches_wide_rounds_small():
    for m in (8, 16):
        for k in range(3, 40):
            counts = wide_rounds(ordinal_map(m, k), m)
            assert sorted(counts) == list(range(2, len(borders(m))))
            for s, count in counts.items():
                assert count == iota(s, k), (m, k, s)


def test_wide_rounds_read_the_simulated_map():
    # phase 2: 9 rounds (W, N, N); phases 3 and 4 start at 1 + 3 held: 6 rounds (W, N)
    assert wide_rounds(ref_ordinal_map(8, 10), 8) == {2: 3, 3: 3, 4: 3}


def test_phase_count_parity_small():
    for m in (8, 16):
        for k in range(3, 40):
            for s in range(2, len(borders(m))):
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
