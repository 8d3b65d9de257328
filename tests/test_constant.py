import math
import random
from bisect import insort

import pytest
from hypothesis import given, settings, strategies as st

from cardsched import constant
from cardsched.constant import ConstantCompetitiveScheduler, _small_order
from cardsched.engine import StreamRunner, run_stream
from cardsched.model import InfeasibleError, check_feasible, instance_from_sizes

from reference_scans import Replay, certify_load_bound, check_invariants, round_down_pow2, rows_of_kind


def _violations(trace):
    instance = instance_from_sizes(trace.sizes, trace.m, trace.k)
    return check_feasible(trace.final_schedule(), instance)


def _run_with_invariants(m, k, sizes):
    scheduler = ConstantCompetitiveScheduler(m, k)
    runner = StreamRunner(scheduler, m, k)
    for s in sizes:
        runner.push(s)
        check_invariants(scheduler)
    return scheduler, runner.trace


def test_fallback_mode_below_50():
    scheduler = ConstantCompetitiveScheduler(3, 10)
    snap = scheduler.structure_snapshot()
    assert snap["fallback"]
    trace = run_stream(scheduler, [1.0] * 6, 3, 10)
    # balanced fill: fewest jobs first, tie to lowest index
    assert [r.machine for r in trace.records] == [1, 2, 3, 1, 2, 3]
    # round-robin's own decisions: no structure is ever built
    assert scheduler.structure_snapshot() == snap
    assert snap["rows"] == snap["removed_rows"] == [] and snap["l"] is None


def test_first_arrival_initializes_structure():
    scheduler = ConstantCompetitiveScheduler(2, 64)
    run_stream(scheduler, [5.0], 2, 64)
    snap = scheduler.structure_snapshot()
    assert not snap["fallback"]
    assert snap["p_max"] == 4.0  # rounded down from 5
    assert snap["l"] == 12  # floor(2*log2(64))
    assert snap["active_k"] == 64
    assert len(rows_of_kind(snap, "free")) == 32
    assert len(rows_of_kind(snap, "small")) == 32 - 2 * 13
    assert len(rows_of_kind(snap, "pure")) == 13
    assert len(rows_of_kind(snap, "mixed")) == 13
    # the first job lands in the group-0 pure/mixed pair
    occupied = [r for r in snap["rows"] if any(s is not None for s in r["slots"])]
    assert len(occupied) == 1
    assert occupied[0]["group"] == 0


@pytest.mark.parametrize("k", [50, 51, 1000])
def test_first_arrival_makes_only_the_pair_and_small_rows(monkeypatch, k):
    # the floor(k/2) free rows are made when a repair takes one, not up front
    made = []

    class CountedRow(constant._Row):
        __slots__ = ()

        def __init__(self, rid):
            super().__init__(rid)
            made.append(rid)

    monkeypatch.setattr(constant, "_Row", CountedRow)
    scheduler = ConstantCompetitiveScheduler(3, k)
    assert made == []
    scheduler.on_arrival(1.0)
    assert made == list(range(-(k // -2)))
    check_invariants(scheduler)


@pytest.mark.parametrize("k", [50, 51, 64, 99, 1000])
def test_init_small_rows_equal_the_insort_build(k):
    scheduler = ConstantCompetitiveScheduler(3, k)
    scheduler._init_structure()
    small = scheduler._small
    assert small == sorted(small, key=_small_order)
    built = []
    for row in sorted(small, key=lambda r: r.rid):
        insort(built, row, key=_small_order)
    assert small == built
    pairs = 2 * (scheduler.l + 1)
    assert [r.rid for r in small] == list(range(pairs, pairs + len(small)))
    assert all(r.kind == "small" and r.group is None for r in small)
    check_invariants(scheduler)


def test_full_equal_stream_completes_feasibly():
    m, k = 2, 64
    scheduler, trace = _run_with_invariants(m, k, [3.0] * (m * k))
    assert _violations(trace) == []
    counts = [0, 0]
    for machine in trace.final_schedule().values():
        counts[machine - 1] += 1
    assert counts == [k, k]


def test_new_max_enters_group_zero_without_relabeling():
    scheduler = ConstantCompetitiveScheduler(2, 64)
    runner = StreamRunner(scheduler, 2, 64)
    runner.push(4.0)
    before = scheduler.structure_snapshot()
    runner.push(64.0)  # larger than current p_max
    after = scheduler.structure_snapshot()
    assert after["p_max"] == 64.0
    assert after["l"] == before["l"]
    # both jobs sit in group-0 rows: labels did not shift with p_max
    group0 = [r for r in after["rows"] if r["group"] == 0]
    placed = [jid for r in group0 for jid in r["slots"] if jid is not None]
    assert sorted(placed) == [1, 2]


def test_pair_removal_decrements_active_k_by_two():
    m, k = 1, 64
    scheduler = ConstantCompetitiveScheduler(m, k)
    runner = StreamRunner(scheduler, m, k)
    # same rounded size -> group 0; the pair holds 2*m slots, so the 2m-th
    # arrival fills both rows and triggers a pair removal
    for _ in range(2 * m):
        runner.push(2.0)
        check_invariants(scheduler)
    snap = scheduler.structure_snapshot()
    assert snap["active_k"] == k - 2
    assert len(snap["removed_rows"]) == 2


def test_small_row_removal_decrements_active_k_by_one():
    m, k = 1, 64
    scheduler = ConstantCompetitiveScheduler(m, k)
    runner = StreamRunner(scheduler, m, k)
    runner.push(1024.0)  # group 0, sets p_max
    # tiny jobs land in small rows (i > l); each fills a 1-slot row at m=1
    runner.push(2.0 ** -10)
    check_invariants(scheduler)
    snap = scheduler.structure_snapshot()
    assert snap["active_k"] == k - 1
    assert len(snap["removed_rows"]) == 1


def test_arrival_cap_and_domain_errors():
    # the runner owns the job contract: it refuses arrival m*k + 1 and a negative size
    runner = StreamRunner(ConstantCompetitiveScheduler(2, 2), 2, 2)
    runner.feed([1.0] * 4)
    with pytest.raises(InfeasibleError):
        runner.push(1.0)
    with pytest.raises(ValueError, match="finite and >= 0"):
        StreamRunner(ConstantCompetitiveScheduler(2, 2), 2, 2).push(-1.0)
    assert run_stream(ConstantCompetitiveScheduler(2, 2), [0.0], 2, 2).final_makespan() == 0.0


def test_terminal_mode_freezes_and_finishes():
    m, k = 1, 50
    scheduler = ConstantCompetitiveScheduler(m, k)
    runner = StreamRunner(scheduler, m, k)
    for _ in range(m * k):
        runner.push(8.0)
        check_invariants(scheduler)
    snap = scheduler.structure_snapshot()
    assert snap["terminal"]
    assert snap["active_k"] <= 49
    assert _violations(runner.trace) == []


def test_certify_load_bound_single_job():
    scheduler = ConstantCompetitiveScheduler(2, 64)
    trace = run_stream(scheduler, [5.0], 2, 64)
    assert certify_load_bound(trace) == []


def test_certify_load_bound_fallback_form():
    scheduler = ConstantCompetitiveScheduler(2, 4)
    trace = run_stream(scheduler, [3.0, 1.0, 2.0, 5.0], 2, 4)
    assert certify_load_bound(trace) == []


def test_certify_load_bound_flags_violations():
    # stacking 100 unit jobs on one of 8 machines breaks the k>=50 bound:
    # 100 > (2/8)*100 + (50 - 1/99)*1
    trace = run_stream(Replay([1] * 100), [1.0] * 100, 8, 100)
    violations = certify_load_bound(trace)
    assert violations and "machine 1" in violations[0]


@given(
    st.integers(min_value=50, max_value=80),
    st.integers(min_value=1, max_value=3),
    st.randoms(use_true_random=False),
)
@settings(max_examples=25, deadline=None)
def test_structure_invariant_random_streams(k, m, rng):
    n = rng.randrange(1, m * k + 1)
    sizes = [2.0 ** rng.uniform(-10, 10) for _ in range(n)]
    scheduler, trace = _run_with_invariants(m, k, sizes)
    assert _violations(trace) == []
    assert certify_load_bound(trace) == []
    total = sum(sizes)
    p_max = max(sizes)
    assert trace.final_makespan() <= 120 * max(p_max, total / m) + 1e-9


@given(
    st.integers(min_value=50, max_value=80),
    st.integers(min_value=1, max_value=3),
    st.randoms(use_true_random=False),
)
@settings(max_examples=25, deadline=None)
def test_zero_sizes_keep_invariants_in_live_and_terminal_mode(k, m, rng):
    # about 30% zeros; a full stream of m*k jobs starts live and ends terminal
    sizes = [0.0 if rng.random() < 0.3 else 2.0 ** rng.uniform(-10, 10) for _ in range(m * k)]
    scheduler, trace = _run_with_invariants(m, k, sizes)
    assert scheduler.terminal
    assert _violations(trace) == []
    assert certify_load_bound(trace) == []


def test_leading_zero_builds_the_structure_and_sets_no_p_max():
    scheduler = ConstantCompetitiveScheduler(2, 64)
    runner = StreamRunner(scheduler, 2, 64)
    runner.push(0.0)
    check_invariants(scheduler)
    snap = scheduler.structure_snapshot()
    assert snap["p_max"] is None and snap["l"] == 12
    assert [r["kind"] for r in snap["rows"] if any(s is not None for s in r["slots"])] == ["small"]
    runner.push(5.0)
    check_invariants(scheduler)
    assert scheduler.structure_snapshot()["p_max"] == 4.0
    assert certify_load_bound(runner.trace) == []


def test_active_k_only_decreases_and_l_tracks():
    rng = random.Random(5)
    m, k = 2, 64
    scheduler = ConstantCompetitiveScheduler(m, k)
    runner = StreamRunner(scheduler, m, k)
    last_active = k
    last_l = None
    for _ in range(m * k):
        runner.push(2.0 ** rng.randint(-12, 6))
        snap = scheduler.structure_snapshot()
        assert snap["active_k"] <= last_active
        assert last_active - snap["active_k"] <= 2
        if last_l is not None and snap["l"] is not None and not snap["terminal"]:
            assert last_l - snap["l"] in (0, 1)
        last_active = snap["active_k"]
        last_l = snap["l"]
        check_invariants(scheduler)


def test_no_migrations_ever():
    rng = random.Random(9)
    m, k = 3, 64
    sizes = [2.0 ** rng.uniform(-8, 8) for _ in range(m * k)]
    trace = run_stream(ConstantCompetitiveScheduler(m, k), sizes, m, k)
    assert all(r.migration.moves == () for r in trace.records)


def test_full_merged_row_is_removed_immediately():
    # at m=1 a single group-12 job fills the mixed row r'_12 outright; the
    # next small job fills a small row, drops l from 12 to 11, and the full
    # merged row must be retired on the spot (never a full small row)
    m, k = 1, 64
    scheduler = ConstantCompetitiveScheduler(m, k)
    runner = StreamRunner(scheduler, m, k)
    runner.push(4096.0)  # 2**12 sets p_max
    runner.push(1.0)  # group 12
    check_invariants(scheduler)
    snap = scheduler.structure_snapshot()
    mixed12 = [r for r in snap["rows"] if r["kind"] == "mixed" and r["group"] == 12]
    assert mixed12[0]["slots"] == (2,)
    runner.push(2.0**-13)
    check_invariants(scheduler)
    snap = scheduler.structure_snapshot()
    assert scheduler.active_k == 62  # small-row removal plus full merged row
    assert snap["l"] == 11
    assert len(snap["removed_rows"]) == 2
    assert all(r["group"] != 12 for r in snap["rows"])
    rng = random.Random(1)
    while runner.trace.n < m * k:
        runner.push(2.0 ** rng.randint(-13, 12))
        check_invariants(scheduler)
    assert _violations(runner.trace) == []
    assert certify_load_bound(runner.trace) == []


def test_snapshot_is_a_deep_copy():
    scheduler = ConstantCompetitiveScheduler(2, 64)
    run_stream(scheduler, [5.0, 3.0], 2, 64)
    snap = scheduler.structure_snapshot()
    scheduler.on_arrival(2.0)
    snap2 = scheduler.structure_snapshot()
    filled = lambda s: sum(1 for r in s["rows"] for x in r["slots"] if x is not None)
    assert filled(snap2) == filled(snap) + 1


def test_rounded_loads_match_certificate_inputs():
    sizes = [5.0, 3.0, 0.7, 9.0]
    scheduler = ConstantCompetitiveScheduler(2, 64)
    trace = run_stream(scheduler, sizes, 2, 64)
    rounded = [round_down_pow2(s)[0] for s in sizes]
    assert rounded == [4.0, 2.0, 0.5, 8.0]
    assert certify_load_bound(trace) == []
