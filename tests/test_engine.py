import math
import tracemalloc
from functools import partial
from itertools import count, islice

import pytest
from hypothesis import given, settings, strategies as st

from cardsched import engine
from cardsched.cli import SCHEDULERS, generate_sizes
from cardsched.constant import ConstantCompetitiveScheduler
from cardsched.engine import (
    PHI,
    ContractViolation,
    ListSchedulingCapped,
    PhiScheduler,
    RoundRobinScheduler,
    StreamRunner,
    competitive_metrics,
    migration_stats,
    run_stream,
)
from cardsched.model import InfeasibleError, check_feasible, instance_from_sizes
from cardsched.oracle import exact_opt, lower_bound, opt_makespan
from reference_scans import Replay


def test_run_stream_round_robin():
    trace = run_stream(RoundRobinScheduler(3, 1), [1, 1, 1], 3, 1)
    assert [r.machine for r in trace.records] == [1, 2, 3]
    assert trace.final_makespan() == 1


def test_run_stream_greedy_replay():
    trace = run_stream(ListSchedulingCapped(2, 2), [2, 1, 1], 2, 2)
    assert [r.machine for r in trace.records] == [1, 2, 2]
    assert trace.loads == [2, 2]


@pytest.mark.parametrize("key", ["round-robin", "greedy-capped", "constant", "robust-ordinal"])
def test_int_sizes_are_recorded_as_fed_and_sum_as_floats(key):
    # trace.sizes holds the fed objects; loads, makespans and metering start
    # every sum from 0.0, so they read as for the same sizes fed as floats
    ints = [(7 * j) % 23 for j in range(39)] + [1000]  # the last job is the lower bound
    as_fed, as_floats = (
        run_stream(SCHEDULERS[key](8, 5, 0.5), sizes, 8, 5)
        for sizes in (ints, list(map(float, ints)))
    )
    assert all(a is b for a, b in zip(as_fed.sizes, ints, strict=True))
    assert repr(as_fed.loads) == repr(as_floats.loads)
    assert repr(as_fed.makespans) == repr(as_floats.makespans)
    assert as_fed.final_schedule() == as_floats.final_schedule()
    lower = partial(competitive_metrics, mode="lower_bound")
    for view in (lower, migration_stats):
        assert repr(view(as_fed)) == repr(view(as_floats))


def test_run_stream_guards_capacity_before_dispatch():
    # the runner refuses arrival m*k + 1 before the scheduler sees it
    scheduler = RoundRobinScheduler(2, 1)
    calls, inner = [], scheduler.on_arrival
    scheduler.on_arrival = lambda size: calls.append(size) or inner(size)
    with pytest.raises(InfeasibleError, match="capacity m\\*k = 2"):
        run_stream(scheduler, [1, 1, 1], 2, 1)
    assert len(calls) == 2


def test_feed_draws_one_size_past_capacity_and_refuses_it():
    # a source that runs past m*k is drawn m*k + 1 times; the extra size never
    # reaches the scheduler and the trace stays as after arrival m*k
    scheduler = RoundRobinScheduler(2, 2)
    calls, inner = [], scheduler.on_arrival
    scheduler.on_arrival = lambda size: calls.append(size) or inner(size)
    runner = StreamRunner(scheduler, 2, 2)
    draws = []

    def sizes():
        for i in count(1):
            draws.append(i)
            yield float(i)

    source = sizes()
    with pytest.raises(InfeasibleError, match="^stream longer than capacity m\\*k = 4$"):
        runner.feed(source)
    assert draws == [1, 2, 3, 4, 5] and calls == [1.0, 2.0, 3.0, 4.0]
    full = (list(runner.trace.sizes), list(runner.trace.makespans), runner.counts, runner.loads)
    assert full == ([1.0, 2.0, 3.0, 4.0], [1.0, 2.0, 4.0, 6.0], [2, 2], [4.0, 6.0])
    # a second feed on the full runner draws once and refuses again
    with pytest.raises(InfeasibleError, match="capacity m\\*k = 4"):
        runner.feed(source)
    assert draws == [1, 2, 3, 4, 5, 6] and len(calls) == 4
    assert (list(runner.trace.sizes), list(runner.trace.makespans)) == full[:2]
    # a source that ends at capacity is not refused
    runner = StreamRunner(RoundRobinScheduler(2, 2), 2, 2)
    runner.feed(islice(sizes(), 4))
    assert runner.n == 4


@pytest.mark.parametrize("size", [math.nan, math.inf, -math.inf, -1.0])
def test_run_stream_rejects_non_finite_and_negative_sizes(size):
    with pytest.raises(ValueError, match="finite and >= 0"):
        run_stream(RoundRobinScheduler(2, 2), [1.0, size], 2, 2)


def test_run_stream_accepts_zero_sizes():
    trace = run_stream(RoundRobinScheduler(2, 2), [0.0, 1.0], 2, 2)
    assert trace.final_makespan() == 1.0


def test_feed_draws_each_size_after_the_last_arrival_is_applied():
    runner = StreamRunner(RoundRobinScheduler(2, 3), 2, 3)
    seen = []

    def sizes():
        for i in range(6):
            # the trace already holds every earlier arrival, makespan included
            seen.append((runner.n, len(runner.trace.makespans), list(runner.counts)))
            yield float(i)

    runner.feed(sizes())
    assert seen == [(i, i, [(i + 1) // 2, i // 2]) for i in range(6)]
    assert list(runner.trace.machines) == [1, 2, 1, 2, 1, 2]


def test_runner_keeps_its_makespan_after_a_refused_size():
    runner = StreamRunner(RoundRobinScheduler(2, 3), 2, 3)
    with pytest.raises(ValueError, match="finite and >= 0"):
        runner.feed([5.0, math.nan, 2.0])
    runner.feed([0.5])  # lands on machine 2, below the makespan of 5.0
    assert list(runner.trace.makespans) == [5.0, 5.0]


@pytest.mark.parametrize(
    "make",
    [
        partial(RoundRobinScheduler, 10**6, 1),
        partial(ConstantCompetitiveScheduler, 10**6, 60),
        PhiScheduler,
    ],
    ids=["round-robin", "constant", "phi"],
)
def test_never_migrating_schedulers_build_nothing_per_machine(make):
    # a decision is a machine int, so no scheduler prebuilds one per machine
    tracemalloc.start()
    try:
        make()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024


@pytest.mark.parametrize(
    "make",
    [partial(ConstantCompetitiveScheduler, 10**5, 60), partial(ListSchedulingCapped, 10**5, 1)],
    ids=["constant", "greedy-capped"],
)
def test_scheduler_state_grows_with_the_stream_not_with_m(make):
    # 2,000 decisions touch at most 2,000 of the 10**5 machines, and the
    # scheduler keeps state for those alone: no bucket, row or heap of m entries
    sizes = generate_sizes("loguniform", 2000, 1)
    tracemalloc.start()
    try:
        scheduler = make()
        for size in sizes:
            scheduler.on_arrival(size)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1024 * 1024


def test_round_robin_hands_out_the_same_ints_after_its_first_lap():
    # machines above 256 are not cached ints; a trace then holds m of them, not n
    trace = run_stream(RoundRobinScheduler(300, 3), [1.0] * 900, 300, 3)
    assert trace.machines == [*range(1, 301)] * 3
    assert len({id(x) for x in trace.machines}) == 300
    # the size is never read
    laps = []
    for size in (0.0, 1e308, 7):
        scheduler = RoundRobinScheduler(300, 3)
        laps.append([scheduler.on_arrival(size) for _ in range(600)])
    assert laps[0] == laps[1] == laps[2] == [*range(1, 301)] * 2


def test_run_stream_detects_cap_violation():
    with pytest.raises(ContractViolation) as err:  # both jobs on machine 1, past the cap
        run_stream(Replay([1, 1]), [1, 1], 2, 1)
    assert err.value.arrival == 2


# in the scripts below, job 1 goes to machine 1 as a pair with no moves (a
# plain placement), and job 2 goes to machine 2 with the moves each test gives


def test_a_pair_with_no_moves_is_a_plain_placement():
    trace = run_stream(Replay([(1, ()), (2, ())]), [1.0, 2.0], 2, 2)
    assert list(trace.machines) == [1, 2] and trace.migrations == {}
    assert list(trace.makespans) == [1.0, 2.0]


def test_run_stream_rejects_inconsistent_moves():
    with pytest.raises(ContractViolation, match="arrival 2: move of job 1 from machine 2 does"):
        run_stream(Replay([(1, ()), (2, ((1, 2, 1),))]), [1.0, 1.0], 2, 2)
    # a source outside [1, m] holds no job either, and refusing it adds no job list
    runner = StreamRunner(Replay([(1, ()), (2, ((1, 3, 1),))]), 2, 2)
    runner.push(1.0)
    with pytest.raises(ContractViolation, match="arrival 2: move of job 1 from machine 3 does"):
        runner.push(1.0)
    assert sorted(runner._jobs) == [1, 2]


def test_runner_refuses_trigger_in_its_own_moves():
    with pytest.raises(ContractViolation, match="arrival 2: trigger job listed in its own migr"):
        run_stream(Replay([(1, ()), (2, ((2, 2, 1),))]), [1.0, 1.0], 2, 2)


@pytest.mark.parametrize("dst", [1, 3])  # its own source, and outside [1, m]
def test_runner_refuses_move_to_invalid_machine(dst):
    message = f"arrival 2: move of job 1 to invalid machine {dst}"
    with pytest.raises(ContractViolation, match=message):
        run_stream(Replay([(1, ()), (2, ((1, 1, dst),))]), [1.0, 1.0], 2, 2)


def test_migration_cap_is_checked_after_all_moves_on_the_lowest_machine():
    # m = 4, k = 1: job 4 joins machine 3 (over k first) and moves job 2 onto
    # machine 1, so machines 1 and 3 both end over k and the lower is named
    decisions = [1, 2, 3, (3, ((2, 2, 1),))]
    with pytest.raises(ContractViolation, match="^arrival 4: machine 1 holds 2 jobs, cap is 1$"):
        run_stream(Replay(decisions), [1.0] * 4, 4, 1)
    # a count that passes k and falls back within one arrival breaks nothing:
    # job 3 moves job 1 onto machine 2, then job 2 off it, onto machine 1
    decisions = [1, 2, (3, ((1, 1, 2), (2, 2, 1)))]
    trace = run_stream(Replay(decisions), [1.0, 2.0, 4.0], 3, 1)
    assert trace.final_schedule() == {1: 2, 2: 1, 3: 3}
    assert list(trace.makespans) == [1.0, 2.0, 4.0] and trace.loads == [2.0, 1.0, 4.0]


def test_first_migration_allocates_per_job_not_per_machine():
    # job 2 moves job 1 to machine 3: the job lists the runner then builds
    # cover the machines that hold jobs, not all 10**6
    runner = StreamRunner(Replay([(1, ()), (2, ((1, 1, 3),))]), 10**6, 1)  # loads and counts: O(m)
    tracemalloc.start()
    try:
        runner.feed([1.0, 2.0])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1024 * 1024
    assert runner.trace.final_schedule() == {1: 3, 2: 2}
    assert list(runner.trace.makespans) == [1.0, 2.0]


def test_round_robin_examples():
    sched = RoundRobinScheduler(2, 2)
    assert [sched.on_arrival(1.0) for _ in range(4)] == [1, 2, 1, 2]
    sched3 = RoundRobinScheduler(3, 2)
    machines = [sched3.on_arrival(1.0) for _ in range(4)]
    assert machines[3] == 1
    # the runner, not the scheduler, refuses the arrival past m*k
    full = StreamRunner(RoundRobinScheduler(1, 2), 1, 2)
    full.feed([1.0, 1.0])
    with pytest.raises(InfeasibleError):
        full.push(1.0)


def test_list_scheduling_tie_breaks_to_lowest_index():
    trace = run_stream(ListSchedulingCapped(2, 1), [1, 1], 2, 1)
    assert [r.machine for r in trace.records] == [1, 2]


def test_list_scheduling_unit_fill_is_balanced():
    m = k = 5
    trace = run_stream(ListSchedulingCapped(m, k), [1.0] * (m * (k - 1)), m, k)
    counts = [0] * m
    for r in trace.records:
        counts[r.machine - 1] += 1
    assert counts == [k - 1] * m


def test_list_scheduling_without_binding_cap_is_classical():
    sizes = [5, 3, 3, 1, 4, 2]
    trace = run_stream(ListSchedulingCapped(3, 6), sizes, 3, 6)
    loads = [0.0] * 3
    for r in trace.records:
        assert loads[r.machine - 1] == min(loads)
        loads[r.machine - 1] += r.size


def test_phi_scheduler_rule_arithmetic():
    # 6 <= 10/phi ~ 6.18: job 3 joins job 1
    trace = run_stream(PhiScheduler(), [10, 6, 6, 1], 2, 2)
    machines = [r.machine for r in trace.records]
    assert machines[2] == machines[0]
    # 7 > 6.18: job 3 joins job 2
    trace = run_stream(PhiScheduler(), [10, 6, 7, 1], 2, 2)
    machines = [r.machine for r in trace.records]
    assert machines[2] == machines[1]


def test_phi_scheduler_swaps_roles_when_second_job_larger():
    trace = run_stream(PhiScheduler(), [6, 10, 6, 1], 2, 2)
    machines = [r.machine for r in trace.records]
    assert machines[2] == machines[1]  # joins the size-10 job


def test_phi_scheduler_places_two_per_machine():
    trace = run_stream(PhiScheduler(), [4, 3, 2, 1], 2, 2)
    machines = [r.machine for r in trace.records]
    assert sorted(machines) == [1, 1, 2, 2]
    with pytest.raises(InfeasibleError):
        trace = run_stream(PhiScheduler(), [1] * 5, 2, 3)


def test_competitive_metrics_single_machine_is_optimal():
    trace = run_stream(RoundRobinScheduler(1, 5), [3, 1, 2], 1, 5)
    metrics = competitive_metrics(trace, "exact")
    assert metrics.final_ratio == 1.0
    assert metrics.prefix_max_ratio == 1.0


def test_competitive_metrics_greedy_on_pure_lb_stream_m4():
    # the 2.1 adversary stream against greedy at m=k=4, small enough for exact mode
    m = k = 4
    sizes = [1.0] * (m * (k - 1)) + [float(k)]
    trace = run_stream(ListSchedulingCapped(m, k), sizes, m, k)
    metrics = competitive_metrics(trace, "exact")
    assert metrics.final_ratio == pytest.approx(2 - 1 / k, abs=1e-12)


def test_competitive_metrics_exact_guard():
    sizes = [1.0] * 21
    trace = run_stream(RoundRobinScheduler(21, 21), sizes, 21, 21)
    with pytest.raises(ValueError):
        competitive_metrics(trace, "exact")


def test_competitive_metrics_lower_bound_dominates_exact():
    # lb <= opt, so the lb-ratio is always >= the exact ratio
    sizes = [5.0, 1.0, 4.0, 2.0]
    trace = run_stream(ListSchedulingCapped(2, 2), sizes, 2, 2)
    exact = competitive_metrics(trace, "exact")
    lb = competitive_metrics(trace, "lower_bound")
    assert lb.final_ratio >= exact.final_ratio - 1e-12
    assert exact.final_ratio >= 1.0


@pytest.mark.parametrize("sizes", [[], [5.0, 1.0, 4.0, 2.0, 3.0, 7.0, 6.0]])
def test_competitive_metrics_exact_solves_each_prefix_once(monkeypatch, sizes):
    m, k = 3, 3
    trace = run_stream(RoundRobinScheduler(m, k), sizes, m, k)
    prefixes = [instance_from_sizes(sizes[:t], m, k) for t in range(1, len(sizes) + 1)]
    opts = [exact_opt(prefix).opt_makespan for prefix in prefixes]
    solved = []

    def counting_opt_makespan(instance):
        solved.append(instance.n)
        return opt_makespan(instance)

    monkeypatch.setattr(engine, "opt_makespan", counting_opt_makespan)
    metrics = competitive_metrics(trace, "exact")
    assert solved == list(range(1, len(sizes) + 1))
    if not sizes:
        assert (metrics.denominator, metrics.final_ratio) == (0.0, 1.0)
        return
    ratios = [trace.makespans[t] / opts[t] for t in range(len(sizes))]
    assert metrics.denominator == opts[-1]
    assert metrics.final_ratio == trace.final_makespan() / opts[-1]
    assert metrics.prefix_max_ratio == max(ratios) > metrics.final_ratio


@given(
    st.lists(st.floats(min_value=0.0, max_value=1e6), max_size=30),
    st.integers(min_value=1, max_value=4),
    st.sampled_from([RoundRobinScheduler, ListSchedulingCapped]),
)
@settings(max_examples=150, deadline=None)
def test_lower_bound_metering_matches_prefix_bounds(sizes, m, factory):
    k = max(1, -(len(sizes) // -m))
    trace = run_stream(factory(m, k), sizes, m, k)
    metrics = competitive_metrics(trace, "lower_bound")
    assert metrics.denominator == lower_bound(trace.sizes, m)
    ratios = [0.0]  # the prefix max of an empty stream
    for t in range(1, len(sizes) + 1):
        numer, denom = trace.makespans[t - 1], lower_bound(sizes[:t], m)
        ratios.append(numer / denom if denom else 1.0 if numer == 0 else math.inf)
    assert metrics.prefix_max_ratio == max(ratios)


def test_migration_stats_pure_online_trace():
    trace = run_stream(RoundRobinScheduler(2, 2), [1, 2, 3], 2, 2)
    stats = migration_stats(trace)
    assert stats.max_factor == 0.0
    assert stats.total_moved == 0.0


def test_migration_stats_quotient():
    # job 2 (size 2) lands on machine 2 and moves job 1 (size 3) there too
    trace = run_stream(Replay([1, (2, ((1, 1, 2),))]), [3.0, 2.0], 2, 2)
    assert trace.migration(2).moved_size == 3.0
    stats = migration_stats(trace)
    assert stats.max_factor == 1.5
    assert stats.total_moved == 3.0


@given(
    st.lists(st.floats(min_value=0.0, max_value=30.0), min_size=1, max_size=12),
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=1, max_value=4),
    st.sampled_from(["round-robin", "greedy"]),
)
@settings(max_examples=120, deadline=None)
def test_baselines_feasible_after_every_arrival(sizes, m, k, key):
    if len(sizes) > m * k:
        return
    factory = RoundRobinScheduler if key == "round-robin" else ListSchedulingCapped
    trace = run_stream(factory(m, k), sizes, m, k)
    for t in range(1, trace.n + 1):
        prefix = instance_from_sizes(sizes[:t], m, k)
        partial = {r.job: r.machine for r in trace.records[:t]}
        assert check_feasible(partial, prefix) == []
        assert trace.records[t - 1].migration.moves == ()


def test_phi_value():
    assert PHI == pytest.approx((1 + math.sqrt(5)) / 2, abs=0)
    assert PHI * PHI == pytest.approx(PHI + 1, rel=1e-15)


def test_phi_bound_on_sample_grid():
    for sizes in [(6, 5, 4, 3), (6, 0, 6, 0), (1, 1, 1, 1), (5, 2, 3, 4)]:
        trace = run_stream(PhiScheduler(), sizes, 2, 2)
        opt = exact_opt(instance_from_sizes(trace.sizes, trace.m, trace.k)).opt_makespan
        assert trace.final_makespan() <= PHI * opt + 1e-9
