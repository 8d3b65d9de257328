import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from cardsched.engine import StreamRunner, migration_stats, run_stream
from cardsched.model import (
    GeometricClasses,
    InfeasibleError,
    check_feasible,
    instance_from_sizes,
    power,
)
from cardsched.oracle import exact_opt
from cardsched.ordinal import ordinal_map
from cardsched.robust import RobustOrdinalScheduler
from reference_scans import positions


def test_first_arrival_goes_to_position_one():
    trace = run_stream(RobustOrdinalScheduler(3, 2, 1.0), [7.0], 3, 2)
    assert trace.records[0].machine == 1
    assert trace.records[0].migration.moves == ()


def test_equal_size_appends_to_class_tail_without_cascade():
    rs = RobustOrdinalScheduler(2, 3, 1.0)
    trace = run_stream(rs, [4.0, 4.0, 4.0], 2, 3)
    assert all(r.migration.moves == () for r in trace.records)
    assert positions(rs) == {1: 1, 2: 2, 3: 3}


def test_cascade_moves_heads_of_smaller_classes():
    # classes {3: [a], 1: [b, c]}, then a job in class 5: heads a and b cascade
    rs = RobustOrdinalScheduler(3, 3, 1.0)
    runner = StreamRunner(rs, 3, 3)
    for s in (8.0, 2.0, 2.0):
        runner.push(s)
    before = positions(rs)
    assert before == {1: 1, 2: 2, 3: 3}
    runner.push(32.0)
    rec = runner.trace.records[-1]
    after = positions(rs)
    assert after[4] == 1  # new largest job takes the head position
    assert after[1] == 2  # head of class 3 slid to its tail (single-job class)
    assert after[3] == 3 and after[2] == 4  # class-1 head rotated behind its tail
    repositioned = {j for j in before if before[j] != after[j]}
    assert repositioned == {1, 2}
    assert {job for job, _, _ in rec.migration.moves} <= repositioned


def test_new_smallest_job_moves_nothing():
    rs = RobustOrdinalScheduler(2, 3, 1.0)
    trace = run_stream(rs, [8.0, 4.0, 1.0], 2, 3)
    assert trace.records[2].migration.moves == ()


def test_infeasible_after_capacity():
    # the runner, not the scheduler, refuses the arrival past m*k
    runner = StreamRunner(RobustOrdinalScheduler(2, 1, 1.0), 2, 1)
    runner.feed([1.0, 2.0])
    with pytest.raises(InfeasibleError):
        runner.push(3.0)


def test_rejects_bad_eps_and_sizes():
    # eps is checked at construction, before any size arrives
    for eps in (0.0, -1.0, 1e-20, math.inf, math.nan):
        with pytest.raises(ValueError, match="1 \\+ eps"):
            RobustOrdinalScheduler(2, 2, eps)
    # a zero is accepted: it joins the bottom class and moves nothing
    decision = RobustOrdinalScheduler(2, 2, 1.0).on_arrival(0.0)
    assert decision == (1, ())


@given(st.sampled_from([1.0, 0.5, 0.25]), st.integers(1, 4), st.randoms(use_true_random=False))
@settings(max_examples=30, deadline=None)
def test_zero_sizes_move_nothing_and_keep_the_factor_bound(eps, m, rng):
    # about 30% zeros: a zero arrival lists no moves, and moving a zero costs nothing
    k = rng.randint(1, 6)
    n = rng.randint(1, m * k)
    sizes = [0.0 if rng.random() < 0.3 else rng.uniform(0.05, 60.0) for _ in range(n)]
    trace = run_stream(RobustOrdinalScheduler(m, k, eps), sizes, m, k)
    assert all(rec.migration.moves == () for rec in trace.records if rec.size == 0)
    assert migration_stats(trace).max_factor <= (1 + eps) / eps + 1e-9
    instance = instance_from_sizes(trace.sizes, trace.m, trace.k)
    assert check_feasible(trace.final_schedule(), instance) == []


@pytest.mark.parametrize("eps", [1.0, 0.5, 0.25])
def test_migration_factor_bound_per_arrival(eps):
    rng = random.Random(13)
    for _ in range(30):
        m = rng.choice([2, 3, 4])
        n = rng.randint(1, 16)
        k = max(-(-n // m), rng.randint(1, 5))
        sizes = [rng.uniform(0.05, 60.0) for _ in range(n)]
        trace = run_stream(RobustOrdinalScheduler(m, k, eps), sizes, m, k)
        for rec in trace.records:
            assert rec.migration.moved_size <= (1 + eps) / eps * rec.size + 1e-9
        stats = migration_stats(trace)
        assert stats.max_factor <= (1 + eps) / eps + 1e-9


@pytest.mark.parametrize("eps", [1.0, 0.5, 0.25])
def test_migrated_rounded_sizes_are_distinct_smaller_powers(eps):
    rng = random.Random(4)
    for _ in range(40):
        m, k = 3, 4
        n = rng.randint(2, 12)
        sizes = [2.0 ** rng.randint(-3, 5) for _ in range(n)]
        rs = RobustOrdinalScheduler(m, k, eps)
        runner = StreamRunner(rs, m, k)
        classes = GeometricClasses(eps)
        placed = {}
        for i, s in enumerate(sizes, start=1):
            runner.push(s)
            rec = runner.trace.records[-1]
            e = classes.exponent(s)
            placed[i] = (power(1 + eps, e), e)
            exps = [placed[job][1] for job, _, _ in rec.migration.moves]
            new_exp = placed[i][1]
            assert len(set(exps)) == len(exps)
            assert all(e < new_exp for e in exps)
            rounded_moved = sum(placed[job][0] for job, _, _ in rec.migration.moves)
            assert rounded_moved <= placed[i][0] / eps + 1e-9


def test_position_stability_every_arrival():
    rng = random.Random(21)
    for _ in range(25):
        m = rng.choice([2, 3])
        k = rng.randint(2, 5)
        n = rng.randint(1, m * k)
        sizes = [rng.uniform(0.1, 30.0) for _ in range(n)]
        rs = RobustOrdinalScheduler(m, k, 0.5)
        runner = StreamRunner(rs, m, k)
        prev = {}
        for i, s in enumerate(sizes, start=1):
            runner.push(s)
            rec = runner.trace.records[-1]
            now = positions(rs)
            moved = {job for job, _, _ in rec.migration.moves}
            shifted = {j for j in prev if now[j] != prev[j]}
            # machine changes only happen to jobs whose position shifted
            assert moved <= shifted
            prev = now


def test_end_to_end_rate_bound():
    rng = random.Random(90)
    for eps in (1.0, 0.5):
        for _ in range(25):
            m = rng.choice([2, 3, 4])
            n = rng.randint(1, 14)
            k = max(-(-n // m), 2)
            sizes = [float(rng.randint(1, 64)) for _ in range(n)]
            trace = run_stream(RobustOrdinalScheduler(m, k, eps), sizes, m, k)
            instance = instance_from_sizes(sizes, m, k)
            assert check_feasible(trace.final_schedule(), instance) == []
            opt = exact_opt(instance).opt_makespan
            assert trace.final_makespan() <= (1 + eps) * (81 / 41) * opt + 1e-9


def test_trace_loads_replay_from_final_schedule():
    rng = random.Random(33)
    for _ in range(20):
        m, k = 3, 3
        n = rng.randint(1, m * k)
        sizes = [rng.uniform(0.2, 9.0) for _ in range(n)]
        trace = run_stream(RobustOrdinalScheduler(m, k, 0.5), sizes, m, k)
        from cardsched.model import loads

        replayed = loads(trace.final_schedule(), instance_from_sizes(sizes, m, k))
        assert replayed == trace.loads


def test_machines_follow_fixed_map_positions():
    m, k, eps = 2, 3, 1.0
    rs = RobustOrdinalScheduler(m, k, eps)
    runner = StreamRunner(rs, m, k)
    sigma = ordinal_map(m, k)
    for s in (8.0, 2.0, 16.0, 1.0):
        runner.push(s)
        placed = runner.trace.final_schedule()
        assert placed == {jid: sigma[p - 1] for jid, p in positions(rs).items()}
