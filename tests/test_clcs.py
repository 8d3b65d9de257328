import math
import random
import tracemalloc

import pytest

from cardsched.clcs import (
    GreedyClcsScheduler,
    clcs_makespan,
    identical_lb_report,
    run_classed_stream,
    uniform_lb_drive,
)
from cardsched.engine import ContractViolation, StreamRunner
from cardsched.model import InfeasibleError
from reference_scans import Replay, clcs_exact


def test_greedy_binding_rule():
    drive = run_classed_stream(GreedyClcsScheduler(2, 1), [(1.0, 1), (1.0, 2), (1.0, 1)], 2, 1)
    assert list(drive.trace.machines) == [1, 2, 1]


def test_greedy_single_class_stays_on_one_machine():
    drive = run_classed_stream(GreedyClcsScheduler(4, 2), [(2.0, 9)] * 6, 4, 2)
    assert set(drive.trace.machines) == {1}
    assert max(drive.loads) == 12.0


def test_greedy_feasible_when_classes_fit():
    m, k = 3, 2
    jobs = [(1.0, c) for c in range(1, m * k + 1)] * 2
    drive = run_classed_stream(GreedyClcsScheduler(m, k), jobs, m, k)
    for i in range(m):
        assert len(drive.class_sets[i]) <= k


def test_greedy_infeasible_when_classes_exceed_mk():
    scheduler = GreedyClcsScheduler(2, 1)
    scheduler.on_arrival(1.0, 1)
    scheduler.on_arrival(1.0, 2)
    with pytest.raises(InfeasibleError, match="^all machines already host k classes$"):
        scheduler.on_arrival(1.0, 3)


def test_greedy_binding_keeps_nothing_per_machine():
    # a binding touches one machine, so 100 new classes at m = 10**6 cost what
    # 100 bindings hold, not a count per machine (8 MB as a list of m ints)
    tracemalloc.start()
    try:
        scheduler = GreedyClcsScheduler(10**6, 1)
        machines = [scheduler.on_arrival(1.0, cls) for cls in range(1, 101)]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert machines == list(range(1, 101))
    assert peak < 256 * 1024


def test_classed_runner_recounts_classes_after_a_move():
    # m=2, k=1: job 2 moves job 1 (class 1) from machine 1 to machine 2, which
    # frees machine 1 for class 2
    decisions = [(1, ()), (2, ((1, 1, 2),)), (1, ())]
    runner = run_classed_stream(Replay(decisions), [(1.0, 1), (1.0, 1), (1.0, 2)], 2, 1)
    assert [runner.class_sets[i] for i in range(2)] == [{2}, {1}]
    assert runner.trace.final_schedule() == {1: 2, 2: 2, 3: 1}
    # a move onto a machine that already hosts k other classes is refused
    runner = StreamRunner(Replay(decisions), 2, 1, classed=True)
    runner.push((1.0, 1))
    with pytest.raises(ContractViolation, match="arrival 2: machine 2 hosts more than 1 classes"):
        runner.push((1.0, 2))


def _refused_as_after_job_1(runner, scheduler):
    """The runner and greedy ClCS stand as after the job (1.0, 1), and the stream goes on."""
    assert runner.n == 1 and list(runner.classes) == [1]
    assert [runner.class_sets[i] for i in range(2)] == [{1}, set()]
    assert list(runner.trace.makespans) == [1.0] and scheduler._machine_of_class == {1: 1}
    runner.push((3.0, 2))
    assert list(runner.trace.machines) == [1, 2]
    assert list(runner.trace.makespans) == [1.0, 3.0]


@pytest.mark.parametrize("cls", [0, -1, 2**63])
def test_classed_runner_refuses_a_class_before_the_scheduler_sees_it(cls):
    scheduler = GreedyClcsScheduler(2, 1)
    runner = StreamRunner(scheduler, 2, 1, classed=True)
    with pytest.raises(ValueError, match=r"job class must be in \[1, 2\*\*63 - 1\], got"):
        runner.feed([(1.0, 1), (2.0, cls)])
    _refused_as_after_job_1(runner, scheduler)


@pytest.mark.parametrize("job", [2.0, (2.0,), (2.0, 2, 3), None])
def test_classed_runner_refuses_a_job_that_is_not_a_pair(job):
    scheduler = GreedyClcsScheduler(2, 2)
    calls, inner = [], scheduler.on_arrival
    scheduler.on_arrival = lambda size, cls: calls.append((size, cls)) or inner(size, cls)
    runner = StreamRunner(scheduler, 2, 2, classed=True)
    with pytest.raises((TypeError, ValueError)):
        runner.feed([(1.0, 1), job, (5.0, 1)])
    assert calls == [(1.0, 1)]  # the scheduler never saw the bad job or what followed
    _refused_as_after_job_1(runner, scheduler)


@pytest.mark.parametrize("size", [math.nan, -1.0, math.inf])
def test_classed_runner_refuses_a_bad_size_before_a_bad_class(size):
    scheduler = GreedyClcsScheduler(2, 2)
    runner = StreamRunner(scheduler, 2, 2, classed=True)
    with pytest.raises(ValueError, match="^job size must be finite and >= 0, got"):
        runner.feed([(1.0, 1), (size, 0)])
    _refused_as_after_job_1(runner, scheduler)


def test_classed_runner_builds_no_class_set_per_machine():
    # a class set per machine at m = 10**5 peaks near 23 MB; the loads and
    # counts, 8 bytes a machine each, are what remains
    m = 10**5
    tracemalloc.start()
    try:
        runner = run_classed_stream(GreedyClcsScheduler(m, 1), [(1.0, 1), (2.0, 2), (3.0, 1)], m, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert list(runner.trace.machines) == [1, 2, 1]
    assert peak < 4 * 2**20, peak


def test_clcs_exact_examples():
    # one class may appear on many machines: k restricts distinct classes
    assert clcs_exact([(1.0, 1)] * 3, 3, 1) == 1.0
    assert clcs_exact([(1.0, 1), (2.0, 2)], 1, 2) == 3.0
    assert clcs_exact([(2.0, 1)], 2, 1, speeds=[1, 2]) == 1.0


def test_clcs_exact_guard_and_infeasible():
    with pytest.raises(ValueError):
        clcs_exact([(1.0, 1)] * 9, 3, 3)
    with pytest.raises(InfeasibleError):
        clcs_exact([(1.0, c) for c in (1, 2, 3)], 1, 2)


@pytest.mark.parametrize("m", range(2, 7))
def test_identical_lb_ratio_is_exactly_m(m):
    report = identical_lb_report(GreedyClcsScheduler(m, 1), m, 1)
    assert report.ratio == float(m)
    assert report.opt_value == 1.0


def test_identical_lb_spreading_scheduler_burns_slots():
    report = identical_lb_report(Replay([1, 2, 3]), 3, 1)  # one job per machine
    assert report.ratio <= 3.0
    assert len(set(report.machines)) == 3


def test_uniform_lb_acceptance_parameters():
    report = uniform_lb_drive(GreedyClcsScheduler(3, 2), 3, 2, 2.0, 1.0, 0.01, 200)
    assert report.ratio >= 3.6
    assert report.opt_value == 200 / 2.0 + 2 / 2.0
    assert report.note is None


def test_uniform_lb_m0_phase1_only():
    report = uniform_lb_drive(GreedyClcsScheduler(3, 2), 3, 2, 2.0, 1.0, 0.01, 0)
    assert report.n == 6
    assert report.ratio >= 1.0


def test_uniform_lb_preconditions():
    with pytest.raises(ValueError):
        uniform_lb_drive(GreedyClcsScheduler(3, 2), 3, 2, 1.0, 1.0, 0.01, 10)  # s must exceed 1
    with pytest.raises(ValueError):
        uniform_lb_drive(GreedyClcsScheduler(1, 2), 1, 2, math.inf, 1.0, 0.01, 10)  # opt would read 0
    with pytest.raises(ValueError):
        uniform_lb_drive(GreedyClcsScheduler(3, 2), 3, 2, 2.0, 1.0, 1.0, 10)  # eps >= 1/beta
    with pytest.raises(ValueError):
        uniform_lb_drive(GreedyClcsScheduler(3, 2), 3, 2, 2.0, 1.0, 0.01, -1)


def test_uniform_lb_speeds_divide_loads():
    report = uniform_lb_drive(GreedyClcsScheduler(3, 2), 3, 2, 4.0, 1.0, 0.01, 8)
    loads = [0.0, 0.0, 0.0]
    for size, machine in report.transcript:
        loads[machine - 1] += size
    speeds = (1.0, 4.0, 4.0)
    assert report.alg_makespan == max(ld / sp for ld, sp in zip(loads, speeds))


def test_uniform_lb_floods_min_k_m_minus_1_classes_of_machine_1():
    # phase 1's m*k distinct classes leave every machine with exactly k, so the
    # flood never runs short of classes on machine 1, whatever the scheduler does
    for seed in range(100):
        rng = random.Random(seed)
        m, k = rng.randint(2, 6), rng.randint(1, 5)
        phase_1 = [mi for mi in range(1, m + 1) for _ in range(k)]
        rng.shuffle(phase_1)  # a seeded random capped schedule of the unit classes
        flood = [1] * (3 * min(k, m - 1))  # 3 rounds over classes that sit on machine 1
        report = uniform_lb_drive(Replay(phase_1 + flood), m, k, 2.0, 1.0, 0.01, 3)
        assert report.note is None
        on_machine_1 = sorted(c for c, mi in zip(report.classes, phase_1) if mi == 1)
        assert report.classes[m * k :] == on_machine_1[: min(k, m - 1)] * 3


@pytest.mark.parametrize(
    "speeds", [(1.0, 2.0), (1.0, -2.0, 0.5), (1.0, 0.0, 1.0), (1.0, math.inf, 1.0), (1.0, math.nan, 1.0)]
)
def test_clcs_makespan_needs_one_finite_positive_speed_per_machine(speeds):
    with pytest.raises(ValueError, match="speeds"):
        clcs_makespan([1.0, 5.0, 4.0], speeds)
    assert clcs_makespan([1.0, 5.0, 4.0], (1.0, 2.0, 0.5)) == 8.0


def test_greedy_within_m_times_optimum_random():
    rng = random.Random(17)
    for _ in range(120):
        m = rng.randint(2, 3)
        k = rng.randint(1, 3)
        n = rng.randint(1, 8)
        jobs = [(rng.uniform(0.5, 9.0), rng.randint(1, m * k)) for _ in range(n)]
        drive = run_classed_stream(GreedyClcsScheduler(m, k), jobs, m, k)
        opt = clcs_exact(jobs, m, k)
        assert max(drive.loads) <= m * opt + 1e-9
        for i in range(m):
            assert len(drive.class_sets[i]) <= k
