import math
import re

import pytest

from cardsched.adversaries import (
    ROBUST_LB_X,
    balanced_lb_drive,
    phi_lb_drive,
    pure_lb_drive,
    robust_lb_drive,
)
from cardsched.engine import (
    PHI,
    ContractViolation,
    ListSchedulingCapped,
    PhiScheduler,
    RoundRobinScheduler,
    Scheduler,
)
from cardsched.model import instance_from_sizes
from cardsched.constant import ConstantCompetitiveScheduler
from cardsched.oracle import exact_opt, lower_bound
from cardsched.robust import RobustOrdinalScheduler
from reference_scans import Replay, check_report


def test_pure_lb_balanced_branch_exact_value():
    report = pure_lb_drive(ListSchedulingCapped(10, 10), 10, 10, 10)
    assert report.ratio == 1.9
    assert report.opt_value == 10.0
    assert report.opt_provenance == "analytic"
    check_report(report)


def test_pure_lb_unbalanced_branch():
    m = k = 3
    N = 1000.0
    # fill machine 1 to the cap, then machine 2, and so on
    report = pure_lb_drive(Replay([1, 1, 1, 2, 2, 2, 3, 3, 3]), m, k, N)
    # stacking leaves spare slots; some machine takes two N-jobs
    assert report.alg_makespan >= 2 * N
    assert report.opt_value == N + k - 1
    assert report.ratio >= 2 * N / (N + k) - 1e-9
    check_report(report)


def test_pure_lb_rejects_migration_onto_full_machine():
    # m=3, k=2: jobs 1 and 2 on machine 1, job 3 on machine 2; job 4 goes to
    # machine 3 while moving job 3 onto the full machine 1
    decisions = [1, 1, 2, (3, ((3, 2, 1),))]
    with pytest.raises(ContractViolation, match="arrival 4: machine 1 holds 3 jobs, cap is 2"):
        pure_lb_drive(Replay(decisions), 3, 2, 10.0)


def test_pure_lb_preconditions():
    with pytest.raises(ValueError):
        pure_lb_drive(RoundRobinScheduler(2, 3), 2, 3, 5)
    with pytest.raises(ValueError):
        pure_lb_drive(RoundRobinScheduler(2, 1), 2, 1, 5)


def test_pure_lb_analytic_matches_oracle_small():
    # both branches on tiny cases stay within oracle reach
    m = k = 2
    report = pure_lb_drive(RoundRobinScheduler(m, k), m, k, 2)
    inst = instance_from_sizes([s for s in report.sizes], m, k)
    opt = exact_opt(inst).opt_makespan
    assert opt <= report.opt_value <= opt * 1.000001
    report2 = pure_lb_drive(Replay([1, 1, 2, 2]), m, k, 2)  # machine 1 filled first
    inst2 = instance_from_sizes([s for s in report2.sizes], m, k)
    opt2 = exact_opt(inst2).opt_makespan
    assert opt2 <= report2.opt_value <= opt2 * 1.000001


def test_pure_lb_ratio_at_least_2_minus_1_over_k():
    for mk in (4, 6, 10):
        for factory in (RoundRobinScheduler, ListSchedulingCapped, ConstantCompetitiveScheduler):
            report = pure_lb_drive(factory(mk, mk), mk, mk, mk)
            assert report.ratio >= 2 - 1 / mk - 1e-9, (factory.__name__, mk)


def test_pure_lb_smallest_case_hits_three_halves():
    # all four pure-online schedulers are defined at m=k=2
    factories = (
        lambda: RoundRobinScheduler(2, 2),
        lambda: ListSchedulingCapped(2, 2),
        lambda: ConstantCompetitiveScheduler(2, 2),
        PhiScheduler,
    )
    for factory in factories:
        report = pure_lb_drive(factory(), 2, 2, 2)
        assert report.ratio == 1.5


def test_balanced_lb_round_robin_small():
    report = balanced_lb_drive(RoundRobinScheduler(3, 50), 3, 50, 10, 100)
    assert report.note is None
    assert report.opt_provenance == "constructive"
    # machine-1 load beats (N-1)/N of the total size for compliant runs
    loads = [0.0, 0.0, 0.0]
    for size, machine in report.transcript:
        loads[machine - 1] += size
    assert loads[0] > (9 / 10) * sum(loads)
    check_report(report)


def test_balanced_lb_sizes_share_one_float_per_power():
    # every round deals from one table of N**ell, so the size column holds one
    # float object per distinct size, however many jobs it has
    report = balanced_lb_drive(RoundRobinScheduler(3, 50), 3, 50, 10, 100)
    sizes = list(report.sizes)
    assert len(sizes) == 148
    assert len(set(map(id, sizes))) == len(set(sizes)) == 3
    assert sorted(set(sizes)) == [10.0**ell for ell in range(3)]


def test_balanced_lb_stops_at_size_overflow():
    # 1e200 ** 2 is past the largest float; float ** raises rather than giving inf
    report = balanced_lb_drive(RoundRobinScheduler(3, 2), 3, 2, 1e200, 3)
    assert report.note == "unbounded-evidence: geometric size overflow"
    assert [size for size, _ in report.transcript] == [1.0, 1.0, 1e200]
    assert report.n == 3
    assert report.alg_makespan == 1e200
    check_report(report)


def test_balanced_lb_degenerate_stacker():
    # every job lands on machine 1: k rounds of a single unit job
    report = balanced_lb_drive(Replay([1] * 5), 1, 5, 10, 100)
    assert report.n == 5
    assert all(s == 1.0 for s in report.sizes)
    check_report(report)


def test_balanced_lb_round_cap_abort():
    report = balanced_lb_drive(Replay([2] * 20), 2, 10**6, 10, 20)  # never machine 1
    assert report.note == "unbounded-evidence: round exceeded cap of 20 jobs"
    assert report.n == 20
    assert report.alg_makespan == 1.111111111111111e19  # 1 + 10 + ... + 10**19, folded


def test_balanced_lb_capacity_exhausted_exit():
    # m = k = 2: every job is placed on machine 2; jobs 2 and 4 move the job
    # before them onto machine 1, so no round ever ends and capacity runs out
    decisions = [2, (2, ((1, 2, 1),)), 2, (2, ((3, 2, 1),))]
    # sizes 1, 2, 4, 8: machine 1 ends with jobs 1 and 3 (load 5), machine 2 with 2 and 4
    report = balanced_lb_drive(Replay(decisions), 2, 2, 2, 10)
    assert report.note == "unbounded-evidence: scheduler capacity exhausted before k rounds"
    assert report.n == 4
    assert list(report.sizes) == [1.0, 2.0, 4.0, 8.0]
    assert report.alg_makespan == 10.0
    assert report.opt_value == 10.0  # sorted round robin: 8 + 2 and 4 + 1
    check_report(report)


def test_balanced_lb_capacity_note_wins_when_the_powers_run_out_with_it():
    # the moves of test_balanced_lb_capacity_exhausted_exit; round_cap = 4: the
    # fourth job uses the last power and the last slot of m*k = 4
    decisions = [2, (2, ((1, 2, 1),)), 2, (2, ((3, 2, 1),))]
    report = balanced_lb_drive(Replay(decisions), 2, 2, 2, 4)
    assert report.note == "unbounded-evidence: scheduler capacity exhausted before k rounds"
    assert list(report.sizes) == [1.0, 2.0, 4.0, 8.0]
    # one power fewer ends the round first
    report = balanced_lb_drive(Replay(decisions), 2, 2, 2, 3)
    assert report.note == "unbounded-evidence: round exceeded cap of 3 jobs"
    assert list(report.sizes) == [1.0, 2.0, 4.0]


def test_balanced_lb_preconditions():
    with pytest.raises(ValueError):
        balanced_lb_drive(RoundRobinScheduler(2, 2), 2, 2, 1, 10)
    with pytest.raises(ValueError):
        balanced_lb_drive(RoundRobinScheduler(2, 2), 2, 2, 10, 0)


def test_phi_lb_colocation_branch():
    report = phi_lb_drive(Replay([1, 1, 2, 2]), 100.0)  # jobs 1 and 2 share machine 1
    assert report.alg_makespan == 2 * 100.0**2
    assert report.opt_value == 100.0 + 100.0**2
    assert report.ratio == pytest.approx(2 * 100**2 / (100 + 100**2), rel=1e-12)
    check_report(report)


def test_phi_lb_branch_with_big_job():
    # round robin separates jobs 1,2 then puts job 3 with the size-M job
    M = 1000.0
    report = phi_lb_drive(RoundRobinScheduler(2, 2), M)
    assert report.opt_value == M + 1.0
    assert report.ratio == pytest.approx(PHI / (1 + 1 / M), rel=1e-9)
    assert report.ratio >= 1.616


def test_phi_lb_branch_with_small_job():
    # greedy puts job 3 on the lightly loaded machine (with the size-1 job)
    M = 1000.0
    report = phi_lb_drive(ListSchedulingCapped(2, 2), M)
    assert report.opt_value == PHI * M + 1.0
    assert report.ratio == pytest.approx(PHI**2 / (PHI + 1 / M), rel=1e-9)
    assert report.ratio >= 1.616


def test_phi_lb_against_builtin_pure_online():
    for factory in (
        lambda: RoundRobinScheduler(2, 2),
        lambda: ListSchedulingCapped(2, 2),
        PhiScheduler,
        lambda: ConstantCompetitiveScheduler(2, 2),
    ):
        report = phi_lb_drive(factory(), 1e4)
        assert report.ratio >= PHI - 0.01
        check_report(report)


def test_phi_lb_analytic_optima_match_oracle():
    M = 50.0
    for factory in (lambda: RoundRobinScheduler(2, 2), lambda: ListSchedulingCapped(2, 2), lambda: Replay([1, 1, 2, 2])):
        report = phi_lb_drive(factory(), M)
        inst = instance_from_sizes(list(report.sizes), 2, 2)
        opt = exact_opt(inst).opt_makespan
        assert opt <= report.opt_value <= opt * 1.000001


def test_phi_lb_m_precondition():
    with pytest.raises(ValueError, match="too small"):
        phi_lb_drive(RoundRobinScheduler(2, 2), 2.0)
    # M*M overflows to inf on both sides of the size test: M is too large, not too small
    for M in (1e200, -1e200, math.inf, math.nan):
        with pytest.raises(ValueError, match="M\\*M = (inf|nan) is not finite"):
            phi_lb_drive(RoundRobinScheduler(2, 2), M)
    # a non-positive M passes the size test; it is refused by name, not as a job size
    for M in (-10.0, -0.001, 0.0, -0.0):
        with pytest.raises(ValueError, match=f"^M={re.escape(str(M))} must be > 0$"):
            phi_lb_drive(RoundRobinScheduler(2, 2), M)


def test_robust_lb_x_definition():
    X = ROBUST_LB_X
    assert abs((18 + (X - 9) / 2) / (X + 6) - (X + 6) / 18) < 1e-12
    assert X == pytest.approx(12.965476, abs=1e-6)


def test_robust_lb_non_canonical_branch():
    report = robust_lb_drive(RoundRobinScheduler(3, 8), 3, 8)
    assert report.note == "non-canonical after part 1"
    assert report.opt_value == 18.0
    assert report.alg_makespan >= ROBUST_LB_X + 6 - 1e-9
    assert report.ratio >= (ROBUST_LB_X + 6) / 18 - 1e-9


class _CanonicalScheduler(Scheduler):
    """Plays part 1 into the canonical layout, then greedily fills slots."""

    def __init__(self, m, k):
        self.m, self.k = m, k
        self._i = 0
        self._counts = [0] * m
        self._loads = [0.0] * m

    def on_arrival(self, size):
        self._i += 1
        if self._i <= 3:
            machine = 1
        elif self._i <= 5:
            machine = 2
        elif size == ROBUST_LB_X:
            machine = self._i - 3
        else:
            best = min(
                (mi for mi in range(self.m) if self._counts[mi] < self.k),
                key=lambda mi: (self._loads[mi], mi),
            )
            machine = best + 1
        self._counts[machine - 1] += 1
        self._loads[machine - 1] += size
        return machine


def test_robust_lb_canonical_branch_pigeonhole():
    m, k = 3, 8
    report = robust_lb_drive(_CanonicalScheduler(m, k), m, k)
    assert report.note == "canonical after part 1"
    assert report.opt_value == ROBUST_LB_X + 6.0
    # one of the machines 1,2 exceeds 18 + (X-9)/2 by pigeonhole
    assert report.alg_makespan >= 18 + (ROBUST_LB_X - 9) / 2 - 1e-9
    assert report.ratio >= (ROBUST_LB_X + 6) / 18 - 1e-9


def test_robust_lb_vs_robust_scheduler():
    report = robust_lb_drive(RobustOrdinalScheduler(3, 64, 1.0), 3, 64)
    assert report.ratio >= 1.05


def test_robust_lb_part1_analytic_opt_matches_oracle():
    # the non-canonical branch stops after m+3 = 6 jobs: within oracle reach
    report = robust_lb_drive(RoundRobinScheduler(3, 8), 3, 8)
    inst = instance_from_sizes(list(report.sizes), 3, 8)
    opt = exact_opt(inst).opt_makespan
    assert opt <= report.opt_value <= opt * 1.000001


def test_robust_lb_preconditions():
    with pytest.raises(ValueError):
        robust_lb_drive(RoundRobinScheduler(2, 8), 2, 8)
    with pytest.raises(ValueError):
        robust_lb_drive(RoundRobinScheduler(3, 7), 3, 7)
    with pytest.raises(ValueError):
        robust_lb_drive(RoundRobinScheduler(3, 6), 3, 6)


def test_reports_opt_above_cheap_lower_bound():
    reports = [
        pure_lb_drive(RoundRobinScheduler(4, 4), 4, 4, 4),
        balanced_lb_drive(RoundRobinScheduler(2, 20), 2, 20, 10, 50),
        phi_lb_drive(PhiScheduler(), 1e4),
        robust_lb_drive(RoundRobinScheduler(3, 8), 3, 8),
    ]
    for report in reports:
        inst_lb = lower_bound(report.sizes, report.m)
        assert report.opt_value >= inst_lb - 1e-9
        assert report.ratio == pytest.approx(
            report.alg_makespan / report.opt_value, rel=1e-12
        )


def test_transcript_replays_to_same_makespan():
    report = pure_lb_drive(ListSchedulingCapped(4, 4), 4, 4, 4)
    loads = [0.0] * report.m
    for size, machine in report.transcript:
        loads[machine - 1] += size
    assert max(loads) == report.alg_makespan
