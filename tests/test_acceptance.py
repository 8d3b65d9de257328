"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`.  Tolerances are pinned
inline; runtime budgets are asserted against wall-clock time.
"""

import itertools
import math
import random
import time

from cardsched.adversaries import (
    ROBUST_LB_X,
    balanced_lb_drive,
    phi_lb_drive,
    pure_lb_drive,
    robust_lb_drive,
)
from cardsched.clcs import (
    GreedyClcsScheduler,
    identical_lb_report,
    run_classed_stream,
    uniform_lb_drive,
)
from cardsched.constant import ConstantCompetitiveScheduler
from cardsched.engine import (
    PHI,
    ListSchedulingCapped,
    PhiScheduler,
    RoundRobinScheduler,
    StreamRunner,
    run_stream,
)
from cardsched.model import check_feasible, instance_from_sizes
from cardsched.oracle import exact_opt, opt_makespan
from cardsched.ordinal import borders, ordinal_map, ordinal_schedule
from cardsched.robust import RobustOrdinalScheduler
from cardsched.model import makespan as schedule_makespan
from reference_scans import (
    brute_opt,
    certify_load_bound,
    check_invariants,
    clcs_exact,
    iota,
    positions,
    wide_rounds,
)

RATE_81_41 = 81.0 / 41.0


def _verdict(num: int, name: str, failures: list, elapsed: float, budget: float):
    ok = not failures and elapsed < budget
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance {num}] {name}: {status} ({elapsed:.1f}s of {budget:.0f}s budget)")
    detail = failures[:5] if failures else (f"over budget: {elapsed:.1f}s" if elapsed >= budget else "")
    assert ok, f"criterion {num} ({name}): {detail}"


def test_criterion_1_oracle_equivalence():
    started = time.perf_counter()
    failures = []
    values = (1.0, 2.0, 3.0, 5.0)
    for n in range(1, 7):
        pairs = [(m, k) for m in (1, 2, 3) for k in (1, 2, 3) if n <= m * k]
        for sizes in itertools.product(values, repeat=n):
            for m, k in pairs:
                inst = instance_from_sizes(sizes, m, k)
                exact = exact_opt(inst).opt_makespan
                brute = brute_opt(inst)
                if exact != brute:
                    failures.append((sizes, m, k, exact, brute))
    rng = random.Random(2024)
    for _ in range(500):
        m = rng.randint(1, 3)
        k = rng.randint(1, 4)
        n = rng.randint(1, min(8, m * k))
        sizes = [rng.randint(0, 512) / 16.0 for _ in range(n)]  # dyadics: order-free sums
        inst = instance_from_sizes(sizes, m, k)
        exact = exact_opt(inst).opt_makespan
        brute = brute_opt(inst)
        if exact != brute:
            failures.append((sizes, m, k, exact, brute))
    _verdict(1, "oracle equivalence exact==brute", failures, time.perf_counter() - started, 60.0)


def test_criterion_2_pure_lower_bound():
    started = time.perf_counter()
    failures = []
    report = pure_lb_drive(ListSchedulingCapped(10, 10), 10, 10, 10)
    if report.ratio != 1.9:
        failures.append(("greedy m=k=10", report.ratio))
    # phi is pinned to m=k=2 and 4 arrivals, so the parametric sweeps cover
    # the other three pure-online schedulers; phi is held to the bound at its
    # only valid size
    factories = {
        "round-robin": RoundRobinScheduler,
        "greedy-capped": ListSchedulingCapped,
        "constant": ConstantCompetitiveScheduler,
    }
    for mk in (4, 6, 10):
        for name, factory in factories.items():
            rep = pure_lb_drive(factory(mk, mk), mk, mk, mk)
            if rep.ratio < 2 - 1 / mk - 1e-9:
                failures.append((name, mk, rep.ratio))
    rep = pure_lb_drive(PhiScheduler(), 2, 2, 2)
    if rep.ratio < 1.5 - 1e-9:
        failures.append(("phi", 2, rep.ratio))
    _verdict(2, "pure lower bound 2 - 1/k", failures, time.perf_counter() - started, 30.0)


def test_criterion_3_balanced_lower_bound():
    started = time.perf_counter()
    failures = []
    k = 10**6
    report = balanced_lb_drive(RoundRobinScheduler(3, k), 3, k, 10, 100)
    if report.note is not None:
        failures.append(report.note)
    if report.ratio < 2.0:
        failures.append(("ratio", report.ratio))
    _verdict(3, "balanced lower bound vs round-robin", failures, time.perf_counter() - started, 30.0)


def test_criterion_4_constant_competitive_guarantee():
    started = time.perf_counter()
    failures = []
    combos = [(m, k) for m in (2, 4, 8) for k in (50, 64, 128)]
    rng = random.Random(7)
    for stream_idx in range(1000):
        m, k = combos[stream_idx % len(combos)]
        n = m * k
        sizes = [2.0 ** rng.uniform(-10.0, 10.0) for _ in range(n)]
        scheduler = ConstantCompetitiveScheduler(m, k)
        runner = StreamRunner(scheduler, m, k)
        try:
            for s in sizes:
                runner.push(s)  # raises ContractViolation on any infeasibility
                check_invariants(scheduler)
        except Exception as exc:  # noqa: BLE001 - collect, report, fail loudly
            failures.append((stream_idx, m, k, repr(exc)))
            continue
        trace = runner.trace
        bound = 120.0 * max(max(sizes), sum(sizes) / m)
        if trace.final_makespan() > bound:
            failures.append((stream_idx, m, k, "makespan bound", trace.final_makespan(), bound))
        cert = certify_load_bound(trace)
        if cert:
            failures.append((stream_idx, m, k, cert[0]))
    _verdict(4, "constant-competitive guarantee", failures, time.perf_counter() - started, 120.0)


def test_criterion_5_ordinal_rate():
    started = time.perf_counter()
    failures = []
    rng = random.Random(515)
    combos = [(m, k) for m in range(2, 7) for k in range(3, 7) if m * k <= 20]
    for m, k in combos:
        for _ in range(500):
            n = rng.randint(1, m * k)
            sizes = [float(rng.randint(0, 100)) for _ in range(n)]
            inst = instance_from_sizes(sizes, m, k)
            schedule = ordinal_schedule(inst)
            if check_feasible(schedule, inst):
                failures.append((m, k, sizes, "infeasible"))
                continue
            opt = opt_makespan(inst)
            alg = schedule_makespan(schedule, inst)
            if alg > RATE_81_41 * opt + 1e-9:
                failures.append((m, k, sizes, alg, opt))
    # k = 2 is exactly optimal
    for m in range(2, 7):
        for _ in range(500):
            n = rng.randint(1, 2 * m)
            sizes = [float(rng.randint(0, 100)) for _ in range(n)]
            inst = instance_from_sizes(sizes, m, 2)
            alg = schedule_makespan(ordinal_schedule(inst), inst)
            opt = opt_makespan(inst)
            if alg != opt:
                failures.append((m, 2, sizes, alg, opt))
    _verdict(5, "ordinal rate 81/41 and k=2 optimality", failures, time.perf_counter() - started, 180.0)


def test_criterion_6_phase_counts_and_parity():
    started = time.perf_counter()
    failures = []
    for m in (8, 16, 32):
        for k in range(3, 201):
            counts = wide_rounds(ordinal_map(m, k), m)
            if sorted(counts) != list(range(2, len(borders(m)))):
                failures.append((m, k, "phases", sorted(counts)))
            for s, count in counts.items():
                if count != iota(s, k):
                    failures.append((m, k, s, count, iota(s, k)))
                even = ((k - 1) - iota(s, k)) % 2 == 0
                expected_even = (k - 1) % 3 == 0 or ((k - 1) % 3 == 1 and s % 2 == 0)
                if even != expected_even:
                    failures.append((m, k, s, "parity"))
    _verdict(6, "per-phase count identity and parity", failures, time.perf_counter() - started, 10.0)


def test_criterion_7_robust_wrapper():
    started = time.perf_counter()
    failures = []
    rng = random.Random(77)
    for eps in (1.0, 0.5, 0.25):
        budget_factor = (1 + eps) / eps
        for _ in range(100):
            m = rng.choice([2, 3, 4])
            n = rng.randint(1, 16)
            k = max(-(-n // m), rng.randint(1, 5))
            sizes = [rng.uniform(0.05, 80.0) for _ in range(n)]
            scheduler = RobustOrdinalScheduler(m, k, eps)
            runner = StreamRunner(scheduler, m, k)
            prev_positions = {}
            ok = True
            for s in sizes:
                runner.push(s)
                rec = runner.trace.records[-1]
                if rec.migration.moved_size > budget_factor * rec.size + 1e-9:
                    failures.append((eps, m, k, "migration factor", rec.migration.moved_size, rec.size))
                    ok = False
                    break
                now = positions(scheduler)
                moved = {job for job, _, _ in rec.migration.moves}
                stable = {j for j in prev_positions if now[j] == prev_positions[j]}
                if not moved.isdisjoint(stable):
                    failures.append((eps, m, k, "position stability"))
                    ok = False
                    break
                prev_positions = now
            if not ok:
                continue
            trace = runner.trace
            opt = exact_opt(instance_from_sizes(trace.sizes, trace.m, trace.k)).opt_makespan
            if trace.final_makespan() > (1 + eps) * RATE_81_41 * opt + 1e-9:
                failures.append((eps, m, k, sizes, trace.final_makespan(), opt))
    _verdict(7, "robust wrapper migration and rate", failures, time.perf_counter() - started, 60.0)


def test_criterion_8_phi_case():
    started = time.perf_counter()
    failures = []
    for sizes in itertools.product(range(7), repeat=4):
        trace = run_stream(PhiScheduler(), [float(s) for s in sizes], 2, 2)
        opt = exact_opt(instance_from_sizes(trace.sizes, trace.m, trace.k)).opt_makespan
        if trace.final_makespan() > PHI * opt + 1e-9:
            failures.append((sizes, trace.final_makespan(), opt))
    for name, factory in (
        ("round-robin", lambda: RoundRobinScheduler(2, 2)),
        ("greedy-capped", lambda: ListSchedulingCapped(2, 2)),
        ("phi", PhiScheduler),
        ("constant", lambda: ConstantCompetitiveScheduler(2, 2)),
    ):
        report = phi_lb_drive(factory(), 1e4)
        if report.ratio < 1.61:
            failures.append((name, report.ratio))
    _verdict(8, "phi upper and lower bounds (m=k=2)", failures, time.perf_counter() - started, 30.0)


def test_criterion_9_robust_lower_bound():
    started = time.perf_counter()
    failures = []
    X = ROBUST_LB_X
    if abs((18 + (X - 9) / 2) / (X + 6) - (X + 6) / 18) >= 1e-12:
        failures.append("X fixed-point identity")
    if abs(X - (-3 + math.sqrt(837)) / 2) != 0:
        failures.append("X closed form")
    report = robust_lb_drive(RobustOrdinalScheduler(3, 64, 1.0), 3, 64)
    if report.ratio < 1.05:
        failures.append(("ratio", report.ratio))
    _verdict(9, "robust lower bound (X+6)/18", failures, time.perf_counter() - started, 5.0)


def test_criterion_10_clcs():
    started = time.perf_counter()
    failures = []
    for m in range(2, 7):
        report = identical_lb_report(GreedyClcsScheduler(m, 1), m, 1)
        if report.ratio != float(m):
            failures.append(("identical-lb", m, report.ratio))
    rng = random.Random(1010)
    for _ in range(200):
        m = rng.randint(2, 3)
        k = rng.randint(1, 3)
        n = rng.randint(1, 8)
        jobs = [(rng.uniform(0.5, 9.0), rng.randint(1, m * k)) for _ in range(n)]
        drive = run_classed_stream(GreedyClcsScheduler(m, k), jobs, m, k)
        opt = clcs_exact(jobs, m, k)
        if max(drive.loads) > m * opt + 1e-9:
            failures.append(("greedy vs m*opt", m, k, jobs))
    report = uniform_lb_drive(GreedyClcsScheduler(3, 2), 3, 2, 2.0, 1.0, 0.01, 200)
    if report.ratio < 3.6:
        failures.append(("uniform-lb", report.ratio))
    _verdict(10, "class-constrained bounds", failures, time.perf_counter() - started, 60.0)
