"""Differential tests: the indexed runner and schedulers against the plain scans.

Every stream is replayed through the reference in tests/reference_scans.py
and through the library; machines, moves, moved sizes, per-arrival makespans,
the final schedule and final loads must agree bit for bit, and contract
violations must name the same arrival and machine.  The baselines, the
constant scheduler, robust-ordinal and (through the classed reference)
greedy ClCS also replay with the same scheduler on both sides, so the
runner's sums and checks are compared on the library's own decisions.  The
exact oracle must return the former branch-and-bound's optimum and schedule,
explore no more nodes, and explore the same nodes whenever its early exit at
the lower bound cannot fire; with the reference stopping at the lower bound
too, the two searches must agree node for node.  The value-only oracle that
metering calls, which exits on the integer grid, must return exact_opt's
optimum bit for bit.
"""

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from cardsched.clcs import GreedyClcsScheduler, clcs_makespan
from cardsched.cli import generate_sizes
from cardsched.constant import ConstantCompetitiveScheduler, _floor_2log2
from cardsched.engine import (
    ContractViolation,
    ListSchedulingCapped,
    PhiScheduler,
    RoundRobinScheduler,
    Scheduler,
    StreamRunner,
)
from cardsched.model import (
    GeometricClasses,
    InfeasibleError,
    instance_from_sizes,
    loads,
    power,
)
from cardsched.oracle import branch_and_bound, exact_opt, exit_target, lower_bound, opt_makespan
from cardsched.robust import RobustOrdinalScheduler
from reference_scans import (
    RefConstantScheduler,
    RefGreedyClcs,
    RefListSchedulingCapped,
    RefRobustOrdinal,
    RefStreamRunner,
    Replay,
    check_invariants,
    positions,
    ref_exact_opt,
    ref_round_up_geometric,
)


def _replay(scheduler, ref_scheduler, jobs, m, k, classed=False):
    """Push jobs (sizes, or (size, class) pairs if `classed`) through both runners;
    returns (new runner, ref runner, error pair)."""
    runner = StreamRunner(scheduler, m, k, classed)
    ref = RefStreamRunner(ref_scheduler, m, k, classed)
    errors = [None, None]
    for s in jobs:
        for idx, r in enumerate((runner, ref)):
            try:
                r.push(s)
            except ContractViolation as exc:
                errors[idx] = (exc.arrival, str(exc))
        if errors != [None, None]:
            break
    return runner, ref, errors


def _assert_same(runner, ref):
    records = runner.trace.records
    assert len(records) == len(ref.records)
    for got, want in zip(records, ref.records):
        assert got.job == want.job
        assert got.machine == want.machine
        assert got.migration.moves == want.moves
        assert repr(got.migration.moved_size) == repr(want.moved_size)
        assert repr(got.makespan) == repr(want.makespan)
    assert runner.trace.final_schedule() == ref.assignment
    if ref.records:
        assert [repr(x) for x in runner.trace.loads] == [repr(x) for x in ref.records[-1].loads]
        trace = runner.trace
        instance = instance_from_sizes(trace.sizes, trace.m, trace.n)  # a classed run may pass m*k
        assert trace.loads == loads(trace.final_schedule(), instance)


def _stream(draw_sizes, m, k):
    return draw_sizes[: m * k]


sizes_st = st.lists(
    st.one_of(
        st.just(0.0), st.floats(min_value=0.0, max_value=1e6), st.sampled_from([0.1, 0.2, 0.3])
    ),
    min_size=1,
    max_size=40,
)


@given(sizes_st, st.integers(1, 6), st.integers(1, 6))
@settings(max_examples=150, deadline=None)
def test_greedy_capped_matches_scan(sizes, m, k):
    sizes = _stream(sizes, m, k)
    runner, ref, errors = _replay(
        ListSchedulingCapped(m, k), RefListSchedulingCapped(m, k), sizes, m, k
    )
    assert errors == [None, None]
    _assert_same(runner, ref)


def test_greedy_capped_exhausted_raises_like_scan():
    for cls in (ListSchedulingCapped, RefListSchedulingCapped):
        sched = cls(2, 1)
        assert [sched.on_arrival(1.0) for _ in range(2)] == [1, 2]
        with pytest.raises(Exception) as err:
            sched.on_arrival(1.0)
        assert str(err.value) == "greedy-capped: all machines hold k jobs"


@given(sizes_st, st.integers(1, 6), st.integers(1, 6))
@settings(max_examples=60, deadline=None)
def test_round_robin_runner_matches_scan(sizes, m, k):
    sizes = _stream(sizes, m, k)
    runner, ref, errors = _replay(
        RoundRobinScheduler(m, k), RoundRobinScheduler(m, k), sizes, m, k
    )
    assert errors == [None, None]
    _assert_same(runner, ref)


_robust_size = st.floats(min_value=1e-3, max_value=1e3)


@given(
    st.one_of(
        st.lists(_robust_size, min_size=1, max_size=40),
        # zero-heavy: a zero joins a class below every exponent
        st.lists(st.one_of(st.just(0.0), _robust_size), min_size=1, max_size=40),
    ),
    st.integers(1, 5),
    st.integers(1, 8),
    st.sampled_from([0.1, 0.5, 1.0]),
)
@settings(max_examples=160, deadline=None)
def test_robust_ordinal_runner_matches_scan(sizes, m, k, eps):
    sizes = _stream(sizes, m, k)
    runner, ref, errors = _replay(
        RobustOrdinalScheduler(m, k, eps), RefRobustOrdinal(m, k, eps), sizes, m, k
    )
    assert errors == [None, None]
    _assert_same(runner, ref)


@pytest.mark.parametrize("eps", [0.1, 0.5])
def test_robust_ordinal_long_stream_matches_position_maps(eps):
    # many size classes held at once, which the short hypothesis streams never reach
    rng = random.Random(7)
    sizes = [2.0 ** rng.uniform(-10.0, 10.0) for _ in range(2000)]
    fast, ref = RobustOrdinalScheduler(100, 100, eps), RefRobustOrdinal(100, 100, eps)
    for s in sizes:
        got, want = fast.on_arrival(s), ref.on_arrival(s)
        assert got == want
    assert positions(fast) == ref.positions()


_geometric_eps = st.one_of(
    st.sampled_from([1e-9, 0.01, 0.5, 1.0, 3.0]), st.floats(min_value=1e-9, max_value=100.0)
)
# a size is exp(x * L) for x in [-1, 1], as drawn or snapped to the nearest
# power of (1+eps), which then arrives with its float neighbours: above (the
# next class up), the power itself, below.  L reaches the ends of the float
# range (subnormals included) for large eps; for small eps it keeps
# |exponent| <= 2**20, since the lifted powers' error grows with the
# exponent and the reference's correction walk steps one class at a time
_geometric_size = st.tuples(st.floats(min_value=-1.0, max_value=1.0), st.booleans())


@given(_geometric_eps, st.lists(_geometric_size, min_size=1, max_size=30))
@settings(max_examples=200, deadline=None)
def test_geometric_classes_match_reference(eps, draws):
    classes = GeometricClasses(eps)  # one object for the whole draw, so its classes are reused
    base, reach = 1.0 + eps, min(709.78, 2**20 * math.log1p(eps))
    sizes = []
    for x, snap in draws:
        size = math.exp(x * reach)
        if snap:
            near = power(base, round(math.log(size) / math.log(base)))
            sizes += [math.nextafter(near, math.inf), near, math.nextafter(near, 0.0)]
        else:
            sizes.append(size)
    sizes = [size for size in sizes if 0.0 < size < math.inf]
    for size in sizes + sizes:  # the second pass meets only known classes
        want = ref_round_up_geometric(size, eps)
        assert GeometricClasses(eps).exponent(size) == want[1]  # a new class
        e = classes.exponent(size)
        assert (power(base, e), e) == want


class _RandomMigrator(Scheduler):
    """Seeded scheduler that moves up to three placed jobs per arrival.

    With `cheat` it ignores the cap and may name stale sources, the trigger
    job or bad destinations, so the runner's contract checks fire.
    """

    def __init__(self, m, k, seed, cheat=False):
        self.m, self.k = m, k
        self._rng = random.Random(seed)
        self._cheat = cheat
        self._where: dict[int, int] = {}
        self._counts = [0] * (m + 2)

    def _pick(self, exclude=None):
        if self._cheat:
            return self._rng.randint(1, self.m + 1)  # m + 1 is out of range
        opts = [mi for mi in range(1, self.m + 1) if self._counts[mi] < self.k and mi != exclude]
        return self._rng.choice(opts) if opts else None

    def _put(self, job, machine):
        if job in self._where:
            self._counts[self._where[job]] -= 1
        self._where[job] = machine
        self._counts[machine] += 1

    def on_arrival(self, size):
        rng = self._rng
        jid = len(self._where) + 1
        moves = []
        for _ in range(rng.randint(0, 3)):
            if not self._where:
                break
            job = rng.choice(sorted(self._where))
            src = self._where[job]
            if self._cheat and rng.random() < 0.1:
                job, src = rng.choice((job, jid)), rng.randint(1, self.m)
            dst = self._pick(exclude=src)
            if dst is None:
                continue
            moves.append((job, src, dst))
            if job != jid:
                self._put(job, dst)
        machine = self._pick()
        self._put(jid, machine)
        return machine, tuple(moves)


@given(
    st.lists(st.floats(min_value=0.0, max_value=100.0), min_size=1, max_size=40),
    st.integers(1, 5),
    st.integers(1, 6),
    st.integers(0, 2**32),
    st.booleans(),
)
@settings(max_examples=200, deadline=None)
def test_migrating_runner_matches_scan(sizes, m, k, seed, cheat):
    sizes = _stream(sizes, m, k)
    runner, ref, errors = _replay(
        _RandomMigrator(m, k, seed, cheat), _RandomMigrator(m, k, seed, cheat), sizes, m, k
    )
    assert errors[0] == errors[1]
    if errors[0] is None:
        _assert_same(runner, ref)


def _assert_job_lists_ascending(runner):
    """The runner's per-machine job lists, once built, hold each machine's jobs in id order:
    every machine of the final schedule has its list, and no other list holds a job."""
    if runner._jobs is None:
        return
    held = {}
    for job, machine in sorted(runner.trace.final_schedule().items()):
        held.setdefault(machine, []).append(job)
    assert {mi: ids for mi, ids in runner._jobs.items() if ids} == held


@given(
    st.lists(
        st.one_of(st.floats(min_value=0.0, max_value=1e6), st.sampled_from([0.1, 0.3, 0.7])),
        min_size=1,
        max_size=80,
    ),
    st.integers(1, 6),
    st.integers(1, 12),
    st.integers(0, 2**32),
)
@settings(max_examples=100, deadline=None)
def test_migrating_runner_matches_scan_on_long_machines(sizes, m, k, seed):
    # up to 12 jobs per machine, so the ascending lists take many bisections
    sizes = _stream(sizes, m, k)
    runner, ref, errors = _replay(
        _RandomMigrator(m, k, seed), _RandomMigrator(m, k, seed), sizes, m, k
    )
    assert errors == [None, None]
    _assert_same(runner, ref)
    _assert_job_lists_ascending(runner)


def test_scripted_moves_match_scan():
    # m = 3, k = 4: arrival 6 moves job 1 twice, ending on the arriving job's
    # machine, and job 4 there too; arrival 8 moves job 1 back below job 7, and
    # job 6 off the machine it arrived on
    decisions = [1, 2, 3, 1, 2, (3, ((1, 1, 2), (1, 2, 3), (4, 1, 3)))]
    decisions += [1, (2, ((1, 3, 1), (6, 3, 2), (2, 2, 3)))]
    sizes = [0.1, 0.2, 0.3, 0.7, 1.1, 1.3, 0.6, 0.9]
    runner, ref, errors = _replay(Replay(decisions), Replay(decisions), sizes, 3, 4)
    assert errors == [None, None]
    _assert_same(runner, ref)
    _assert_job_lists_ascending(runner)
    assert runner._jobs == {1: [1, 7], 2: [5, 6, 8], 3: [2, 3, 4]}


def test_makespan_falls_when_its_machine_loses_a_job():
    # m = 3, k = 4
    cases = [
        # arrival 5 moves job 4 off machine 1, which held the makespan, so the makespan
        # falls to untouched machine 3's load; arrival 8 moves jobs off no makespan machine
        (
            [1, 2, 3, 1, (2, ((4, 1, 2),)), 1, (1, ((1, 1, 3),)), (2, ((2, 2, 1),))],
            [5.0, 3.0, 8.0, 4.0, 0.5, 1.0, 0.25, 0.1],
            [5.0, 5.0, 8.0, 9.0, 8.0, 8.0, 13.0, 13.0],
        ),
        # machines 1 and 2 both hold the makespan 5; arrival 4 moves job 3 off machine 1:
        # every touched load falls below the makespan, which untouched machine 2 ties
        ([1, 2, 1, (3, ((3, 1, 3),))], [3.0, 5.0, 2.0, 0.5], [3.0, 5.0, 5.0, 5.0]),
        # arrival 4 moves job 1 off makespan machine 1 onto machine 2, whose load rises
        # past the old makespan
        ([1, 2, 1, (3, ((1, 1, 2),))], [5.0, 4.0, 1.0, 0.5], [5.0, 5.0, 6.0, 9.0]),
    ]
    for decisions, sizes, makespans in cases:
        runner, ref, errors = _replay(Replay(decisions), Replay(decisions), sizes, 3, 4)
        assert errors == [None, None]
        _assert_same(runner, ref)
        assert list(runner.trace.makespans) == makespans
        whole = StreamRunner(Replay(decisions), 3, 4)
        whole.feed(sizes)  # one feed call: the running makespan never leaves its local
        assert whole.trace.makespans == runner.trace.makespans


def test_cap_violation_names_lowest_touched_machine():
    # job 4 lands on machine 2 while job 1 moves onto machine 3: both over the cap
    decisions = [1, 2, 3, (2, ((1, 1, 3),))]
    for runner_cls in (StreamRunner, RefStreamRunner):
        runner = runner_cls(Replay(decisions), 4, 1)
        for s in (1.0, 2.0, 3.0):
            runner.push(s)
        with pytest.raises(ContractViolation, match="arrival 4: machine 2 holds 2 jobs"):
            runner.push(4.0)


def _constant_sizes(rng: random.Random, n: int) -> list[float]:
    """Loguniform, rising-maximum, or focused on one deep group (reaches case 2)."""
    shape = rng.choice(("spread", "rising", "focused"))
    if shape == "focused":
        g = rng.randint(10, 13)
        return [1.0] + [
            2.0**-g * rng.uniform(1, 2) if rng.random() < 0.8 else 2 ** rng.uniform(-20, 0)
            for _ in range(n - 1)
        ]
    spread = rng.choice((1, 4, 16, 40))
    trend = 0.05 if shape == "rising" else 0.0
    return [2 ** (rng.uniform(-spread, spread) + trend * i) for i in range(n)]


def _with_zeros(rng: random.Random, sizes: list[float], share: float) -> list[float]:
    """Each size replaced by a zero, a small job that sets no p_max, with chance `share`."""
    return [0.0 if rng.random() < share else s for s in sizes]


_zeros = st.sampled_from([0.0, 0.0, 0.3, 1.0])  # no zeros in half the draws


def _replay_constant(m, k, sizes, checked=False):
    """Replay through both runners; optionally check the structure after every arrival.

    The check runs check_invariants and holds each machine's bucket in the
    shared (count, machine) order (0 for an untouched machine) to the
    reference's count of its jobs, and the slots to the reference's.
    """
    if checked:
        scheduler = ConstantCompetitiveScheduler(m, k)
        runner = StreamRunner(scheduler, m, k)
        ref = RefStreamRunner(RefConstantScheduler(m, k), m, k)
        for s in sizes:
            runner.push(s)
            ref.push(s)
            check_invariants(scheduler)
            bucket_of = {mi: c for c, b in enumerate(scheduler._buckets) for mi in b}
            bucket_of |= dict.fromkeys(range(scheduler._next_fresh, m), 0)  # untouched
            assert bucket_of == dict(enumerate(ref.scheduler.counts))
            assert scheduler.structure_snapshot() == ref.scheduler.structure_snapshot()
    else:
        runner, ref, errors = _replay(
            ConstantCompetitiveScheduler(m, k), RefConstantScheduler(m, k), sizes, m, k
        )
        assert errors == [None, None]
    _assert_same(runner, ref)
    assert runner.scheduler.structure_snapshot() == ref.scheduler.structure_snapshot()
    return runner.scheduler


def _decide_constant(m, k, sizes):
    """Scheduler decisions alone (no runner), for streams too long for the reference runner."""
    scheduler, ref = ConstantCompetitiveScheduler(m, k), RefConstantScheduler(m, k)
    for s in sizes:
        assert scheduler.on_arrival(s) == ref.on_arrival(s)
    assert scheduler.structure_snapshot() == ref.structure_snapshot()
    return scheduler


@given(st.integers(1, 4), st.integers(50, 90), st.integers(0, 2**32), st.floats(0.1, 1.0), _zeros)
@settings(max_examples=40, deadline=None)
def test_constant_placement_matches_scan(m, k, seed, fill, zeros):
    rng = random.Random(seed)
    sizes = _constant_sizes(rng, max(1, int(fill * m * k)))
    _replay_constant(m, k, _with_zeros(rng, sizes, zeros))


@given(st.integers(1, 30), st.integers(1, 49), st.integers(0, 2**32), st.floats(0.05, 1.0), _zeros)
@settings(max_examples=40, deadline=None)
def test_constant_fallback_matches_scan(m, k, seed, fill, zeros):
    rng = random.Random(seed)
    sizes = _constant_sizes(rng, max(1, int(fill * m * k)))
    scheduler = _replay_constant(m, k, _with_zeros(rng, sizes, zeros))
    assert scheduler.fallback


@given(st.integers(5, 30), st.integers(50, 90), st.integers(0, 2**32), st.floats(0.3, 1.0), _zeros)
@settings(max_examples=30, deadline=None)
def test_constant_wide_rows_match_scan(m, k, seed, fill, zeros):
    rng = random.Random(seed)
    sizes = _constant_sizes(rng, max(1, int(fill * m * k)))
    _replay_constant(m, k, _with_zeros(rng, sizes, zeros))


def test_constant_invariants_hold_after_every_live_and_terminal_arrival():
    modes = set()
    for seed in range(6):
        rng = random.Random(seed)
        m, k = rng.randint(2, 8), rng.randint(55, 70)
        fill = 1.0 if seed % 2 else 0.1
        sizes = _constant_sizes(rng, int(fill * m * k))
        for stream in (sizes, _with_zeros(rng, sizes, 0.5)):
            scheduler = _replay_constant(m, k, stream, checked=True)
            modes.add(("terminal" if scheduler.terminal else "live", 0.0 in stream))
    assert modes == {(mode, zeros) for mode in ("live", "terminal") for zeros in (False, True)}


def test_constant_online_wide_stream_matches_scan():
    # the online-wide benchmark's constant stream: m = k = 1000, 4000 loguniform jobs
    sizes = generate_sizes("loguniform", 4000, 1)
    scheduler = _decide_constant(1000, 1000, sizes)
    assert not scheduler.terminal and scheduler.active_k == 1000


def test_constant_interleaved_groups_match_scan():
    # 20 groups (l = 19 at k = 1000) take turns, so 40 rows fill side by side
    # and every group's pair retires near arrival 40 000 (case-1 repairs)
    sizes = [2.0 ** -(i % 20) for i in range(40_500)]
    scheduler = _decide_constant(1000, 1000, sizes)
    assert scheduler.active_k == 1000 - 40


def test_constant_differential_reaches_every_repair_and_terminal_mode():
    hits = set()

    class Probe(ConstantCompetitiveScheduler):
        def _repair_after_pair_removal(self, i):
            new_l = _floor_2log2(self.active_k)
            hits.add("case1" if new_l == self.l else "case2" if i == self.l else "case3")
            return super()._repair_after_pair_removal(i)

    for seed in range(40):
        rng = random.Random(seed)
        m, k = rng.randint(1, 4), rng.randint(60, 70)
        sizes = _constant_sizes(rng, m * k)
        probe = Probe(m, k)
        for s in sizes:
            probe.on_arrival(s)
        if probe.terminal:
            hits.add("terminal")
        _replay_constant(m, k, sizes)
    assert hits == {"case1", "case2", "case3", "terminal"}


@given(sizes_st, st.integers(1, 6), st.integers(1, 6), st.sampled_from(["rr", "greedy"]))
@settings(max_examples=100, deadline=None)
def test_baselines_match_former_drive(sizes, m, k, key):
    cls = RoundRobinScheduler if key == "rr" else ListSchedulingCapped
    runner, ref, errors = _replay(cls(m, k), cls(m, k), _stream(sizes, m, k), m, k)
    assert errors == [None, None]
    _assert_same(runner, ref)


@given(st.integers(1, 4), st.integers(50, 90), st.integers(0, 2**32), st.floats(0.1, 1.0))
@settings(max_examples=20, deadline=None)
def test_constant_matches_former_drive(m, k, seed, fill):
    sizes = _constant_sizes(random.Random(seed), max(1, int(fill * m * k)))
    same = ConstantCompetitiveScheduler(m, k), ConstantCompetitiveScheduler(m, k)
    runner, ref, errors = _replay(*same, sizes, m, k)
    assert errors == [None, None]
    _assert_same(runner, ref)


@given(
    st.lists(st.floats(min_value=1e-3, max_value=1e3), min_size=1, max_size=40),
    st.integers(1, 5),
    st.integers(1, 8),
    st.sampled_from([0.1, 0.5, 1.0]),
)
@settings(max_examples=100, deadline=None)
def test_robust_ordinal_matches_former_drive(sizes, m, k, eps):
    same = RobustOrdinalScheduler(m, k, eps), RobustOrdinalScheduler(m, k, eps)
    runner, ref, errors = _replay(*same, _stream(sizes, m, k), m, k)
    assert errors == [None, None]
    _assert_same(runner, ref)


def test_robust_ordinal_drive_replay_takes_the_migration_path():
    same = RobustOrdinalScheduler(3, 4, 1.0), RobustOrdinalScheduler(3, 4, 1.0)
    runner, ref, errors = _replay(*same, [1.0, 2.0, 4.0, 8.0] * 3, 3, 4)
    assert errors == [None, None]
    _assert_same(runner, ref)
    assert runner.trace.migrations


@given(
    st.lists(
        st.tuples(st.floats(min_value=0.0, max_value=1e6), st.integers(1, 4)),
        min_size=1,
        max_size=60,
    ),
    st.integers(1, 5),
    st.integers(1, 4),
    st.lists(st.floats(min_value=0.1, max_value=10.0), min_size=5, max_size=5),
)
@settings(max_examples=150, deadline=None)
def test_greedy_clcs_matches_former_classed_drive(jobs, m, k, speeds):
    jobs = [(size, (cls - 1) % (m * k) + 1) for size, cls in jobs]  # never more than m*k classes
    speeds = speeds[:m]
    same = GreedyClcsScheduler(m, k), GreedyClcsScheduler(m, k)
    runner, ref, errors = _replay(*same, jobs, m, k, classed=True)
    assert errors == [None, None]
    _assert_same(runner, ref)  # machines, and loads by repr
    assert runner.classes == ref.classes
    assert [runner.class_sets[i] for i in range(m)] == ref.class_sets
    speed_makespan = max(ld / sp for ld, sp in zip(ref.records[-1].loads, speeds))
    assert repr(clcs_makespan(runner.loads, speeds)) == repr(speed_makespan)


@st.composite
def _class_streams(draw):
    """(m, k, classes): revisits of bound classes mixed with every class 1..m*k + 1."""
    m, k = draw(st.integers(1, 5)), draw(st.integers(1, 4))
    revisits = draw(st.lists(st.integers(1, m * k + 1), max_size=40))
    return m, k, draw(st.permutations(revisits + list(range(1, m * k + 2))))


def _clcs_decisions(scheduler, classes):
    """Each arrival's machine, up to and including the message of a refusal."""
    out = []
    for i, cls in enumerate(classes, start=1):
        try:
            out.append(scheduler.on_arrival(float(i), cls))
        except InfeasibleError as exc:
            out.append(str(exc))
            break
    return out


@given(_class_streams())
@settings(max_examples=150, deadline=None)
def test_greedy_clcs_decisions_match_reference(case):
    m, k, classes = case
    got = _clcs_decisions(GreedyClcsScheduler(m, k), classes)
    assert got == _clcs_decisions(RefGreedyClcs(m, k), classes)
    # the m*k + 1st distinct class finds every slot bound
    assert got[-1] == "all machines already host k classes"
    assert len(set(classes[: len(got) - 1])) == m * k


class _Classless:
    """Runs an unclassed scheduler on a classed runner, ignoring the classes."""

    def __init__(self, inner):
        self._inner = inner

    def on_arrival(self, size, cls):
        return self._inner.on_arrival(size)


def _parity_scheduler(key, m, k, seed):
    if key == "round-robin":
        return RoundRobinScheduler(m, k)
    if key == "greedy-capped":
        return ListSchedulingCapped(m, k)
    if key == "constant":
        return ConstantCompetitiveScheduler(m, k)
    if key == "robust-ordinal":
        return RobustOrdinalScheduler(m, k, 0.5)
    if key == "phi":
        return PhiScheduler()
    if key == "greedy-clcs":
        return GreedyClcsScheduler(m, k)
    migrator = _RandomMigrator(m, k, seed, cheat=key.endswith("cheat"))
    return _Classless(migrator) if key.startswith("classed") else migrator


def _runner_state(runner) -> tuple:
    trace = runner.trace
    migrations = sorted((j, r.moves, repr(r.moved_size)) for j, r in trace.migrations.items())
    classes = None if runner.classes is None else list(runner.classes)
    class_sets = None
    if runner.class_sets is not None:
        class_sets = [sorted(runner.class_sets[i]) for i in range(runner.m)]
    return (
        list(trace.sizes),
        list(trace.machines),
        [repr(x) for x in trace.makespans],
        migrations,
        [repr(x) for x in runner.loads],
        list(runner.counts),
        classes,
        class_sets,
    )


def _apply(runner, jobs, batch: bool) -> list:
    """Apply (size, class) jobs, as pairs on a classed runner and as sizes on an
    unclassed one, with one feed call per stretch (batch) or one push per job;
    a refused job is skipped and the rest applied.  Returns each refusal's job
    index, exception type and message, and the runner's state right after it,
    then the final state."""
    if runner.classes is None:
        jobs = [size for size, _ in jobs]
    outcomes = []
    i = 0
    while i < len(jobs):
        if batch:
            last = [i - 1]

            def source(start=i):
                for j in range(start, len(jobs)):
                    last[0] = j
                    yield jobs[j]

            try:
                runner.feed(source())
                break
            except Exception as exc:  # noqa: BLE001 - compared by type and message
                if last[0] < i:  # refused before drawing a job: there is none to skip
                    raise
                outcomes.append((last[0], type(exc), str(exc), _runner_state(runner)))
                i = last[0] + 1
        else:
            try:
                runner.push(jobs[i])
            except Exception as exc:  # noqa: BLE001
                outcomes.append((i, type(exc), str(exc), _runner_state(runner)))
            i += 1
    return outcomes + [_runner_state(runner)]


@st.composite
def _parity_jobs(draw):
    """Up to 40 (size, class) jobs, a few of them refused: bad sizes, bad classes or both."""
    sizes = draw(st.lists(st.floats(min_value=0.0, max_value=100.0), max_size=40))
    classes = draw(st.lists(st.integers(1, 4), min_size=len(sizes), max_size=len(sizes)))
    jobs = list(zip(sizes, classes))
    bad_size = st.sampled_from([-1.0, math.inf, -math.inf, math.nan])
    bad_class = st.sampled_from([-1, 0, 2**63])
    for _ in range(draw(st.integers(0, 2))):
        at = draw(st.integers(0, len(jobs)))
        job = draw(
            st.one_of(
                st.tuples(bad_size, st.just(1)),
                st.tuples(st.just(1.0), bad_class),
                st.tuples(bad_size, bad_class),
            )
        )
        jobs.insert(at, job)
    return jobs


@given(
    st.sampled_from(
        [
            "round-robin",
            "greedy-capped",
            "constant",
            "robust-ordinal",
            "phi",
            "migrator",
            "migrator-cheat",
            "greedy-clcs",
            "classed-migrator",
            "classed-migrator-cheat",
        ]
    ),
    _parity_jobs(),
    st.integers(1, 5),
    st.integers(1, 8),
    st.integers(0, 2**32),
    st.booleans(),
)
@settings(max_examples=300, deadline=None)
def test_feed_matches_one_push_per_job(key, jobs, m, k, seed, wide_constant):
    """One feed call and one push per job leave the same trace, loads, counts and
    class sets, and refuse the same arrivals with the same error and state."""
    if key == "phi":
        m = k = 2
    elif key == "constant" and wide_constant:
        k += 49  # the live row structure rather than the round-robin fallback
    classed = key.startswith("classed") or key == "greedy-clcs"
    runners = [
        StreamRunner(_parity_scheduler(key, m, k, seed), m, k, classed=classed) for _ in range(2)
    ]
    fed, pushed = (_apply(runner, jobs, batch) for runner, batch in zip(runners, (True, False)))
    assert fed == pushed


def test_feed_parity_reaches_every_refusal():
    """The refusals the parity test draws, each on a fixed stream."""
    cases = [
        ("round-robin", [(1.0, 1)] * 5, 2, 2, "stream longer than capacity"),
        ("round-robin", [(1.0, 1), (math.nan, 1), (2.0, 1)], 2, 2, "finite and >= 0, got nan"),
        ("round-robin", [(1.0, 1), (-1.0, 1)], 2, 2, "finite and >= 0, got -1.0"),
        ("round-robin", [(1.0, 1), (math.inf, 1)], 2, 2, "finite and >= 0, got inf"),
        ("migrator-cheat", [(1.0, 1)] * 12, 2, 2, "outside [1, 2]"),
        ("migrator-cheat", [(1.0, 1)] * 12, 2, 2, "cap is 2"),
        ("migrator-cheat", [(1.0, 1)] * 40, 3, 3, "does not match schedule"),
        ("greedy-clcs", [(1.0, 1), (1.0, 2**63)], 2, 1, "class must be in"),
        ("classed-migrator-cheat", [(1.0, c) for c in (1, 2, 3, 4) * 5], 2, 1, "than 1 classes"),
    ]
    for key, jobs, m, k, message in cases:
        classed = key.startswith("classed") or key == "greedy-clcs"
        found = False
        for seed in range(40):
            runners = [
                StreamRunner(_parity_scheduler(key, m, k, seed), m, k, classed=classed)
                for _ in range(2)
            ]
            fed, pushed = (_apply(r, jobs, batch) for r, batch in zip(runners, (True, False)))
            assert fed == pushed
            found = any(message in o[2] for o in fed[:-1])
            if found:
                break
        assert found, (key, message)


def _assert_oracle_matches_ref(sizes, m, k):
    inst = instance_from_sizes(sizes, m, k)
    got, want = exact_opt(inst), ref_exact_opt(inst)
    assert repr(got.opt_makespan) == repr(want.opt_makespan)
    assert got.schedule == want.schedule
    assert got.nodes_explored <= want.nodes_explored
    if got.opt_makespan != lower_bound(sizes, m):
        assert got.nodes_explored == want.nodes_explored
    return got, want


@given(
    st.integers(1, 5),
    st.integers(1, 5),
    st.one_of(
        st.lists(st.integers(0, 60).map(float), max_size=14),
        st.lists(st.integers(0, 240).map(lambda q: q / 4), max_size=14),
    ),
)
@settings(max_examples=150, deadline=None)
def test_exact_opt_matches_former_search(m, k, sizes):
    _assert_oracle_matches_ref(sizes[: m * k], m, k)


def test_exact_opt_search_heavy_tree_unchanged():
    # the first seed-3 n=20 benchmark instance: opt 263 sits above lb 262.5
    sizes = [30, 75, 69, 16, 47, 77, 60, 80, 74, 8, 77, 1, 60, 33, 70, 29, 24, 91, 60, 69]
    got, _ = _assert_oracle_matches_ref(sizes, 4, 5)
    assert (got.opt_makespan, got.nodes_explored) == (263.0, 60551)
    assert lower_bound(sizes, 4) == 262.5


def test_exact_opt_stops_at_first_leaf_on_lower_bound():
    # opt 36 equals lb 36: the former search went on for 80 more nodes
    sizes = [9, 19, 8, 5, 11, 15, 8, 17, 7, 9]
    got, want = _assert_oracle_matches_ref(sizes, 3, 4)
    assert got.opt_makespan == lower_bound(sizes, 3) == 36.0
    assert (got.nodes_explored, want.nodes_explored) == (34, 114)


_U = 2.0**-53  # half an ulp of 1.0: adding it to 1.0 rounds back to 1.0


def _assert_oracle_is_former_search(sizes, m, k):
    """The carried bound prunes exactly where a rescan of every machine would."""
    inst = instance_from_sizes(sizes, m, k)
    got, want = exact_opt(inst), ref_exact_opt(inst, stop_at_lb=True)
    assert repr(got.opt_makespan) == repr(want.opt_makespan)
    assert got.schedule == want.schedule
    assert got.nodes_explored == want.nodes_explored
    return got


@given(
    st.integers(1, 5),
    st.integers(1, 5),
    st.one_of(
        st.lists(st.integers(0, 60).map(float), max_size=14),
        st.lists(st.integers(0, 240).map(lambda q: q / 4), max_size=14),
        st.lists(st.floats(0, 100), max_size=14),
        st.lists(
            st.sampled_from([1.0, 0.5, 0.5 + 2 * _U, 0.125, _U, 2 * _U, 3 * _U]), max_size=14
        ),
    ),
)
@settings(max_examples=200, deadline=None)
def test_exact_opt_prunes_node_for_node_as_a_rescan(m, k, sizes):
    _assert_oracle_is_former_search(sizes[: m * k], m, k)


def test_exact_opt_rescans_when_rounding_lowers_the_max():
    # 1.0 + _U rounds to 1.0: here a placement lowers the bound of the machine
    # that held the max, and a max carried without a rescan stops one node early
    sizes = [1.0, 0.5, 0.5, 0.5 + 2 * _U, 0.5 + 2 * _U, 2 * _U] + [3 * _U] * 4
    got = _assert_oracle_is_former_search(sizes, 2, 5)
    assert got.nodes_explored == 22
    assert got.opt_makespan == 1.5 + 10 * _U


def _assert_grid_search_is_exact_opt(sizes, m, k):
    """The grid exit moves neither opt nor the schedule, and prunes as the reference does."""
    inst = instance_from_sizes(sizes, m, k)
    want, target = exact_opt(inst), exit_target(inst)
    assert repr(opt_makespan(inst)) == repr(want.opt_makespan)
    got = branch_and_bound(inst, target)
    assert got.schedule == want.schedule
    assert got.nodes_explored <= want.nodes_explored
    ref = ref_exact_opt(inst, stop_at_lb=True, target=target)
    assert (repr(ref.opt_makespan), ref.schedule) == (repr(got.opt_makespan), got.schedule)
    assert ref.nodes_explored == got.nodes_explored
    return target


@given(
    st.integers(1, 5),
    st.integers(1, 5),
    st.one_of(
        st.lists(st.integers(0, 60).map(float), max_size=14),
        st.lists(st.integers(0, 240).map(lambda q: q / 4), max_size=14),
        st.lists(st.floats(0, 100), max_size=14),
    ),
)
@settings(max_examples=200, deadline=None)
def test_opt_makespan_is_exact_opt(m, k, sizes):
    _assert_grid_search_is_exact_opt(sizes[: m * k], m, k)


@pytest.mark.parametrize(
    "sizes",
    [
        # the two instances on which exact_opt is one ulp high: off the grid,
        # the value function searches exactly as exact_opt does
        [0.125, 0.5 + 2**-52, 2**-53, 1.0, 0.5 + 2**-52, 2**-52, 1.0, 0.5 + 2**-52],
        [0.125, 0.5 + 2**-52, 2**-53, 0.5, 3 * 2**-53, 3 * 2**-53, 2**-52, 0.125],
    ],
)
def test_opt_makespan_off_the_grid_is_exact_opt_in_the_last_ulp(sizes):
    inst = instance_from_sizes(sizes, 2, 4)
    assert exit_target(inst) == lower_bound(sizes, 2)
    _assert_grid_search_is_exact_opt(sizes, 2, 4)


_B = 2**51


@pytest.mark.parametrize(
    "sizes, m, k, on_grid",
    [
        ([_B + 1, _B, _B, _B - 2], 2, 2, True),  # total 2**53 - 1, lb 2**52 - 0.5
        ([_B - 1] * 3 + [_B - 3], 3, 2, True),  # total 2**53 - 6, lb fractional
        ([_B + 1, _B, _B, _B - 1], 2, 2, False),  # total 2**53
        ([_B + 1, _B + 1, _B, _B - 1], 2, 2, False),  # total 2**53 + 1 folds to 2**53
        ([_B + 1] * 5, 3, 2, False),  # total 2**53 + 2**51 + 5, lb fractional
        ([2**53 + 2, 2**53, 2, 2, 4], 3, 2, False),  # near 2**54
    ],
)
def test_grid_exit_only_below_a_total_of_2_pow_53(sizes, m, k, on_grid):
    lb = lower_bound([float(s) for s in sizes], m)
    target = _assert_grid_search_is_exact_opt(sizes, m, k)
    assert target == (math.ceil(lb) if on_grid else lb)
    assert (target != lb) == (on_grid and lb != math.ceil(lb))
