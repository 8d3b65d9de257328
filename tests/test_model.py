import math

import pytest
from hypothesis import example, given, strategies as st

from cardsched import model
from cardsched.model import (
    GeometricClasses,
    InfeasibleError,
    Instance,
    check_feasible,
    instance_from_sizes,
    loads,
    makespan,
    power,
)
from cardsched.oracle import exact_opt
from cardsched.ordinal import ordinal_schedule

from reference_scans import round_down_pow2


def test_loads_direct_sum():
    inst = instance_from_sizes([3, 2], 2, 2)
    assert loads({1: 1, 2: 2}, inst) == [3, 2]


def test_loads_empty_instance():
    inst = instance_from_sizes([], 3, 1)
    assert loads({}, inst) == [0, 0, 0]


def test_loads_four_jobs():
    inst = instance_from_sizes([3, 2, 1, 1], 2, 2)
    assert loads({1: 1, 2: 2, 3: 2, 4: 1}, inst) == [4, 3]


def test_loads_unknown_job_id():
    inst = instance_from_sizes([3], 2, 2)
    with pytest.raises(KeyError):
        loads({1: 1, 7: 2}, inst)
    for jid in (0, -1):  # an id below 1 never indexes from the end of the sizes
        with pytest.raises(KeyError, match=f"unknown job id {jid}"):
            loads({jid: 1}, inst)
        assert check_feasible({1: 1, jid: 2}, inst) == [f"job {jid}: not part of the instance"]


def test_loads_fold_in_dict_order():
    # a load is the left fold of its sizes in the order the schedule dict
    # iterates: solvers key their schedules in placement order (largest
    # first), which re-adds the sizes as the solver added them
    inst = instance_from_sizes([0.1, 0.2, 0.3], 1, 3)
    for schedule in (exact_opt(inst).schedule, ordinal_schedule(inst)):
        assert list(schedule) == [3, 2, 1]
        assert makespan(schedule, inst) == exact_opt(inst).opt_makespan == 0.6
        by_id = dict(sorted(schedule.items()))
        assert makespan(by_id, inst) == 0.6000000000000001


def test_makespan_examples():
    inst = instance_from_sizes([3, 2, 1, 1], 2, 2)
    assert makespan({1: 1, 2: 2, 3: 2, 4: 1}, inst) == 4
    assert makespan({}, instance_from_sizes([], 2, 2)) == 0
    single = instance_from_sizes([1, 2, 3], 1, 3)
    assert makespan({1: 1, 2: 1, 3: 1}, single) == 6


def test_check_feasible_cap_violation():
    inst = instance_from_sizes([1, 1, 1], 2, 2)
    violations = check_feasible({1: 1, 2: 1, 3: 1}, inst)
    assert any("machine 1" in v and "3" in v for v in violations)


def test_check_feasible_ok():
    inst = instance_from_sizes([1, 1, 1], 2, 2)
    assert check_feasible({1: 1, 2: 1, 3: 2}, inst) == []


def test_check_feasible_unassigned():
    inst = instance_from_sizes([1, 1], 2, 2)
    violations = check_feasible({1: 1}, inst)
    assert violations == ["job 2: unassigned"]


def test_a_job_on_a_machine_out_of_range_is_named_once():
    # both jobs are assigned, if out of range, so neither also reads as unassigned
    inst = instance_from_sizes([1.0, 2.0], 2, 2)
    assert check_feasible({1: 0, 2: 3}, inst) == [
        "job 1: machine 0 outside [1, 2]",
        "job 2: machine 3 outside [1, 2]",
    ]
    with pytest.raises(ValueError, match=r"^job 1 assigned to machine 3 outside \[1, 2\]$"):
        loads({1: 3}, inst)


def test_job_rejects_negative_size():
    with pytest.raises(ValueError, match="job 1: size must be finite and >= 0, got -0.5"):
        Instance((-0.5,), 1, 1)


def test_instance_refuses_the_size_first():
    # the size error comes before the m/k error and the capacity error
    for m, k in ((2, 1), (0, 1)):
        with pytest.raises(ValueError, match="job 1: size must be finite and >= 0, got nan"):
            instance_from_sizes([math.nan, 1, 1], m, k)
    with pytest.raises(ValueError, match="m and k must be >= 1"):
        instance_from_sizes([1, 1, 1], 1, 0)


def test_instance_feasibility_predicate():
    # Instance owns the offline job contract: at most m*k jobs, each finite and >= 0
    assert instance_from_sizes([1, 1], 2, 1).n == 2
    with pytest.raises(InfeasibleError, match="3 jobs exceed capacity m\\*k = 2"):
        instance_from_sizes([1, 1, 1], 2, 1)
    assert instance_from_sizes([0.0, 1.0], 2, 1).sizes == (0.0, 1.0)
    for size in (math.nan, math.inf, -math.inf, -1.0):
        with pytest.raises(ValueError, match="job 2: size must be finite and >= 0"):
            instance_from_sizes([1.0, size], 2, 1)


@pytest.mark.parametrize(
    "size,expected",
    [
        (5, (4.0, 2)),
        (1, (1.0, 0)),
        (0.3, (0.25, -2)),
        (1024, (1024.0, 10)),
        (0.5, (0.5, -1)),
        # the smallest subnormal and normal, and sizes from 2**1023 up (no float 2**1024)
        (5e-324, (5e-324, -1074)),
        (2.2250738585072014e-308, (2.2250738585072014e-308, -1022)),
        (1e308, (2.0**1023, 1023)),
        (1.7976931348623157e308, (2.0**1023, 1023)),
    ],
)
def test_round_down_pow2_examples(size, expected):
    assert round_down_pow2(size) == expected


@pytest.mark.parametrize("bad", [0, -1, float("inf"), float("nan")])
def test_round_down_pow2_domain(bad):
    with pytest.raises(ValueError):
        round_down_pow2(bad)


def test_round_up_geometric_examples():
    assert GeometricClasses(1).exponent(5) == 3 and power(2.0, 3) == 8.0
    assert GeometricClasses(0.5).exponent(1) == 0
    assert GeometricClasses(0.5).exponent(5) == 4
    assert power(1.5, 4) == pytest.approx(5.0625, abs=1e-12)


@pytest.mark.parametrize("size,eps", [(0, 1), (-2, 1), (1, 0), (1, -0.5)])
def test_round_up_geometric_domain(size, eps):
    with pytest.raises(ValueError):
        GeometricClasses(eps).exponent(size)


@given(st.floats(min_value=1e-12, max_value=1e12))
def test_round_down_pow2_bracketing(x):
    rounded, e = round_down_pow2(x)
    assert rounded == math.ldexp(1.0, e)
    assert rounded <= x < 2 * rounded


@given(
    st.floats(min_value=1e-9, max_value=1e9),
    st.floats(min_value=1e-3, max_value=4.0),
)
def test_round_up_geometric_bracketing(x, eps):
    classes = GeometricClasses(eps)
    e = classes.exponent(x)
    rounded = power(1 + eps, e)
    assert rounded >= x
    # upper bound holds to float precision of the lifted powers
    assert rounded <= (1 + eps) * x * (1 + 1e-12)
    # same size always lands in the same class
    assert classes.exponent(x) == e


@given(
    st.floats(min_value=2.0**-40, max_value=4.0),
    st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
)
@example(1e-9, 1e-310)
@example(2.0**-40, 5e-324)
@example(2.0**-40, 1.7976931348623157e308)
def test_geometric_class_brackets_the_size_at_any_eps(eps, size):
    # where the lifted powers are not monotone the class may differ from a
    # one-step walk's, but its two powers still bracket the size
    classes = GeometricClasses(eps)
    e = classes.exponent(size)
    assert power(1 + eps, e - 1) < size <= power(1 + eps, e)
    assert classes.exponent(size) == e == GeometricClasses(eps).exponent(size)


@pytest.mark.parametrize(
    "eps, sizes",
    [(1e-9, [1.0, 1e-310]), (1e-12, [100.0]), (2.0**-40, [5e-324, 1.7976931348623157e308])],
)
def test_geometric_class_search_lifts_logarithmically_many_powers(monkeypatch, eps, sizes):
    # a walk one class at a time from the estimate needs tens of thousands of
    # lifts here and never ends on the subnormal: fail at once, not hang
    lifts, lift = [0], model.power

    def counted(base, exponent):
        lifts[0] += 1
        if lifts[0] > 500:
            raise AssertionError("more than 500 lifts of (1+eps)")
        return lift(base, exponent)

    monkeypatch.setattr(model, "power", counted)
    classes = GeometricClasses(eps)
    for size in sizes:
        e = classes.exponent(size)
        assert lift(1 + eps, e - 1) < size <= lift(1 + eps, e)


@given(st.lists(st.floats(min_value=0, max_value=100), max_size=12))
def test_loads_sum_and_makespan_consistency(sizes):
    m = 3
    inst = instance_from_sizes(sizes, m, max(1, len(sizes)))
    schedule = {j: 1 + (j % m) for j in range(1, inst.n + 1)}
    ld = loads(schedule, inst)
    assert makespan(schedule, inst) == (max(ld) if ld else 0.0)
    assert sum(ld) == pytest.approx(sum(sizes), rel=1e-12, abs=1e-12)


def test_zero_size_jobs_are_legal_in_instances():
    inst = instance_from_sizes([0.0, 0.0, 1.0], 2, 2)
    assert inst.n == 3
    assert check_feasible({1: 1, 2: 2, 3: 1}, inst) == []


def test_instance_rejects_bad_shape():
    with pytest.raises(ValueError):
        Instance((), 0, 1)
    with pytest.raises(ValueError):
        Instance((1.0,), 1, 0)
