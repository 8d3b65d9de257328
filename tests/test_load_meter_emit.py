"""Differential tests for the load, metering and report layers.

Each fast path is checked against the code it replaced (tests/reference_scans.py):
`load_jobs` against the per-line `json.loads` loader, lower-bound metering
against its one-prefix-per-step loop, migration metering against a loop over
every arrival's record, the CLI's report encoder against
`json.dumps(..., indent=2, sort_keys=True, allow_nan=False)` and its
structure dump against the reference constant scheduler's.
"""

import json
import math
import tracemalloc
from array import array

import pytest
from hypothesis import example, given, settings, strategies as st

from cardsched import cli
from cardsched.engine import Scheduler, competitive_metrics, migration_stats, run_stream
from cardsched.jsonl import load_jobs
from cardsched.model import Trace
from reference_scans import (
    RefConstantScheduler,
    ref_load_jobs,
    ref_lower_bound_metrics,
    ref_migration_stats,
    ref_report_text,
)

_chars = st.characters(blacklist_categories=("Cs",))  # every str that UTF-8 can write

# -- load ---------------------------------------------------------------------

_size_values = st.one_of(
    st.floats(),  # NaN and the infinities serialise as NaN/Infinity, which json reads back
    st.just(-0.0),
    st.integers(-(2**70), 2**70),
    st.just(10**400),  # past the largest float
    st.booleans(),
    st.none(),
    st.text(_chars, max_size=4),
    st.lists(st.integers(0, 3), max_size=2),
)
_class_values = st.one_of(
    st.integers(-(2**70), 2**70), st.booleans(), st.floats(), st.text(max_size=2)
)


@st.composite
def _object_line(draw):
    obj = {}
    if draw(st.booleans()) or draw(st.booleans()):
        obj["size"] = draw(_size_values)
    if draw(st.booleans()):
        obj["class"] = draw(_class_values)
    if draw(st.booleans()):
        obj[draw(st.text(_chars, max_size=3))] = draw(st.integers())
    text = json.dumps(obj, ensure_ascii=draw(st.booleans()))
    return text if draw(st.booleans()) else text.replace(" ", "")


_line = st.one_of(
    _object_line(),
    st.sampled_from(["", "   ", "\t", "\x0c", " ", "\xa0"]),  # blank once stripped
    _object_line().map(lambda line: "\ufeff" + line),  # a byte-order mark
    st.tuples(_object_line(), st.sampled_from([" x", "}", ",", " 1", "]"])).map("".join),
    st.tuples(_object_line(), st.sampled_from(["", " "]), _object_line()).map("".join),
    st.sampled_from(
        [
            "1",
            "[1]",
            '"size"',
            "null",
            "true",
            "{",
            "{'size': 1}",
            '{"size": 1,}',
            '{"size": 01}',
            '{"size": NaN}',
            '{"size": -Infinity}',
            '{"size": 1e400}',
            '{"size": ' + "9" * 5000 + "}",  # over int's default digit limit
            '{"size": 1} // note',
            "[" * 200 + "]" * 200,
        ]
    ),
    st.text(_chars, max_size=12),
)


def _outcome(loader, path, classed):
    try:
        return [(repr(size), cls) for size, cls in loader(path, classed)]
    except ValueError as exc:
        return type(exc), str(exc)


@given(st.lists(_line, min_size=1, max_size=6), st.sampled_from(["\n", "\r\n"]), st.booleans())
# lines the C scanner finds no value at (it raises StopIteration), a bad escape and an
# unterminated string: json.loads words each refusal
@example(lines=["]"], newline="\n", classed=False)
@example(lines=['{"size": 1}', ","], newline="\n", classed=False)
@example(lines=["}"], newline="\r\n", classed=True)
@example(lines=[":"], newline="\n", classed=False)
@example(lines=['{"size": 1, "x": "\\q"}'], newline="\n", classed=False)
@example(lines=['{"size": 1, "x": "ab'], newline="\n", classed=False)
@settings(max_examples=400, deadline=None)
def test_load_jobs_matches_json_loads_per_line(tmp_path_factory, lines, newline, classed):
    path = tmp_path_factory.mktemp("load") / "jobs.jsonl"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(newline.join(lines) + newline)
    assert _outcome(load_jobs, str(path), classed) == _outcome(ref_load_jobs, str(path), classed)


def test_load_jobs_names_a_line_nested_too_deeply(tmp_path):
    """The per-line loader let the decoder's RecursionError out as a traceback."""
    path = tmp_path / "deep.jsonl"
    path.write_text('{"size": 1.5, "class": 2}\n\n' + "[" * 100_000 + "]" * 100_000 + "\n")
    with pytest.raises(ValueError) as err:
        load_jobs(str(path))
    assert str(err.value) == f"{path}: line 3: invalid JSON (nested too deeply)"


# -- metering -----------------------------------------------------------------

_zero = st.sampled_from([0.0, -0.0])
_meter_size = st.one_of(
    _zero,
    st.floats(0.0, 1e6),
    st.floats(0.0, 1e-300),
    st.sampled_from([0.1, 0.2, 0.3, 2.0**-1074, 1e300]),
)


def _assert_metering_matches(trace):
    got = competitive_metrics(trace, "lower_bound")
    prefix_max, denom = ref_lower_bound_metrics(trace.sizes, trace.makespans, trace.m)
    final = trace.final_makespan()
    want_final = (1.0 if final == 0 else math.inf) if denom == 0 else final / denom
    assert repr(got.prefix_max_ratio) == repr(prefix_max)
    assert repr(got.denominator) == repr(denom)
    assert repr(got.final_ratio) == repr(want_final)


@given(
    st.lists(_zero, max_size=4),
    st.lists(_meter_size, max_size=40),
    st.integers(1, 6),
    st.sampled_from(["round-robin", "greedy-capped"]),
)
@settings(max_examples=300, deadline=None)
def test_lower_bound_metering_matches_loop(zeros, tail, m, algo):
    sizes = zeros + tail  # a leading zero-size prefix has bound 0
    k = max(1, -(-len(sizes) // m))
    trace = run_stream(cli.SCHEDULERS[algo](m, k, 1.0), sizes, m, k)
    _assert_metering_matches(trace)


_makespan = st.one_of(_zero, st.floats(0.0, 1e6))


@given(
    st.lists(st.tuples(_meter_size, _makespan), max_size=30),
    st.lists(st.tuples(_zero, _makespan), max_size=4),
    st.integers(1, 6),
)
@settings(max_examples=300, deadline=None)
def test_lower_bound_metering_matches_loop_on_any_makespans(pairs, zero_pairs, m):
    """Makespans drawn apart from the sizes reach _ratio's 0/0 and x/0 cases,
    and a -0.0 ratio, which the fold from 0.0 never reports."""
    pairs = zero_pairs + pairs
    trace = Trace(m, len(pairs) or 1)
    trace.sizes = array("d", (size for size, _ in pairs))
    trace.makespans = array("d", (ms for _, ms in pairs))
    _assert_metering_matches(trace)


def test_lower_bound_metering_keeps_nothing_per_arrival():
    # a list of one bound per arrival would peak at about 2.8 MiB here
    m, n = 1000, 10**5
    trace = Trace(m, n // m)
    trace.sizes = [2.0 ** -(i % 20) for i in range(n)]
    trace.makespans = array("d", (1.0 + i / m for i in range(n)))
    tracemalloc.start()
    try:
        got = competitive_metrics(trace, "lower_bound")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024
    prefix_max, denom = ref_lower_bound_metrics(trace.sizes, trace.makespans, m)
    assert (got.prefix_max_ratio, got.denominator) == (prefix_max, denom)


class _ScriptedMover(Scheduler):
    """Places arrival i on machine (i - 1) % m + 1; a step (pick, shift) also moves the
    earlier job pick % (i - 1) + 1 by `shift` machines, cyclically."""

    def __init__(self, m: int, k: int, steps):
        self.m, self.k = m, k
        self._steps = iter(steps)
        self._where: list[int] = []  # job id - 1 -> its machine

    def on_arrival(self, size):
        step, where = next(self._steps), self._where
        moves = ()
        if step is not None and where:
            pick, shift = step
            job = pick % len(where) + 1
            src = where[job - 1]
            where[job - 1] = dst = (src - 1 + shift) % self.m + 1
            moves = ((job, src, dst),)
        where.append(len(where) % self.m + 1)
        return where[-1], moves


_move = st.one_of(st.none(), st.tuples(st.integers(0, 50), st.integers(1, 2)))


@given(st.lists(st.tuples(_meter_size, _move), max_size=30))
@example([(1.0, None), (0.0, (0, 1))])  # a zero-size arrival that moves job 1: factor inf
@settings(max_examples=300, deadline=None)
def test_migration_stats_matches_per_record_loop(steps):
    m, k = 3, max(1, len(steps))  # k never binds
    scheduler = _ScriptedMover(m, k, [step for _, step in steps])
    trace = run_stream(scheduler, [size for size, _ in steps], m, k)
    got = migration_stats(trace)
    max_factor, total = ref_migration_stats(trace)
    assert (repr(got.max_factor), repr(got.total_moved)) == (repr(max_factor), repr(total))


# -- emit ---------------------------------------------------------------------

_number = st.one_of(
    st.integers(-(2**70), 2**70), st.floats(allow_nan=False, allow_infinity=False), st.just(-0.0)
)
_scalar = st.one_of(st.none(), st.booleans(), _number, st.text(_chars, max_size=6))
_row_item = st.one_of(_number, st.none(), st.just(2**70))  # _number holds -0.0
# keys holding the separators the encoder writes or replaces, quotes, escapes and non-ASCII
_key = st.one_of(
    st.text(_chars, max_size=5),
    st.lists(st.sampled_from([", ", "], [", ": ", '"', "\\", "\n", "\xe9", "\u2028", "a"]), max_size=4)
    .map("".join),
)
_non_str_key = st.one_of(
    st.integers(), st.floats(allow_nan=False, allow_infinity=False), st.none(), st.booleans()
)
_values = st.recursive(
    _scalar,
    lambda inner: st.one_of(
        st.lists(inner, max_size=5),
        st.lists(inner, max_size=5).map(tuple),
        st.dictionaries(_key, inner, max_size=5),
        st.lists(_number, min_size=1, max_size=5),  # the C encoder's number lists
        st.lists(st.lists(_number, max_size=3), min_size=1, max_size=4),  # rows, some empty
        st.lists(st.lists(_row_item, min_size=1, max_size=3), min_size=1, max_size=4),
        st.lists(st.tuples(_number, _number), min_size=1, max_size=4),
        # number lists three deep and more: one encoder per indent
        st.lists(
            st.lists(st.lists(_row_item, min_size=1, max_size=3), min_size=1, max_size=3),
            min_size=1,
            max_size=3,
        ),
        st.dictionaries(_key, _row_item, min_size=1, max_size=5),
        # a bool is not a number to the C encoder's dict path
        st.dictionaries(_key, st.one_of(_number, st.booleans()), min_size=2, max_size=5),
        # a number dict with one key that is not a str takes the recursive path
        st.tuples(st.dictionaries(_key, _number, max_size=3), _non_str_key, _number).map(
            lambda t: {**t[0], t[1]: t[2]}
        ),
    ),
    max_leaves=30,
)


def _has_non_str_key(value) -> bool:
    if isinstance(value, dict):
        return any(type(key) is not str or _has_non_str_key(v) for key, v in value.items())
    if isinstance(value, (list, tuple)):
        return any(map(_has_non_str_key, value))
    return False


@given(_values)
@example({"], [": 1, ", ": -0.0, '": "': None, '\\\n"\xe9': 2**70, "\u65e5": 0.1})
@example([[[1, 2.5], [None, -0.0]], [[2**70]]])
@example({"a": [[[0.5]], [[1], [2, 3]]], "b": {"c": [1.0, None]}})
@example({3: 1.0})
@example({"a": 1, 2.5: 2.0})
@settings(max_examples=500, deadline=None)
def test_encode_matches_json_dumps(value):
    try:
        text = cli._encode(value)
    except TypeError:  # a key that is not a str, for which _emit calls json.dumps
        assert _has_non_str_key(value)
    else:
        assert text == ref_report_text(value)


def _emit_outcome(emit, report, tmp_path):
    out = tmp_path / "report.json"
    try:
        emit(report, str(out))
    except (ValueError, TypeError) as exc:
        return type(exc), str(exc)
    return out.read_text(encoding="utf-8")


def _ref_emit(report, out):
    text = ref_report_text(report)
    with open(out, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


@pytest.mark.parametrize(
    "report",
    [
        {"a": [1.0, math.inf]},
        {"a": [[1.0, 2], [math.nan, 3]]},
        {"a": {"b": -math.inf}},
        {"a": [True, math.inf]},
        {1: "one", 2: [2.0]},  # json.dumps writes int keys as strings
        {"a": {(1, 2): 3}},
        {"a": [object()]},
        {"a": [1, 10**5000]},  # over int's default digit limit
        {"a": {"b": 1, "c": math.nan}},
        {"a": {"b": 10**5000}},
        {1: 1.0, 2: 2},  # number values under int keys
    ],
)
def test_emit_refuses_or_writes_like_json_dumps(tmp_path, report):
    assert _emit_outcome(cli._emit, report, tmp_path) == _emit_outcome(_ref_emit, report, tmp_path)


def _report(argv):
    """The report dict the CLI would emit for argv, less the schema and wall_time_s main adds."""
    args = cli.make_parser().parse_args(argv)
    return args.handler(args)


def _run(algo, m, k, n, *extra):
    argv = ["run", "--algo", algo, "--m", str(m), "--k", str(k), "--gen", "loguniform"]
    return argv + ["--n", str(n), "--seed", "3", *extra]


def _adversary(family, algo, m, k):
    return ["adversary", "--family", family, "--algo", algo, "--m", str(m), "--k", str(k)]


_REPORT_KINDS = {
    "run-round-robin": _run("round-robin", 7, 40, 200),
    "run-greedy-capped-exact": _run("greedy-capped", 3, 4, 9, "--mode", "exact"),
    "run-phi": _run("phi", 2, 2, 4),
    "run-constant-structure": _run("constant", 4, 60, 150, "--dump-structure"),
    "run-robust-ordinal": _run("robust-ordinal", 5, 5, 25, "--epsilon", "0.5"),
    "run-ordinal-map": _run("ordinal", 4, 6, 20, "--emit-map", "--mode", "lower-bound"),
    "run-transcript-omitted": _run("round-robin", 101, 100, 10_001),
    "oracle": ["oracle", "--m", "3", "--k", "3", "--gen", "uniform", "--n", "8"],
    "adversary-pure-lb": _adversary("pure-lb", "greedy-capped", 4, 3),
    "adversary-balanced-lb": _adversary("balanced-lb", "constant", 3, 60),
    "adversary-robust-lb": _adversary("robust-lb", "robust-ordinal", 4, 8),
    "adversary-phi-lb": _adversary("phi-lb", "phi", 2, 2),
    "clcs-identical-lb": ["clcs", "adversary", "--family", "identical-lb", "--m", "4", "--k", "2"],
    "clcs-uniform-lb": ["clcs", "adversary", "--family", "uniform-lb", "--m", "5", "--k", "3"],
}


@pytest.mark.parametrize("argv", list(_REPORT_KINDS.values()), ids=list(_REPORT_KINDS))
def test_encode_matches_json_dumps_on_every_report_kind(argv):
    report = _report(argv)
    assert cli._encode(report) == ref_report_text(report)


def test_encode_matches_json_dumps_on_a_clcs_run_report(tmp_path):
    path = tmp_path / "classed.jsonl"
    rows = [{"size": 2.0**-e, "class": e % 3 + 1} for e in range(12)]
    path.write_text("".join(json.dumps(row) + "\n" for row in rows))
    argv = ["clcs", "run", "--m", "3", "--k", "2", "--input", str(path), "--speeds", "1,2,0.5"]
    report = _report(argv)
    assert cli._encode(report) == ref_report_text(report)


@pytest.mark.parametrize(
    "k, n, mode",
    [(200, 60, "live"), (60, 150, "terminal"), (10, 20, "fallback")],
    ids=["live", "terminal", "fallback"],
)
def test_structure_dump_matches_the_reference_scheduler(k, n, mode):
    m = 4
    report = _report(_run("constant", m, k, n, "--dump-structure"))
    structure = report["structure"]
    assert structure["terminal"] is (mode == "terminal")
    assert structure["fallback"] is (mode == "fallback")
    ref = RefConstantScheduler(m, k)
    for size in cli.generate_sizes("loguniform", n, 3):
        ref.on_arrival(size)
    assert structure == ref.structure_snapshot()
    assert cli._encode(report) == ref_report_text(report)
