import io
import json
import random
import sys
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings, strategies as st

from cardsched import cli
from cardsched.cli import SCHEDULERS, main, make_parser
from cardsched.engine import run_stream


def _run_cli(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def _write_jsonl(path, rows):
    path.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
    return str(path)


def test_run_ordinal_on_file(tmp_path, capsys):
    path = _write_jsonl(tmp_path / "four.jsonl", [{"size": s} for s in (4, 3, 2, 1)])
    code, out, _ = _run_cli(capsys, ["run", "--algo", "ordinal", "--m", "2", "--k", "2", "--input", path])
    assert code == 0
    report = json.loads(out)
    assert report["schema"] == 1
    assert report["final_makespan"] == 5.0
    assert report["denominator"] == 5.0
    assert report["final_ratio"] == 1.0
    assert report["denominator_mode"] == "exact"


def test_run_generated_round_robin_is_optimal(capsys):
    code, out, _ = _run_cli(
        capsys,
        ["run", "--algo", "round-robin", "--m", "3", "--k", "1", "--gen", "uniform", "--n", "3", "--seed", "7"],
    )
    assert code == 0
    report = json.loads(out)
    assert report["final_ratio"] == 1.0
    assert report["migration"] == {"total_moved": 0.0, "max_factor": 0.0}


def test_run_infeasible_exits_nonzero(tmp_path, capsys):
    path = _write_jsonl(tmp_path / "big.jsonl", [{"size": 1}] * 3)
    code, _, err = _run_cli(capsys, ["run", "--algo", "round-robin", "--m", "1", "--k", "2", "--input", path])
    assert code != 0
    assert "infeasible" in err.lower()


def test_malformed_jsonl_names_line(tmp_path, capsys):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"size": 1}\n{"wat": 2}\n')
    code, _, err = _run_cli(capsys, ["run", "--algo", "round-robin", "--m", "2", "--k", "2", "--input", str(path)])
    assert code != 0
    assert "line 2" in err


def test_deeply_nested_jsonl_line_exits_2_with_one_line(tmp_path, capsys):
    path = tmp_path / "deep.jsonl"
    path.write_text('{"size": 1}\n' + "[" * 100_000 + "]" * 100_000 + "\n")
    argv = ["run", "--algo", "round-robin", "--m", "2", "--k", "2", "--input", str(path)]
    code, out, err = _run_cli(capsys, argv)
    assert (code, out) == (2, "")
    assert err == f"error: {path}: line 2: invalid JSON (nested too deeply)\n"


@pytest.mark.parametrize("argv", [["run", "--algo", "round-robin"], ["clcs", "run"]])
def test_invalid_utf8_names_the_file_and_line(tmp_path, capsys, argv):
    # a lone \r ends a line in the text-mode loop, so the bad byte sits on line 3
    path = tmp_path / "latin1.jsonl"
    path.write_bytes(b'{"size": 1, "class": 1}\r{"size": 2, "class": 1}\n{"size": 3, "note": "\xff"}\n')
    code, out, err = _run_cli(capsys, argv + ["--m", "2", "--k", "2", "--input", str(path)])
    assert (code, out) == (2, "")
    assert err == f"error: {path}: line 3: not valid UTF-8 (byte 22: invalid start byte)\n"


def test_run_determinism_modulo_wall_time(capsys):
    argv = ["run", "--algo", "greedy-capped", "--m", "2", "--k", "6", "--gen", "loguniform", "--n", "10", "--seed", "3"]
    code1, out1, _ = _run_cli(capsys, argv)
    code2, out2, _ = _run_cli(capsys, argv)
    assert code1 == code2 == 0
    r1, r2 = json.loads(out1), json.loads(out2)
    r1.pop("wall_time_s")
    r2.pop("wall_time_s")
    assert r1 == r2


def test_run_report_replays_bit_exactly(capsys):
    argv = ["run", "--algo", "constant", "--m", "2", "--k", "50", "--gen", "loguniform", "--n", "100", "--seed", "5"]
    code, out, _ = _run_cli(capsys, argv)
    assert code == 0
    report = json.loads(out)
    sizes = report["sizes"]
    trace = run_stream(SCHEDULERS["constant"](2, 50, 1.0), sizes, 2, 50)
    assert trace.final_makespan() == report["final_makespan"]
    assert list(trace.machines) == report["machines"]


def test_oracle_subcommand(tmp_path, capsys):
    path = _write_jsonl(tmp_path / "inst.jsonl", [{"size": s} for s in (3, 2, 1, 1)])
    code, out, _ = _run_cli(capsys, ["oracle", "--m", "2", "--k", "2", "--input", path])
    assert code == 0
    report = json.loads(out)
    assert report["opt"] == 4.0
    assert set(report["schedule"]) == {"1", "2", "3", "4"}


def test_oracle_single_machine_sums(tmp_path, capsys):
    path = _write_jsonl(tmp_path / "inst.jsonl", [{"size": s} for s in (1, 2, 3)])
    code, out, _ = _run_cli(capsys, ["oracle", "--m", "1", "--k", "3", "--input", path])
    assert json.loads(out)["opt"] == 6.0


def test_oracle_infeasible(tmp_path, capsys):
    path = _write_jsonl(tmp_path / "inst.jsonl", [{"size": 1}] * 4)
    code, _, err = _run_cli(capsys, ["oracle", "--m", "1", "--k", "3", "--input", path])
    assert code != 0


def test_adversary_pure_lb(capsys):
    code, out, _ = _run_cli(
        capsys,
        ["adversary", "--family", "pure-lb", "--algo", "greedy-capped", "--m", "10", "--k", "10", "--n-param", "10"],
    )
    assert code == 0
    report = json.loads(out)
    assert report["ratio"] == 1.9
    assert report["opt_provenance"] == "analytic"


def test_adversary_phi_lb(capsys):
    code, out, _ = _run_cli(
        capsys, ["adversary", "--family", "phi-lb", "--algo", "phi", "--big-m", "10000"]
    )
    report = json.loads(out)
    assert 1.61 <= report["ratio"] <= 1.6190339887498949


@pytest.mark.parametrize("big_m", ["-10", "-0.001", "0"])
def test_adversary_phi_lb_refuses_a_non_positive_m_by_name(capsys, big_m):
    argv = ["adversary", "--family", "phi-lb", "--algo", "phi", "--big-m", big_m]
    code, out, err = _run_cli(capsys, argv)
    _assert_one_line_exit_2(code, out, err)
    assert err == f"error: M={float(big_m)} must be > 0\n"


def test_adversary_robust_lb(capsys):
    code, out, _ = _run_cli(
        capsys,
        ["adversary", "--family", "robust-lb", "--algo", "robust-ordinal", "--m", "3", "--k", "64", "--epsilon", "1"],
    )
    report = json.loads(out)
    assert report["ratio"] >= 1.05


def test_clcs_run(tmp_path, capsys):
    rows = [{"size": 1.0, "class": 1}, {"size": 2.0, "class": 2}, {"size": 1.5, "class": 1}]
    path = _write_jsonl(tmp_path / "classed.jsonl", rows)
    code, out, _ = _run_cli(capsys, ["clcs", "run", "--m", "2", "--k", "1", "--input", path])
    assert code == 0
    report = json.loads(out)
    assert report["machines"] == [1, 2, 1]
    assert report["makespan"] == 2.5


@pytest.mark.parametrize("cls", [99999999999999999999999, 2**63, 0, -1])
def test_clcs_run_rejects_class_outside_1_to_2_pow_63_minus_1(tmp_path, capsys, cls):
    # a class of 2**63 or more overflowed the runner's class array (a traceback)
    rows = [{"size": 1.0, "class": 1}, {"size": 1.0, "class": cls}]
    path = _write_jsonl(tmp_path / "classed.jsonl", rows)
    code, out, err = _run_cli(capsys, ["clcs", "run", "--m", "2", "--k", "1", "--input", path])
    _assert_one_line_exit_2(code, out, err)
    assert err == f"error: {path}: line 2: job class must be in [1, 2**63 - 1], got {cls}\n"


def test_clcs_run_names_the_file_line_of_a_job_without_a_class(tmp_path, capsys):
    # the loader skips blank lines, so the job's index among the jobs (2) is not its line
    path = tmp_path / "gaps.jsonl"
    path.write_text('\n\n{"size": 1.0, "class": 1}\n\n{"size": 2.0}\n')
    code, out, err = _run_cli(capsys, ["clcs", "run", "--m", "2", "--k", "1", "--input", str(path)])
    _assert_one_line_exit_2(code, out, err)
    assert err == f"error: {path}: line 5: 'class' field required for clcs\n"


def test_clcs_run_takes_class_2_pow_63_minus_1(tmp_path, capsys):
    path = _write_jsonl(tmp_path / "classed.jsonl", [{"size": 1.0, "class": 2**63 - 1}])
    code, out, _ = _run_cli(capsys, ["clcs", "run", "--m", "2", "--k", "1", "--input", path])
    assert code == 0
    assert json.loads(out)["machines"] == [1]


# `adversary --family balanced-lb --algo robust-ordinal --m 3 --k 8 --epsilon 0.5`
# as the per-arrival push loop reported it: 12 of the 21 arrivals move jobs,
# and the drive reads each round's end from the trace after the moves.  The
# scheduler's own schedule (10112.0) beats sorted round-robin (10222.0), so
# it is the reported opt and the ratio is 1, not 0.989.
_BALANCED_ROBUST_REPORT = {
    "alg_makespan": 10112.0,
    "algorithm": "robust-ordinal",
    "command": "adversary",
    "family": "balanced-lb",
    "k": 8,
    "m": 3,
    "n": 21,
    "note": None,
    "opt_provenance": "alg-schedule",
    "opt_value": 10112.0,
    "ratio": 1.0,
    "schema": 1,
    "transcript": [
        [1.0, 1], [1.0, 2], [10.0, 1], [1.0, 1], [1.0, 2], [10.0, 2], [100.0, 1],
        [1.0, 3], [10.0, 1], [1.0, 3], [10.0, 2], [100.0, 2], [1000.0, 1], [1.0, 2],
        [10.0, 3], [100.0, 1], [1.0, 3], [10.0, 3], [100.0, 2], [1000.0, 2], [10000.0, 1],
    ],
}


_BALANCED_LB = ["adversary", "--family", "balanced-lb", "--algo", "round-robin", "--m", "3", "--k", "4"]


@pytest.mark.parametrize(
    "n_param, sizes", [("inf", [1.0, 1.0]), ("1e308", [1.0, 1.0, 1e308])], ids=["inf", "1e308"]
)
def test_balanced_lb_size_overflow_note(capsys, n_param, sizes):
    # inf**1 is inf and 1e308**2 raises OverflowError: either ends the drive with the note
    code, out, _ = _run_cli(capsys, _BALANCED_LB + ["--n-param", n_param])
    report = json.loads(out)
    assert code == 0
    assert report["note"] == "unbounded-evidence: geometric size overflow"
    assert report["transcript"] == [[size, mi] for mi, size in enumerate(sizes, start=1)]


def test_balanced_lb_nan_size_exits_2(capsys):
    # refused as the parameter it is, before any job is placed
    code, out, err = _run_cli(capsys, _BALANCED_LB + ["--n-param", "nan"])
    _assert_one_line_exit_2(code, out, err)
    assert err == "error: requires N >= 2, k >= 2, round_cap >= 1\n"


@pytest.mark.parametrize("algo", ["greedy-capped", "robust-ordinal"])
def test_pure_lb_nan_n_param_exits_2(capsys, algo):
    # robust-ordinal leaves spare slots, so a NaN N would reach the runner as a size;
    # greedy-capped balances the units, so N would go unused
    argv = ["adversary", "--family", "pure-lb", "--algo", algo, "--m", "4", "--k", "3"]
    for n_param in ("nan", "inf"):
        code, out, err = _run_cli(capsys, argv + ["--n-param", n_param])
        _assert_one_line_exit_2(code, out, err)
        assert err == "error: N must be finite and > 0\n"


@pytest.mark.parametrize(
    "argv, n",
    [
        ("adversary --family pure-lb --algo greedy-capped --m 101 --k 101", 10_101),
        ("clcs adversary --family uniform-lb --m 5 --k 3 --big-m 10000", 30_015),
    ],
)
def test_adversary_report_past_the_transcript_limit_omits_it(capsys, argv, n):
    code, out, _ = _run_cli(capsys, argv.split())
    report = json.loads(out)
    assert code == 0 and report["n"] == n > cli.TRANSCRIPT_LIMIT
    assert report["transcript_omitted"] is True
    assert "transcript" not in report and "classes" not in report


def test_balanced_lb_vs_robust_ordinal_report_is_pinned(capsys):
    argv = ["adversary", "--family", "balanced-lb", "--algo", "robust-ordinal"]
    code, out, _ = _run_cli(capsys, argv + ["--m", "3", "--k", "8", "--epsilon", "0.5"])
    assert code == 0
    report = json.loads(out)
    del report["wall_time_s"]
    assert report == _BALANCED_ROBUST_REPORT


def test_clcs_run_requires_class(tmp_path, capsys):
    path = _write_jsonl(tmp_path / "sizes.jsonl", [{"size": 1.0}])
    code, _, err = _run_cli(capsys, ["clcs", "run", "--m", "2", "--k", "1", "--input", path])
    assert code != 0
    assert "class" in err


def test_clcs_adversaries(capsys):
    code, out, _ = _run_cli(capsys, ["clcs", "adversary", "--family", "identical-lb", "--m", "4"])
    assert json.loads(out)["ratio"] == 4.0
    code, out, _ = _run_cli(
        capsys,
        ["clcs", "adversary", "--family", "uniform-lb", "--m", "3", "--k", "2",
         "--speed", "2", "--beta", "1", "--eps-param", "0.01", "--big-m", "200"],
    )
    assert json.loads(out)["ratio"] >= 3.6


def _main(argv):
    """main(argv) with its output captured, for hypothesis tests, which take no capsys."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _clcs_uniform_lb(argv):
    return _main(["clcs", "adversary", "--family", "uniform-lb"] + argv)


def test_uniform_lb_opt_is_at_least_k_and_one_machine_exits_2():
    # every machine hosts k of the m*k unit classes, so opt >= k = 1, not M/s + k/s = 0.25
    code, out, _ = _clcs_uniform_lb(["--m", "2", "--k", "1", "--speed", "8", "--big-m", "1"])
    report = json.loads(out)
    assert code == 0
    assert (report["opt_value"], report["opt_provenance"]) == (1.0, "constructive")
    assert report["ratio"] == 1.99
    # M = 0: greedy's phase-1 schedule is optimal
    code, out, _ = _clcs_uniform_lb(["--m", "3", "--k", "2", "--big-m", "0"])
    report = json.loads(out)
    assert (report["opt_value"], report["opt_provenance"], report["ratio"]) == (2.0, "constructive", 1.0)
    code, out, err = _clcs_uniform_lb(["--m", "1", "--k", "2", "--big-m", "3"])
    _assert_one_line_exit_2(code, out, err)
    assert "requires m >= 2, got 1" in err


@given(
    st.integers(0, 6),
    st.integers(0, 5),
    st.sampled_from(["0", "1", "3", "29", "200"]),
    st.sampled_from(["1.01", "1.5", "2", "8"]),
    st.sampled_from(["1", "0.3", "2.5"]),
)
@settings(max_examples=150, deadline=None)
def test_uniform_lb_ratio_is_at_least_1_and_opt_at_least_the_cheap_bound(m, k, big_m, speed, beta):
    argv = ["--m", str(m), "--k", str(k), "--big-m", big_m, "--speed", speed, "--beta", beta]
    code, out, err = _clcs_uniform_lb(argv)
    if code != 0:
        _assert_one_line_exit_2(code, out, err)
        return
    report = json.loads(out)
    sizes = [size for size, _ in report["transcript"]]
    speeds = [1.0] + [float(speed)] * (m - 1)
    cheap = max(max(sizes) / max(speeds), sum(sizes) / sum(speeds))
    assert report["ratio"] >= 1.0
    assert report["opt_value"] >= cheap


def test_out_flag_writes_file(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code, out, _ = _run_cli(
        capsys,
        ["run", "--algo", "round-robin", "--m", "2", "--k", "2", "--gen", "uniform",
         "--n", "2", "--seed", "1", "--out", str(out_path)],
    )
    assert code == 0 and out == ""
    report = json.loads(out_path.read_text())
    assert report["command"] == "run"


def test_dump_structure_and_emit_map(tmp_path, capsys):
    code, out, _ = _run_cli(
        capsys,
        ["run", "--algo", "constant", "--m", "2", "--k", "64", "--gen", "uniform",
         "--n", "10", "--seed", "2", "--dump-structure"],
    )
    report = json.loads(out)
    structure = report["structure"]
    assert not structure["fallback"]
    assert structure["active_k"] <= 64
    assert len(structure["rows"]) == structure["active_k"]
    path = _write_jsonl(tmp_path / "one.jsonl", [{"size": 1}])
    code, out, _ = _run_cli(
        capsys,
        ["run", "--algo", "ordinal", "--m", "2", "--k", "2", "--input", path, "--emit-map"],
    )
    assert json.loads(out)["ordinal_map"] == [1, 2, 2, 1]


def test_phi_requires_m2_k2(capsys):
    code, _, err = _run_cli(
        capsys, ["run", "--algo", "phi", "--m", "3", "--k", "2", "--gen", "uniform", "--n", "3", "--seed", "0"]
    )
    assert code != 0 and "phi" in err


@pytest.mark.parametrize(
    "raw, algo",
    [
        ("NaN", "greedy-capped"),
        ("Infinity", "round-robin"),
        ("-Infinity", "constant"),
        ("1" + "0" * 400, "ordinal"),
    ],
)
def test_non_finite_size_exits_2_with_one_line(tmp_path, capsys, raw, algo):
    path = tmp_path / "nonfinite.jsonl"
    path.write_text('{"size": 1.0}\n{"size": ' + raw + "}\n")
    argv = ["run", "--algo", algo, "--m", "2", "--k", "2", "--input", str(path)]
    code, out, err = _run_cli(capsys, argv)
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("error: ") and "line 2" in err
    assert "finite" in err


def _assert_one_line_exit_2(code, out, err):
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("error: ")


@pytest.mark.parametrize(
    "argv",
    [
        ["run", "--algo", "greedy-capped"],
        ["run", "--algo", "round-robin"],
        ["run", "--algo", "ordinal"],
        ["oracle"],
    ],
)
def test_overflowing_size_total_exits_2_with_one_line(tmp_path, capsys, argv):
    path = _write_jsonl(tmp_path / "huge.jsonl", [{"size": 1e308}] * 3)
    code, out, err = _run_cli(capsys, argv + ["--m", "1", "--k", "3", "--input", path])
    _assert_one_line_exit_2(code, out, err)
    assert "sum" in err


def test_lower_bound_denominator_is_a_left_fold(tmp_path, capsys):
    # a compensated sum (Python 3.12's sum()) reads 1.0000000000000002e16 here
    path = _write_jsonl(tmp_path / "fold.jsonl", [{"size": s} for s in (1e16, 1.0, 1.0)])
    argv = ["run", "--algo", "round-robin", "--m", "1", "--k", "3", "--mode", "lower-bound"]
    code, out, _ = _run_cli(capsys, argv + ["--input", path])
    assert code == 0
    assert '"denominator": 1e+16,' in out
    assert json.loads(out)["final_ratio"] == 1.0


@pytest.mark.parametrize("argv", [["run", "--algo", "round-robin"], ["oracle"]])
def test_size_total_is_checked_as_a_left_fold(tmp_path, capsys, argv):
    # each 2**969 is under half an ulp of the largest float, so the left fold from 0.0
    # stays finite; a compensated sum (Python 3.12's sum()) overflows
    rows = [{"size": sys.float_info.max}] + [{"size": 2.0**969}] * 4
    path = _write_jsonl(tmp_path / "edge.jsonl", rows)
    code, out, err = _run_cli(capsys, argv + ["--m", "5", "--k", "1", "--input", path])
    assert (code, err) == (0, "")
    report = json.loads(out)
    if argv == ["oracle"]:
        assert report["opt"] == report["lower_bound"] == sys.float_info.max
    else:
        assert report["denominator"] == sys.float_info.max and report["final_ratio"] == 1.0


@pytest.mark.parametrize(
    "argv",
    [["oracle"]]
    + [
        ["run", "--algo", algo, "--mode", mode]
        for algo in ("ordinal", "round-robin", "greedy-capped")
        for mode in ("lower-bound", "exact")
    ],
)
def test_signed_zero_sizes_never_report_negative_zero(tmp_path, capsys, argv):
    # the lower bound's max() once returned the -0.0 size on a tie with the total;
    # only the echoed input transcript ("sizes") keeps the sign, for replay
    path = _write_jsonl(tmp_path / "zeros.jsonl", [{"size": -0.0}, {"size": 0.0}])
    code, out, _ = _run_cli(capsys, argv + ["--m", "2", "--k", "2", "--input", path])
    assert code == 0
    report = json.loads(out)
    report.pop("sizes", None)
    assert "-0.0" not in json.dumps(report)


@pytest.mark.parametrize(
    "algo, k", [(algo, 2) for algo in SCHEDULERS] + [("constant", 60), ("ordinal", 2)]
)
def test_every_run_key_accepts_size_zero(tmp_path, capsys, algo, k):
    # one job contract: zeros are valid sizes for every scheduler (constant at
    # k = 2 is fallback, at k = 60 its structure is live)
    path = _write_jsonl(tmp_path / "zeros.jsonl", [{"size": 0.0}, {"size": 2.0}, {"size": 0}])
    argv = ["run", "--algo", algo, "--m", "2", "--k", str(k), "--input", path]
    code, out, err = _run_cli(capsys, argv)
    assert code == 0 and err == ""
    report = json.loads(out, parse_constant=_reject_constant)
    assert report["n"] == 3 and report["final_makespan"] == 2.0


@pytest.mark.parametrize(
    "algo", ["round-robin", "robust-ordinal", "ordinal", "greedy-clcs", "oracle"]
)
def test_negative_size_exits_2_with_one_line(tmp_path, capsys, algo):
    # the loader refuses it for every command, naming the file and line
    rows = [{"size": 1.0, "class": 1}, {"size": -2.0, "class": 2}]
    path = _write_jsonl(tmp_path / "negative.jsonl", rows)
    argv = {"greedy-clcs": ["clcs", "run"], "oracle": ["oracle"]}.get(algo, ["run", "--algo", algo])
    argv += ["--m", "2", "--k", "2", "--input", path]
    code, out, err = _run_cli(capsys, argv)
    _assert_one_line_exit_2(code, out, err)
    assert err == f"error: {path}: line 2: size must be finite and >= 0, got -2.0\n"


def test_non_finite_report_value_exits_2_with_one_line(tmp_path, capsys):
    # one class pins both jobs to machine 1, whose load overflows to inf
    path = _write_jsonl(tmp_path / "huge.jsonl", [{"size": 1e308, "class": 1}] * 2)
    code, out, err = _run_cli(capsys, ["clcs", "run", "--m", "2", "--k", "1", "--input", path])
    _assert_one_line_exit_2(code, out, err)


@pytest.mark.parametrize(
    "argv",
    [
        ["clcs", "adversary", "--family", "uniform-lb", "--m", "0", "--k", "2"],
        ["clcs", "adversary", "--family", "identical-lb", "--m", "3", "--k", "0"],
        ["adversary", "--family", "balanced-lb", "--algo", "round-robin", "--m", "0", "--k", "3"],
        # named before the capacity check, which would read m*k = 0 or -2
        ["run", "--algo", "round-robin", "--m", "0", "--k", "5", "--gen", "uniform", "--n", "3"],
        ["run", "--algo", "round-robin", "--m", "-1", "--k", "2", "--gen", "uniform", "--n", "0"],
    ],
)
def test_machine_count_or_cap_below_one_exits_2_with_one_line(capsys, argv):
    code, out, err = _run_cli(capsys, argv)
    _assert_one_line_exit_2(code, out, err)
    assert "must be >= 1" in err


_HUGE = str(10**20)
_UNIFORM_LB = ["clcs", "adversary", "--family", "uniform-lb", "--m", "2", "--k", "1"]


@pytest.mark.parametrize(
    "argv",
    [
        ["oracle", "--m", _HUGE, "--k", "1", "--gen", "uniform", "--n", "2", "--seed", "1"],
        ["clcs", "run", "--m", _HUGE, "--k", "1", "--input", None],
        ["run", "--algo", "ordinal", "--m", _HUGE, "--k", "1", "--gen", "uniform", "--n", "2"],
        # the widest machine index the runner's job -> machine array holds is 2**31 - 1
        ["run", "--algo", "round-robin", "--m", str(2**31), "--k", "1", "--gen", "uniform", "--n", "1"],
        _UNIFORM_LB + ["--beta", "1e308", "--eps-param", "1e-309"],  # round(M * beta) = round(inf)
        _UNIFORM_LB + ["--beta", "1e300", "--eps-param", "1e-301"],  # rounds past a C ssize_t
        _UNIFORM_LB + ["--big-m", str(10**400)],  # M too large for a float
    ],
)
def test_overflowing_value_exits_2_with_one_line(tmp_path, capsys, argv):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    argv = [str(empty) if a is None else a for a in argv]
    code, out, err = _run_cli(capsys, argv)
    _assert_one_line_exit_2(code, out, err)


@pytest.mark.parametrize("speeds", ["1,2", "1,-2,0.5", "1,0,1", "1,inf,1", "1,nan,1"])
def test_clcs_run_rejects_bad_speeds(tmp_path, capsys, speeds):
    rows = [{"size": 1.0, "class": 1}, {"size": 5.0, "class": 2}, {"size": 4.0, "class": 3}]
    path = _write_jsonl(tmp_path / "classed.jsonl", rows)
    argv = ["clcs", "run", "--m", "3", "--k", "1", "--input", path, "--speeds", speeds]
    code, out, err = _run_cli(capsys, argv)
    _assert_one_line_exit_2(code, out, err)
    assert "speeds" in err


@pytest.mark.parametrize("command", ["run", "adversary"])
def test_epsilon_too_small_to_change_one_exits_2_with_one_line(capsys, command):
    # 1 + 1e-20 == 1.0, so no power of (1 + eps) can round a size up; inf and
    # nan are refused too, at construction, so even a stream with no sizes
    # (--n 0) or only zeros never rounds one and never reports the bad eps
    for eps, n in (("1e-20", "3"), ("inf", "3"), ("nan", "3"), ("inf", "0"), ("nan", "0")):
        argv = ["--algo", "robust-ordinal", "--m", "2", "--k", "2", "--epsilon", eps]
        if command == "run":
            argv = ["run", *argv, "--gen", "uniform", "--n", n]
        else:
            argv = ["adversary", "--family", "pure-lb", *argv]
        code, out, err = _run_cli(capsys, argv)
        _assert_one_line_exit_2(code, out, err)
        assert "1 + eps" in err


_RUN_AND_ORACLE = [
    ["run", "--algo", "round-robin", "--m", "2", "--k", "2"],
    ["oracle", "--m", "2", "--k", "2"],
]


@pytest.mark.parametrize("argv", _RUN_AND_ORACLE)
def test_neither_input_nor_gen_exits_2_with_one_line(capsys, argv):
    code, out, err = _run_cli(capsys, argv)
    _assert_one_line_exit_2(code, out, err)
    assert err == "error: either --input or --gen is required\n"


@pytest.mark.parametrize("argv", _RUN_AND_ORACLE)
def test_input_and_gen_together_exit_2_with_one_line(tmp_path, capsys, argv):
    # a report would name a generator and a seed that produced none of its sizes
    path = _write_jsonl(tmp_path / "two.jsonl", [{"size": 1.0}, {"size": 2.0}])
    gen = ["--gen", "uniform", "--n", "3", "--seed", "9"]
    code, out, err = _run_cli(capsys, argv + ["--input", path] + gen)
    _assert_one_line_exit_2(code, out, err)
    assert "--input and --gen" in err


@pytest.mark.parametrize("argv", _RUN_AND_ORACLE)
@pytest.mark.parametrize(
    "length, message", [(["--n", "-5"], "--n must be >= 0, got -5"), ([], "--gen needs --n")]
)
def test_gen_without_a_length_exits_2_with_one_line(capsys, argv, length, message):
    # a report would read "n": 0 next to a generator and a seed that produced no sizes
    code, out, err = _run_cli(capsys, argv + ["--gen", "uniform", "--seed", "1", *length])
    _assert_one_line_exit_2(code, out, err)
    assert message in err


def test_gen_with_n_0_is_the_empty_stream(capsys):
    argv = ["run", "--algo", "round-robin", "--m", "2", "--k", "2", "--gen", "uniform", "--n", "0"]
    code, out, _ = _run_cli(capsys, argv)
    assert code == 0
    assert json.loads(out)["n"] == 0


@pytest.mark.parametrize(
    "argv",
    [
        ["oracle", "--m", "4", "--k", "8"],
        ["run", "--algo", "ordinal", "--m", "4", "--k", "8", "--mode", "exact"],
        ["run", "--algo", "greedy-capped", "--m", "4", "--k", "8", "--mode", "exact"],
    ],
)
def test_exact_solve_over_the_job_limit_exits_2_with_one_line(tmp_path, capsys, argv):
    # 21 integer jobs: one over EXACT_RECOMMENDED_MAX_JOBS, for every exact solve
    rng = random.Random(5)
    path = _write_jsonl(tmp_path / "jobs.jsonl", [{"size": rng.randint(0, 100)} for _ in range(21)])
    code, out, err = _run_cli(capsys, argv + ["--input", path])
    _assert_one_line_exit_2(code, out, err)
    assert "21 jobs > 20" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["run", "--algo", "round-robin", "--m", "1", "--k", "1"], "jobs exceed capacity m*k = 1"),
        (["oracle", "--m", "4", "--k", "5"], "jobs > 20; use a lower bound instead"),
    ],
)
def test_oversized_gen_exits_2_before_making_sizes(capsys, monkeypatch, argv, message):
    code, out, err = _run_cli(capsys, argv + ["--gen", "uniform", "--n", "21"])
    _assert_one_line_exit_2(code, out, err)
    assert f"21 {message}" in err

    def generate_sizes(*_):
        raise AssertionError("--gen made the sizes of a stream it refuses")

    monkeypatch.setattr(cli, "generate_sizes", generate_sizes)
    code, out, err = _run_cli(capsys, argv + ["--gen", "uniform", "--n", str(10**12)])
    _assert_one_line_exit_2(code, out, err)
    assert f"{10**12} {message}" in err


def test_out_of_memory_exits_2_with_one_line(capsys, monkeypatch):
    def run_stream(scheduler, sizes, m, k):
        raise MemoryError

    monkeypatch.setattr(cli, "run_stream", run_stream)
    argv = ["run", "--algo", "round-robin", "--m", "3", "--k", "2", "--gen", "uniform", "--n", "4"]
    code, out, err = _run_cli(capsys, argv)
    _assert_one_line_exit_2(code, out, err)
    assert err == "error: out of memory\n"


def test_constant_takes_sizes_from_2_pow_1023_up(tmp_path, capsys):
    # rounding 1e308 down to 2**1023 once probed 2**1024 and overflowed (a traceback)
    path = _write_jsonl(tmp_path / "huge.jsonl", [{"size": 1e308}, {"size": 3.0}])
    argv = ["run", "--algo", "constant", "--m", "2", "--k", "50", "--input", path]
    code, out, _ = _run_cli(capsys, argv + ["--dump-structure"])
    assert code == 0
    report = json.loads(out)
    assert report["final_makespan"] == 1e308
    assert report["structure"]["p_max"] == 2.0**1023


def _reject_constant(name):
    raise ValueError(f"non-strict JSON constant {name}")


_fuzz_size = st.sampled_from([0.0, 1e-300, 1.0, 2.5, 7.0, 3.0, 1e308, -1.0])
_small = st.integers(0, 4)
_fuzz_epsilon = st.sampled_from(["1e-20", "1e-9", "0.5", "1", "2", "inf"])


@st.composite
def _fuzz_argv(draw):
    """A parseable command line and the JSONL rows of its --input (None: no input)."""
    command = draw(st.sampled_from(["run", "oracle", "adversary", "clcs-run", "clcs-adversary"]))
    m, k = draw(_small), draw(_small)
    # up to 21 jobs for the oracle: one past its exact-solve limit
    limit = 21 if command == "oracle" else min(m * k + 1, 8)
    rows = [{"size": s} for s in draw(st.lists(_fuzz_size, max_size=limit))]
    if command == "run":
        algo = draw(st.sampled_from([*SCHEDULERS, "ordinal"]))
        mode = draw(st.sampled_from(["auto", "exact", "lower-bound"]))
        argv = ["run", "--algo", algo, "--m", str(m), "--k", str(k), "--mode", mode]
        return argv + ["--epsilon", draw(_fuzz_epsilon)], rows
    if command == "oracle":
        return ["oracle", "--m", str(m), "--k", str(k)], rows
    if command == "clcs-run":
        for row in rows:
            row["class"] = draw(st.sampled_from([-1, 0, 1, 2, 3, 2**63]))
        return ["clcs", "run", "--m", str(m), "--k", str(k)], rows
    if command == "clcs-adversary":
        family = draw(st.sampled_from(["identical-lb", "uniform-lb"]))
        speed = draw(st.sampled_from(["0.5", "2", "inf"]))
        big_m = draw(st.integers(-1, 5))
        argv = ["clcs", "adversary", "--family", family, "--m", str(m), "--k", str(k)]
        return argv + ["--speed", speed, "--big-m", str(big_m)], None
    family = draw(st.sampled_from(["pure-lb", "balanced-lb", "robust-lb", "phi-lb"]))
    if family == "robust-lb":
        k = draw(st.integers(0, 8))
    argv = ["adversary", "--family", family, "--algo", draw(st.sampled_from(list(SCHEDULERS)))]
    argv += ["--m", str(m), "--k", str(k), "--round-cap", str(draw(st.integers(0, 3)))]
    argv += ["--n-param", draw(st.sampled_from(["-1", "0", "1", "2", "3.5", "1e200"]))]
    argv += ["--big-m", draw(st.sampled_from(["0", "3", "10", "1e200"]))]
    return argv + ["--epsilon", draw(_fuzz_epsilon)], None


# lines that are not valid UTF-8: a lone byte, one inside a string, a truncated
# sequence, an encoded surrogate, and a byte after a lone \r line break
_fuzz_bad_line = st.sampled_from(
    [b"\xff", b'{"size": 1.0, "x": "\xfe"}', b'{"size": 2.0}\xc3', b"\xed\xa0\x80", b'{"size": 3.0}\r\x80']
)


@st.composite
def _fuzz_case(draw):
    """_fuzz_argv's case, its input rows encoded as lines, one in four with a line of invalid UTF-8."""
    argv, rows = draw(_fuzz_argv())
    if rows is None:
        return argv, None
    lines = [json.dumps(r).encode() for r in rows]
    if draw(st.integers(0, 3)) == 0:
        lines.insert(draw(st.integers(0, len(lines))), draw(_fuzz_bad_line))
    return argv, lines


@given(_fuzz_case())
@settings(max_examples=200, deadline=None)
def test_cli_fuzz_ends_in_strict_json_or_one_line_exit_2(tmp_path_factory, case):
    argv, lines = case
    if lines is not None:
        path = tmp_path_factory.mktemp("fuzz") / "jobs.jsonl"
        path.write_bytes(b"".join(line + b"\n" for line in lines))
        argv = argv + ["--input", str(path)]
    code, out, err = _main(argv)
    if code == 0:
        assert err == ""
        json.loads(out, parse_constant=_reject_constant)
    else:
        _assert_one_line_exit_2(code, out, err)


def _masked(out: str) -> dict:
    report = json.loads(out)
    report["wall_time_s"] = 0.0
    return report


def test_a_reused_parser_leaks_no_flag_or_default(capsys, monkeypatch):
    argv = ["run", "--algo", "constant", "--m", "2", "--k", "60", "--gen", "uniform", "--n", "3"]
    code, out, _ = _run_cli(capsys, argv + ["--seed", "5", "--dump-structure"])
    first = json.loads(out)
    assert code == 0 and first["seed"] == 5 and "structure" in first
    code, reused, _ = _run_cli(capsys, argv)
    second = json.loads(reused)
    assert code == 0 and second["seed"] == 0 and "structure" not in second
    monkeypatch.setattr(cli, "make_parser", make_parser.__wrapped__)  # a new parser per call
    code, fresh, _ = _run_cli(capsys, argv)
    assert code == 0 and _masked(reused) == _masked(fresh)


def test_a_usage_error_leaves_the_parser_reusable(capsys):
    argv = ["oracle", "--m", "2", "--k", "3", "--gen", "uniform", "--n", "5", "--seed", "4"]
    code, first, _ = _run_cli(capsys, argv)
    assert code == 0
    with pytest.raises(SystemExit) as exc:
        main(["oracle", "--k", "3", "--gen", "uniform", "--n", "5"])  # no --m
    assert exc.value.code == 2
    assert "--m" in capsys.readouterr().err
    code, again, _ = _run_cli(capsys, argv)
    assert code == 0 and _masked(again) == _masked(first)


def test_make_parser_builds_once_until_its_cache_is_cleared():
    parser = make_parser()
    assert make_parser() is parser
    make_parser.cache_clear()
    assert make_parser() is not parser

