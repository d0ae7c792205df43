import contextlib
import io
import itertools
import json
import os
import pathlib
import re
import subprocess
import sys
import tempfile

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import hideseek.cli as cli
from hideseek.cli import main
from hideseek.experiments import MODELS

import reference as ref
from oracles import simulate_text, solve_text, voi_text

ROOT = pathlib.Path(__file__).resolve().parents[1]
INSTANCES = ROOT / "instances"


@pytest.fixture()
def three_sites_path(tmp_path):
    path = tmp_path / "three.json"
    path.write_text(
        json.dumps({"origin": [0, 0], "locations": [[1, 0], [2, 1], [2, -1]]}),
        encoding="utf-8",
    )
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_solve_base(capsys, three_sites_path):
    code, out, _ = run_cli(capsys, "solve", three_sites_path, "--model", "base")
    assert code == 0
    assert "value: 3.3251" in out
    assert "seeker mix:" in out and "hider mix:" in out


def test_solve_feedback(capsys, three_sites_path):
    code, out, _ = run_cli(
        capsys, "solve", three_sites_path,
        "--model", "feedback", "--t-reveal", "1", "--cost", "1",
    )
    assert code == 0
    assert "value: 2.9142" in out
    assert "h=(" in out  # seeker mixes over prefix classes


def test_solve_restricted(capsys, three_sites_path):
    code, out, _ = run_cli(
        capsys, "solve", three_sites_path,
        "--model", "restricted", "--t-reveal", "1", "--cost", "1",
    )
    assert code == 0
    assert "value: 3.6462" in out


def test_solve_t_reveal_out_of_range(capsys, three_sites_path):
    code, _, err = run_cli(
        capsys, "solve", three_sites_path, "--model", "restricted", "--t-reveal", "9",
    )
    assert code == 2
    assert "1..2" in err


@pytest.mark.parametrize(
    "argv,message",
    [
        (["sweep", "--t-list", "1,5"], "--t-list must be in 1..2"),
        (["verify", "--t-list", "0"], "--t-list must be in 1..2"),
        (["voi", "--t-reveal", "3"], "--t-reveal must be in 1..2"),
        (["simulate", "--t-reveal", "4", "--trials", "10"], "--t-reveal must be in 1..3"),
    ],
    ids=["sweep", "verify", "voi", "simulate"],
)
def test_reveal_time_errors_name_the_flag(capsys, three_sites_path, argv, message):
    code, _, err = run_cli(capsys, argv[0], three_sites_path, *argv[1:])
    assert code == 2
    assert message in err


@pytest.mark.parametrize("name,n", [("three_sites", 3), ("six_sites", 6)])
def test_simulate_plays_the_game_solve_solves(capsys, name, n):
    path = str(INSTANCES / f"{name}.json")

    def value(command, key, *argv):
        code, out, _ = run_cli(capsys, command, path, "--precision", "12", *argv)
        assert code == 0, argv
        return next(line for line in out.splitlines() if line.startswith(key))[len(key):]

    base = value("solve", "value: ", "--model", "base")
    for model in MODELS:
        for t in (1, n - 1):
            for c in ("0.5", "1"):
                flags = ["--model", model, "--t-reveal", str(t), "--cost", c]
                solved = base if model == "base" else value("solve", "value: ", *flags)
                assert value("simulate", "game value: ", *flags, "--trials", "1") == solved, flags
        # revealing after the last visit leaves every model with the base game
        last = ["--model", model, "--t-reveal", str(n), "--trials", "1"]
        assert value("simulate", "game value: ", *last) == base, model


@pytest.mark.parametrize("name,t,c", list(ref.SIMULATE_SADDLE_STDOUT))
def test_feedback_simulate_plays_pure_saddles_as_recorded(capsys, name, t, c):
    code, out, _ = run_cli(
        capsys, "simulate", str(INSTANCES / f"{name}.json"), "--model", "feedback",
        "--t-reveal", t, "--cost", c, "--precision", "12",
    )
    assert code == 0
    assert out == ref.SIMULATE_SADDLE_STDOUT[name, t, c]


@pytest.mark.parametrize("model", MODELS)
def test_simulate_at_the_last_reveal_plays_the_base_game_as_recorded(capsys, model):
    code, out, _ = run_cli(
        capsys, "simulate", str(INSTANCES / "three_sites.json"), "--model", model,
        "--t-reveal", "3", "--trials", "20000", "--precision", "12",
    )
    assert code == 0
    assert out == f"model: {model}\n" + ref.SIMULATE_LAST_REVEAL_3


def test_solve_base_rejects_reveal_flags(capsys, three_sites_path):
    code, _, err = run_cli(
        capsys, "solve", three_sites_path, "--model", "base", "--t-reveal", "1",
    )
    assert code == 2
    assert "restricted" in err


def test_emit_matrix(capsys, three_sites_path):
    code, out, _ = run_cli(
        capsys, "solve", three_sites_path, "--model", "base", "--emit-matrix",
    )
    assert code == 0
    assert "payoff matrix:" in out
    assert "row,1,2,3" in out


# stdout of `solve instances/three_sites.json --t-reveal 1 --cost 1
# --emit-matrix`: the feedback game's rows are prefixes, labelled h1.., the
# restricted game's rows are routes, labelled r1..
EMITTED = {
    "feedback": """model: feedback
value: 2.9142
row gap: 0.000e+00
col gap: 0.000e+00
seeker mix:
  h=(1): 1.0000
hider mix:
  2: 0.6803
  3: 0.3197
payoff matrix:
row,1,2,3
h1,1,2.914213562,2.914213562
h2,3.943174759,2.236067977,4.357388321
h3,3.943174759,4.357388321,2.236067977
""",
    "restricted": """model: restricted
value: 3.6462
row gap: 4.441e-16
col gap: -4.441e-16
seeker mix:
  r1=(1,2,3): 0.4310
  r4=(2,3,1): 0.1953
  r6=(3,2,1): 0.3738
hider mix:
  1: 0.0920
  2: 0.4540
  3: 0.4540
payoff matrix:
row,1,2,3
r1,1,3.414213562,4.414213562
r2,1,4.414213562,3.414213562
r3,4.064495102,2.236067977,5.064495102
r4,5.65028154,2.236067977,4.65028154
r5,4.064495102,5.064495102,2.236067977
r6,5.65028154,4.65028154,2.236067977
""",
}


@pytest.mark.parametrize("model", sorted(EMITTED))
def test_emit_matrix_labels_prefix_and_route_rows(capsys, model):
    code, out, err = run_cli(
        capsys, "solve", str(INSTANCES / "three_sites.json"),
        "--model", model, "--t-reveal", "1", "--cost", "1", "--emit-matrix",
    )
    assert (code, out, err) == (0, EMITTED[model], "")


@pytest.mark.parametrize(
    "argv,message",
    [
        (["sweep", "--costs", "1,x"], "--costs: could not convert string to float: 'x'"),
        (["verify", "--costs", "0.5,,nan0"], "--costs: could not convert string to float: 'nan0'"),
        (["sweep", "--t-list", "1,a"], "--t-list: invalid literal for int() with base 10: 'a'"),
        (["verify", "--t-list", "1.5"], "--t-list: invalid literal for int() with base 10: '1.5'"),
        (["voi", "--hider-mix", "0.5,y,0.5"], "--hider-mix: could not convert string to float: 'y'"),
    ],
    ids=["costs", "costs-verify", "t-list", "t-list-float", "hider-mix"],
)
def test_bad_list_value_exits_2(capsys, three_sites_path, argv, message):
    code, out, err = run_cli(capsys, argv[0], three_sites_path, *argv[1:])
    assert (code, out, err) == (2, "", f"error: bad value in {message}\n")


def test_corrupt_instance_exits_3(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{ nope", encoding="utf-8")
    code, _, err = run_cli(capsys, "solve", str(bad))
    assert code == 3
    assert "instance error" in err
    code, _, _ = run_cli(capsys, "verify", str(tmp_path / "missing.json"))
    assert code == 3


def test_dict_origin_exits_3(capsys, tmp_path):
    path = tmp_path / "dict.json"
    path.write_text(json.dumps({"origin": {"x": 0}, "locations": [[1, 0]]}), encoding="utf-8")
    code, out, err = run_cli(capsys, "solve", str(path))
    assert code == 3
    assert out == ""
    assert "instance error: bad coordinates" in err


def test_unknown_flag_exits_2(capsys, three_sites_path):
    code, _, _ = run_cli(capsys, "solve", three_sites_path, "--nope")
    assert code == 2
    code, _, _ = run_cli(capsys, "sweep", three_sites_path, "--trials", "5")
    assert code == 2  # trials belongs to simulate only


def test_voi_report(capsys, three_sites_path):
    code, out, _ = run_cli(
        capsys, "voi", three_sites_path, "--t-reveal", "1", "--cost", "1",
    )
    assert code == 0
    assert "expected voi: 0.0000" in out
    assert "0.5858" in out  # threshold table and its maximum
    assert "--" in out  # visited cells
    assert "route-averaged voi: 0.2" in out


def test_voi_last_reveal_zero(capsys, three_sites_path):
    code, out, _ = run_cli(
        capsys, "voi", three_sites_path, "--t-reveal", "2", "--cost", "1",
    )
    assert code == 0
    assert "expected voi: 0.0000" in out


def test_voi_route_variant(capsys, three_sites_path):
    code, out, _ = run_cli(
        capsys, "voi", three_sites_path, "--cstar-variant", "route",
    )
    assert code == 0
    assert "cstar table (variant=route):" in out
    assert "cstar global: 2.0000" in out


def test_solve_six_sites_remaining_convention(capsys, tmp_path):
    path = tmp_path / "six.json"
    path.write_text(
        json.dumps({
            "origin": [0, 0],
            "locations": [[1, 1], [2, 2], [2, 1], [5, 1], [3, 5], [5, 3]],
        }),
        encoding="utf-8",
    )
    code, out, _ = run_cli(
        capsys, "solve", str(path), "--model", "restricted",
        "--t-reveal", "1", "--cost", "1", "--convention", "remaining",
    )
    assert code == 0
    assert "value: 8.5255" in out


def test_voi_csv_and_overrides(capsys, three_sites_path):
    code, out, _ = run_cli(
        capsys, "voi", three_sites_path, "--csv", "--hider-mix", "0.2,0.3,0.5",
    )
    assert code == 0
    assert out.startswith("# t_reveal=1,c=1,convention=total,variant=infoset")
    for mix in ("", ",", "0.2,0.3", "nan,0.5,0.5", "inf,0.5,0.5", "-0.5,0.5,1", "0.2,0.3,0.4"):
        code, _, err = run_cli(capsys, "voi", three_sites_path, "--hider-mix", mix)
        assert code == 2, mix
        assert "hider-mix" in err, mix


def test_sweep_csv(capsys, three_sites_path):
    code, out, _ = run_cli(
        capsys, "sweep", three_sites_path, "--t-list", "1", "--costs", "0,1",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("t_reveal,c,v_base")
    assert len(lines) == 3


def test_sweep_empty_costs(capsys, three_sites_path):
    code, _, err = run_cli(capsys, "sweep", three_sites_path, "--costs", "")
    assert code == 2
    assert "empty" in err


def test_verify_passes(capsys, three_sites_path):
    code, out, _ = run_cli(
        capsys, "verify", three_sites_path, "--costs", "0,0.5,1,2.5",
    )
    assert code == 0
    assert "all checks passed" in out
    assert "FAIL" not in out


def test_verify_six_sites(capsys, tmp_path):
    path = tmp_path / "six.json"
    path.write_text(
        json.dumps({
            "origin": [0, 0],
            "locations": [[1, 1], [2, 2], [2, 1], [5, 1], [3, 5], [5, 3]],
        }),
        encoding="utf-8",
    )
    code, out, _ = run_cli(
        capsys, "verify", str(path), "--t-list", "1,3", "--costs", "0,1,5",
    )
    assert code == 0
    assert "all checks passed" in out


def test_solver_failure_exits_4(capsys, three_sites_path, monkeypatch):
    from hideseek.matrixgame import SolverError

    def boom(_):
        raise SolverError("synthetic failure")

    monkeypatch.setattr("hideseek.cli.solve_zero_sum", boom)
    code, _, err = run_cli(capsys, "solve", three_sites_path, "--model", "base")
    assert code == 4
    assert "solver error" in err


def test_a_game_slack_under_both_solvers_exits_4(capsys, three_sites_path, monkeypatch):
    # no certificate passes a negative tolerance: HiGHS's solution fails,
    # the simplex's fails too, and solve exits with a solver error
    monkeypatch.setattr("hideseek.matrixgame.GAP_TOL", -1.0)
    code, out, err = run_cli(capsys, "solve", three_sites_path, "--model", "base")
    assert (code, out) == (4, "")
    assert "solver error: solution failed certification" in err


@pytest.mark.parametrize("argv", [["solve"], ["simulate", "--trials", "10"]])
def test_a_game_highs_refuses_goes_to_the_simplex(capsys, tmp_path, argv):
    # HiGHS refuses a distance of 1e150 ("Model error"); the 1 x 1 game goes
    # on to the simplex, which closes it at its start basis
    path = tmp_path / "far.json"
    path.write_text(json.dumps({"origin": [1, 1], "locations": [[-1e150, 1]]}), encoding="utf-8")
    code, out, err = run_cli(capsys, argv[0], str(path), *argv[1:])
    assert (code, err) == (0, "")
    assert "value: 999999999999999980835596172437374590573120014030318793091164810154100" in out


ZERO_GAME_COMMANDS = [
    *(["solve", "--model", model, "--emit-matrix"] for model in MODELS),
    ["voi"],
    ["voi", "--csv"],
    ["sweep"],
    *(["simulate", "--model", model, "--trials", "1000"] for model in MODELS),
    ["verify"],
]


@pytest.mark.parametrize("argv", ZERO_GAME_COMMANDS, ids=" ".join)
def test_a_zero_valued_game_prints_no_negative_zero(capsys, tmp_path, argv):
    # every point coincides, so every game is all zeros: both solvers
    # returned its value as -0.0, which the sweep CSV printed as -0 and the
    # column gap as -0.000e+00
    path = tmp_path / "zero.json"
    path.write_text(json.dumps({"origin": [0, 0], "locations": [[0, 0]] * 3}), encoding="utf-8")
    code, out, err = run_cli(capsys, argv[0], str(path), *argv[1:])
    assert (code, err) == (0, "")
    assert [token for token in re.split(r"[\s,:=()]+", out) if token.startswith("-0")] == []


def test_solve_output_is_byte_stable(capsys, three_sites_path):
    argv = ["solve", three_sites_path, "--model", "restricted",
            "--t-reveal", "1", "--cost", "1"]
    _, out1, _ = run_cli(capsys, *argv)
    _, out2, _ = run_cli(capsys, *argv)
    assert out1 == out2


def test_simulate_deterministic_output(capsys, three_sites_path):
    argv = [
        "simulate", three_sites_path, "--model", "restricted",
        "--t-reveal", "1", "--cost", "1", "--trials", "20000", "--seed", "7",
    ]
    code1, out1, _ = run_cli(capsys, *argv)
    code2, out2, _ = run_cli(capsys, *argv)
    assert code1 == code2 == 0
    assert out1 == out2
    assert "mean payoff:" in out1


def test_output_file(capsys, three_sites_path, tmp_path):
    target = tmp_path / "out.txt"
    code, out, _ = run_cli(
        capsys, "solve", three_sites_path, "--model", "base", "--output", str(target),
    )
    assert code == 0
    assert out == ""
    assert "value: 3.3251" in target.read_text(encoding="utf-8")


def test_precision_flag(capsys, three_sites_path):
    code, out, _ = run_cli(
        capsys, "solve", three_sites_path, "--model", "base", "--precision", "6",
    )
    assert code == 0
    assert "value: 3.325141" in out


def _write_instance(tmp_path, n):
    path = tmp_path / f"sites{n}.json"
    locations = [[1 + k % 3, k // 3] for k in range(n)]
    path.write_text(json.dumps({"origin": [0, 0], "locations": locations}), encoding="utf-8")
    return str(path)


@pytest.mark.parametrize("cost", ["nan", "inf", "-1"])
def test_non_finite_or_negative_cost_exits_2(capsys, three_sites_path, cost):
    for argv in (
        ["solve", three_sites_path, "--model", "restricted", "--cost", cost],
        ["solve", three_sites_path, "--model", "feedback", "--cost", cost],
        ["simulate", three_sites_path, "--model", "feedback", "--cost", cost, "--trials", "10"],
        ["voi", three_sites_path, "--cost", cost],
        ["sweep", three_sites_path, "--costs", f"0,{cost}"],
        ["verify", three_sites_path, "--costs", f"0,{cost}"],
    ):
        code, _, err = run_cli(capsys, *argv)
        assert code == 2, argv
        assert "finite and >= 0" in err, argv


def test_cost_flags_name_the_flag_and_the_first_bad_cost(capsys, three_sites_path):
    # the CLI takes the cost rule and its message from matrixgame.check_cost
    for argv, flag in (
        (["solve", three_sites_path, "--model", "feedback", "--cost", "-0.5"], "--cost"),
        (["voi", three_sites_path, "--cost", "-0.5"], "--cost"),
        (["simulate", three_sites_path, "--cost", "-0.5", "--trials", "10"], "--cost"),
        (["sweep", three_sites_path, "--costs", "0,-0.5,nan"], "--costs"),
        (["verify", three_sites_path, "--costs", "1,-0.5,-2"], "--costs"),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert err == f"error: {flag}: switching cost must be finite and >= 0, got -0.5\n", argv


def test_too_many_locations_exits_3(capsys, tmp_path):
    path = _write_instance(tmp_path, 9)
    for command in ("solve", "voi", "sweep", "simulate", "verify"):
        code, _, err = run_cli(capsys, command, path)
        assert code == 3, command
        assert "at most 8" in err


@pytest.mark.parametrize(
    "flag", [["--workers", "4"], ["--convention", "remaining"]], ids=["workers", "convention"]
)
def test_simulate_rejects_retired_flags(capsys, three_sites_path, flag):
    # simulate never used either: trials are not split, payoffs are total-convention
    code, _, err = run_cli(capsys, "simulate", three_sites_path, "--trials", "10", *flag)
    assert code == 2
    assert flag[0] in err


def test_negative_precision_exits_2(capsys, three_sites_path):
    code, _, err = run_cli(capsys, "solve", three_sites_path, "--precision", "-2")
    assert code == 2
    assert "--precision" in err


@pytest.mark.parametrize("precision", ["101", "3000000000", "100000000000"])
def test_huge_precision_exits_2(capsys, three_sites_path, precision):
    code, out, err = run_cli(capsys, "solve", three_sites_path, "--precision", precision)
    assert code == 2
    assert out == ""
    assert err == f"error: --precision must be <= 100, got {precision}\n"
    code, out, _ = run_cli(capsys, "solve", three_sites_path, "--precision", "100")
    assert code == 0
    assert "value: 3.32514076993644236424" in out


def test_overflowing_hider_mix_exits_2_without_warning(capsys, three_sites_path):
    code, out, err = run_cli(capsys, "voi", three_sites_path, "--hider-mix", "1e308,1e308,1e308")
    assert code == 2
    assert out == ""
    assert err == "error: --hider-mix is not on the probability simplex\n"


@pytest.mark.parametrize("cost", ["10", "1e12", "1e100", "1e308"])
def test_large_cost_keeps_the_stay_payoff(capsys, cost):
    # past every threshold the Hider stays, whatever the size of c
    code, out, _ = run_cli(
        capsys, "solve", str(INSTANCES / "three_sites.json"),
        "--model", "feedback", "--cost", cost, "--precision", "8",
    )
    assert code == 0
    assert "value: 2.41421356\n" in out


@pytest.mark.parametrize("cost", ["1e16", "1e20", "1e308"])
def test_feedback_simulate_at_huge_costs_plays_the_stay_payoff(capsys, cost):
    # HiGHS rejects the subgame LPs at these costs; the Hider's dominant stay needs none
    code, out, _ = run_cli(
        capsys, "simulate", str(INSTANCES / "three_sites.json"),
        "--model", "feedback", "--t-reveal", "1", "--cost", cost, "--trials", "10",
    )
    assert code == 0
    assert "game value: 2.4142\n" in out
    assert "stderr: 0.0000\n" in out


@pytest.mark.parametrize("name", ["three_sites", "six_sites", "collinear_three"])
@pytest.mark.parametrize("model", ["restricted", "feedback"])
@pytest.mark.parametrize("command", ["solve", "simulate"])
def test_huge_cost_prints_what_a_cost_past_cstar_prints(capsys, name, model, command):
    # past every threshold the game no longer depends on c; at 1e16 the
    # subgame entries dwarf the distances, and every LP still solves or is skipped
    path = str(INSTANCES / f"{name}.json")
    extra = ("--trials", "1000") if command == "simulate" else ()
    runs = [
        run_cli(capsys, command, path, "--model", model, "--t-reveal", "1", "--cost", cost, *extra)
        for cost in ("1e16", "1e6")
    ]
    assert runs[0][0] == 0
    assert runs[0] == runs[1]


@pytest.mark.parametrize("name", ["three_sites", "six_sites", "collinear_three"])
def test_sweep_at_the_largest_cost_matches_a_cost_past_cstar(capsys, name):
    path = str(INSTANCES / f"{name}.json")

    def rows(costs):
        code, out, _ = run_cli(capsys, "sweep", path, "--costs", costs)
        assert code == 0
        return [dict(zip(out.splitlines()[0].split(","), line.split(",")))
                for line in out.splitlines()[1:]]

    huge = rows("1e308")
    past = 2 * max(float(r[k]) for r in huge for k in ("cstar_route", "cstar_infoset")) + 1
    assert [r["v_fb"] for r in huge] == [r["v_fb"] for r in rows(repr(past))]


NO_REVEAL_TIME = "needs at least 2 locations: with 1 there is no reveal time"


def test_verify_one_location_exits_2(capsys, tmp_path):
    path = _write_instance(tmp_path, 1)
    code, out, err = run_cli(capsys, "verify", path)
    assert code == 2
    assert "all checks passed" not in out
    assert err == f"error: verify {NO_REVEAL_TIME}\n"
    # voi reveals at some t too, and says so the same way
    for extra in ((), ("--t-reveal", "1"), ("--csv",)):
        assert run_cli(capsys, "voi", path, *extra) == (2, "", f"error: voi {NO_REVEAL_TIME}\n")


def test_sweep_one_location_exits_2(capsys, tmp_path):
    path = _write_instance(tmp_path, 1)
    code, out, err = run_cli(capsys, "sweep", path)
    assert code == 2
    assert out == ""
    assert err == f"error: sweep {NO_REVEAL_TIME}\n"
    for model in ("restricted", "feedback"):
        code, out, err = run_cli(capsys, "solve", path, "--model", model)
        assert (code, out, err) == (2, "", f"error: solve {NO_REVEAL_TIME}\n"), model
    # the base game and a playout to the end of the route need no reveal time
    assert run_cli(capsys, "solve", path)[0] == 0
    assert run_cli(capsys, "simulate", path, "--trials", "10")[0] == 0


def test_simulate_negative_seed_exits_2(capsys, three_sites_path):
    code, out, err = run_cli(capsys, "simulate", three_sites_path, "--seed", "-1", "--trials", "10")
    assert code == 2
    assert out == ""
    assert "--seed must be >= 0" in err


@pytest.mark.parametrize("where", ["directory", "missing_parent"])
def test_unwritable_output_exits_2(capsys, three_sites_path, tmp_path, where):
    target = tmp_path if where == "directory" else tmp_path / "missing" / "out.txt"
    code, out, err = run_cli(capsys, "solve", three_sites_path, "--output", str(target))
    assert code == 2
    assert out == ""
    assert f"cannot write --output {target}" in err


@pytest.mark.parametrize("case", ["coordinates", "table"])
def test_overflowing_distances_exit_3(capsys, tmp_path, case):
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(ref.OVERFLOWING[case]), encoding="utf-8")
    for argv in (["solve"], ["voi"], ["sweep"], ["verify"], ["simulate", "--trials", "10"]):
        code, out, err = run_cli(capsys, argv[0], str(path), *argv[1:])
        assert code == 3, argv
        assert out == ""
        assert "instance error: distances overflow" in err


@pytest.mark.parametrize("case", ["coordinate", "table"])
def test_integer_too_large_for_a_float_exits_3(capsys, tmp_path, case):
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(ref.TOO_LARGE[case]), encoding="utf-8")
    code, out, err = run_cli(capsys, "solve", str(path))
    assert (code, out) == (3, "")
    assert err.startswith("instance error: ") and "too large to convert to float" in err


def test_a_closed_stdout_exits_141_without_a_traceback(tmp_path):
    # the reader leaves after the first line, as `| head -1` does, while the
    # matrix of 5,040 rows is still being written
    path = _write_instance(tmp_path, 7)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    with subprocess.Popen(
        [sys.executable, "-m", "hideseek.cli", "solve", path, "--emit-matrix"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    ) as proc:
        first = proc.stdout.readline()
        proc.stdout.close()
        code = proc.wait(timeout=120)
        err = proc.stderr.read()
    assert first == b"model: base\n"
    assert code == cli.EXIT_CLOSED_STDOUT == 141
    assert err == b""


_NUMBER = st.one_of(st.floats(-5.0, 5.0), st.integers(-5, 5))
_EXTREME = st.sampled_from([10**400, float("nan"), float("inf"), 1e308, -1e308, 1e150, -1e150, 1e-300, -1])
_JUNK = st.one_of(st.none(), st.booleans(), st.text(max_size=2), st.just([]), st.just([[1, 2, 3]]), st.just({"x": 0}))


@st.composite
def _instance_json(draw):
    """Instance JSON: 1 to 4 locations, perhaps a distance table, and then
    perhaps one part broken: a number made extreme, a part made junk, a
    field dropped, or the whole document made a list."""
    n = draw(st.integers(1, 4))
    pair = st.lists(_NUMBER, min_size=2, max_size=2)
    data = {"origin": draw(pair), "locations": draw(st.lists(pair, min_size=n, max_size=n))}
    if draw(st.booleans()):
        upper = draw(st.lists(st.integers(0, 5), min_size=n * (n + 1) // 2, max_size=n * (n + 1) // 2))
        table = [[0] * (n + 1) for _ in range(n + 1)]
        for (u, v), d in zip(itertools.combinations(range(n + 1), 2), upper):
            table[u][v] = table[v][u] = d
        data["distance_table"] = table
    # the lists of numbers in the document
    lists = [data["origin"], *data["locations"], *data.get("distance_table", [])]
    broken = draw(st.sampled_from(["none", "number", "junk", "drop", "list"]))
    if broken == "number":
        row = draw(st.sampled_from(lists))
        row[draw(st.integers(0, len(row) - 1))] = draw(_EXTREME)
    elif broken == "junk":
        key = draw(st.sampled_from(sorted(data)))
        if isinstance(data[key][0], list) and draw(st.booleans()):
            data[key][draw(st.integers(0, len(data[key]) - 1))] = draw(_JUNK)
        else:
            data[key] = draw(_JUNK)
    elif broken == "drop":
        del data[draw(st.sampled_from(["origin", "locations"]))]
    elif broken == "list":
        data = list(data.values())
    return json.dumps(data)


_ARGV = [
    ["solve"],
    ["solve", "--model", "restricted", "--cost", "0.5"],
    ["solve", "--model", "feedback", "--convention", "remaining", "--emit-matrix"],
    ["voi", "--cost", "0.5"],
    ["sweep", "--costs", "0,1"],
    ["verify", "--costs", "0,1"],
    ["simulate", "--model", "feedback", "--trials", "50"],
]


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(text=_instance_json())
@example(text=json.dumps(ref.TOO_LARGE["coordinate"]))
@example(text=json.dumps(ref.TOO_LARGE["table"]))
def test_every_instance_exits_by_the_documented_codes(text):
    # 0, 2, 3 or 4, 1 only from verify's failed bound, and never a traceback
    with tempfile.TemporaryDirectory() as folder:
        path = pathlib.Path(folder, "inst.json")
        path.write_text(text, encoding="utf-8")
        for argv in _ARGV:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main([argv[0], str(path), *argv[1:]])
            assert code in (0, 2, 3, 4) or (code, argv[0]) == (1, "verify"), (argv, code, err.getvalue())
            assert "Traceback" not in err.getvalue(), argv
            assert (code in (0, 1)) == (err.getvalue() == ""), argv


@pytest.mark.parametrize("command", ["sweep", "verify"])
def test_empty_t_list_exits_2(capsys, three_sites_path, command):
    code, out, err = run_cli(capsys, command, three_sites_path, "--t-list", ",")
    assert code == 2
    assert out == ""
    assert "error: --t-list is empty" in err


def _record(monkeypatch, name):
    """Wrap cli.<name> so that every value it returns is kept, in order."""
    real, kept = getattr(cli, name), []

    def recording(*args, **kwargs):
        kept.append(real(*args, **kwargs))
        return kept[-1]

    monkeypatch.setattr(cli, name, recording)
    return kept


@pytest.mark.parametrize("name", ["three_sites", "six_sites", "collinear_three"])
def test_fixed_point_output_matches_cell_by_cell_oracle(capsys, monkeypatch, name):
    path = str(INSTANCES / f"{name}.json")
    n = len(json.loads(pathlib.Path(path).read_text(encoding="utf-8"))["locations"])
    solved = _record(monkeypatch, "solve_zero_sum")
    reports = _record(monkeypatch, "build_voi_report")
    played = _record(monkeypatch, "simulate")

    def out_of(*argv):
        code, out, _ = run_cli(capsys, argv[0], path, *argv[1:])
        assert code == 0, argv
        return out

    for prec in (0, 4, 12):
        p = ["--precision", str(prec)]
        assert out_of("solve", *p) == solve_text("base", solved[-1], n, 1, prec)
        for t in range(1, n):
            flags = ["--t-reveal", str(t), "--cost", "0.5", *p]
            for model in ("restricted", "feedback"):
                out = out_of("solve", "--model", model, *flags)
                assert out == solve_text(model, solved[-1], n, t, prec), (model, flags)
            for variant in ("infoset", "route"):
                out = out_of("voi", "--cstar-variant", variant, *flags)
                assert out == voi_text(reports[-1], prec), (variant, flags)
        for model in MODELS:
            out = out_of("simulate", "--model", model, "--trials", "500", *p)
            assert out == simulate_text(played[-1], solved[-1].value, prec), (model, prec)


@pytest.mark.parametrize("lam", [1.0, 1e-14])
def test_voi_lists_the_same_nonzero_cells_at_any_scale(capsys, monkeypatch, tmp_path, lam):
    # the nonzero cut is relative to the table's own largest cell
    data = json.loads((INSTANCES / "three_sites.json").read_text(encoding="utf-8"))
    scaled = {
        "origin": [lam * x for x in data["origin"]],
        "locations": [[lam * x for x in p] for p in data["locations"]],
    }
    path = tmp_path / "scaled.json"
    path.write_text(json.dumps(scaled), encoding="utf-8")
    reports = _record(monkeypatch, "build_voi_report")
    code, out, _ = run_cli(capsys, "voi", str(path), "--cost", repr(lam), "--precision", "20")
    assert code == 0
    assert out == voi_text(reports[-1], 20)
    listed = out.split("nonzero cells:\n")[1].split("worst-case")[0]
    cells = [line.split(":")[0].strip() for line in listed.splitlines()]
    assert cells == ["r1,3", "r2,2", "r3,3", "r4,1", "r5,2", "r6,1"]
