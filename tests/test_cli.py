import json
import pathlib

import pytest

from hideseek.cli import main
from hideseek.experiments import MODELS

import reference as ref

INSTANCES = pathlib.Path(__file__).resolve().parents[1] / "instances"


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


def test_corrupt_instance_exits_3(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{ nope", encoding="utf-8")
    code, _, err = run_cli(capsys, "solve", str(bad))
    assert code == 3
    assert "instance error" in err
    code, _, _ = run_cli(capsys, "verify", str(tmp_path / "missing.json"))
    assert code == 3


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
    for mix in ("0.2,0.3", "nan,0.5,0.5", "inf,0.5,0.5", "-0.5,0.5,1", "0.2,0.3,0.4"):
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


def test_verify_one_location_exits_2(capsys, tmp_path):
    code, out, err = run_cli(capsys, "verify", _write_instance(tmp_path, 1))
    assert code == 2
    assert "all checks passed" not in out
    assert "at least 2 locations" in err


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
