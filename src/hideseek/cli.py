"""Command-line front end: solve, voi, sweep, simulate, and verify.

Exit codes are stable: 0 success, 2 usage error, 3 instance error,
4 numerical/solver failure. Output is deterministic byte-for-byte for
identical invocations.
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from .experiments import MODELS, SweepRow, simulate, sweep, sweep_to_csv, verify_bounds
from .instance import Instance, InstanceError, load_instance
from .matrixgame import GameSolution, SolverError, simplex_weights, solve_zero_sum
from .payoff import (
    CONVENTIONS,
    FEEDBACK_MODES,
    PayoffMatrix,
    SwitchConfig,
    base_matrix,
    dump_matrix,
    feedback_matrix,
    switch_matrix,
)
from .routes import MAX_LOCATIONS, RouteSet, enumerate_routes, prefix_block
from .voi import CSTAR_VARIANTS, build_voi_report, report_to_csv

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INSTANCE = 3
EXIT_SOLVER = 4


class UsageError(Exception):
    pass


def _fmt(x: float, prec: int) -> str:
    x = float(x)
    if x == 0:
        x = 0.0  # avoid "-0.0000"
    return f"{x:.{prec}f}"


def _parse_floats(text: str, flag: str) -> list[float]:
    items = [s for s in text.split(",") if s.strip()]
    try:
        return [float(s) for s in items]
    except ValueError as exc:
        raise UsageError(f"bad value in {flag}: {exc}") from exc


def _parse_ints(text: str, flag: str) -> list[int]:
    items = [s for s in text.split(",") if s.strip()]
    try:
        return [int(s) for s in items]
    except ValueError as exc:
        raise UsageError(f"bad value in {flag}: {exc}") from exc


def _check_cost(c: float, flag: str) -> None:
    if not (math.isfinite(c) and c >= 0):
        raise UsageError(f"{flag} must be finite and >= 0, got {c}")


def _load(path) -> Instance:
    """Load an instance that the route enumeration can take."""
    inst = load_instance(path)
    if inst.n > MAX_LOCATIONS:
        raise InstanceError(f"instance has {inst.n} locations; at most {MAX_LOCATIONS} are supported")
    return inst


def _check_t(t: int, flag: str, top: int) -> None:
    if not 1 <= t <= top:
        raise UsageError(f"{flag} must be in 1..{top} for this instance, got {t}")


def _strategy_lines(weights, labels, prec: int) -> list[str]:
    lines = []
    for idx, w in enumerate(weights):
        if w > 1e-9:
            lines.append(f"  {labels[idx]}: {_fmt(w, prec)}")
    return lines


def _route_labels(rs: RouteSet) -> list[str]:
    return [f"r{j + 1}=({','.join(str(v) for v in r)})" for j, r in enumerate(rs.routes)]


def _prefix_labels(rs: RouteSet, t: int) -> list[str]:
    return [f"h=({','.join(str(v) for v in r[:t])})" for r in rs.routes[:: prefix_block(rs, t)]]


def _print_solution(out, title: str, sol: GameSolution, row_labels, col_labels, prec: int):
    out.write(f"model: {title}\n")
    out.write(f"value: {_fmt(sol.value, prec)}\n")
    out.write(f"row gap: {sol.row_gap:.3e}\n")
    out.write(f"col gap: {sol.col_gap:.3e}\n")
    out.write("seeker mix:\n")
    out.write("\n".join(_strategy_lines(sol.row_strategy.weights, row_labels, prec)) + "\n")
    out.write("hider mix:\n")
    out.write("\n".join(_strategy_lines(sol.col_strategy.weights, col_labels, prec)) + "\n")


def _model_matrix(
    inst: Instance, rs: RouteSet, model: str, t: int, c: float, convention: str, feedback_mode: str
) -> PayoffMatrix:
    """The payoff matrix of one game model; base ignores t and c."""
    A = base_matrix(inst, rs)
    if model == "base":
        return A
    cfg = SwitchConfig(t, c, convention=convention, feedback_mode=feedback_mode)
    if model == "restricted":
        return switch_matrix(A, rs, cfg)
    return feedback_matrix(A, rs, cfg)


def cmd_solve(args, out) -> int:
    inst = _load(args.instance)
    rs = enumerate_routes(inst.n)
    t = 1 if args.t_reveal is None else args.t_reveal
    c = 1.0 if args.cost is None else args.cost
    if args.model == "base":
        if args.t_reveal is not None or args.cost is not None:
            raise UsageError("--t-reveal/--cost apply only to restricted or feedback models")
    else:
        _check_t(t, "--t-reveal", rs.n - 1)
        _check_cost(c, "--cost")
    matrix = _model_matrix(inst, rs, args.model, t, c, args.convention, args.feedback_mode)
    sol = solve_zero_sum(matrix)
    if args.model == "feedback":
        row_labels = _prefix_labels(rs, t)
    else:
        row_labels = _route_labels(rs)
    col_labels = [str(i) for i in range(1, rs.n + 1)]
    _print_solution(out, args.model, sol, row_labels, col_labels, args.precision)
    if args.emit_matrix:
        out.write("payoff matrix:\n")
        out.write(dump_matrix(matrix))
    return EXIT_OK


def cmd_voi(args, out) -> int:
    inst = _load(args.instance)
    rs = enumerate_routes(inst.n)
    _check_t(args.t_reveal, "--t-reveal", rs.n - 1)
    _check_cost(args.cost, "--cost")
    cfg = SwitchConfig(args.t_reveal, args.cost, convention=args.convention)
    z = None
    if args.hider_mix:
        z = _parse_floats(args.hider_mix, "--hider-mix")
        try:
            z = simplex_weights(z, rs.n, "--hider-mix")
        except ValueError as exc:
            raise UsageError(str(exc)) from exc
    report = build_voi_report(inst, rs, cfg, variant=args.cstar_variant, z=z)
    if args.csv:
        out.write(report_to_csv(report))
        return EXIT_OK
    p = args.precision
    out.write(f"t_reveal: {cfg.t_reveal}\ncost: {_fmt(cfg.c, p)}\n")
    out.write(f"voi matrix ({rs.m}x{rs.n}), nonzero cells:\n")
    nonzero = [
        f"  r{j + 1},{i + 1}: {_fmt(report.voi_matrix[j, i], p)}"
        for j, i in np.argwhere(report.voi_matrix > 1e-12)
    ]
    out.write("\n".join(nonzero) + ("\n" if nonzero else "(none)\n"))
    out.write("worst-case voi per location: ")
    out.write(" ".join(_fmt(v, p) for v in report.bar_voi) + "\n")
    out.write(f"expected voi: {_fmt(report.expected_voi, p)}\n")
    out.write(f"route-averaged voi: {_fmt(report.route_averaged_voi, p)}\n")
    out.write(f"cstar table (variant={report.variant}):\n")
    for j, row in enumerate(report.cstar_matrix):
        cells = " ".join("--".rjust(p + 3) if np.isnan(v) else _fmt(v, p).rjust(p + 3) for v in row)
        out.write(f"  r{j + 1}: {cells}\n")
    out.write(f"cstar global: {_fmt(report.cstar_global, p)}\n")
    out.write(f"expected-voi bound at this cost: {_fmt(report.bound, p)}\n")
    return EXIT_OK


def _sweep_rows(inst: Instance, args) -> list[SweepRow]:
    """Check `--t-list` and `--costs`, then run the sweep that `sweep` and `verify` share."""
    t_list = c_grid = None
    if args.t_list:
        t_list = _parse_ints(args.t_list, "--t-list")
        for t in t_list:
            _check_t(t, "--t-list", inst.n - 1)
    if args.costs is not None:
        c_grid = _parse_floats(args.costs, "--costs")
        if not c_grid:
            raise UsageError("--costs is empty")
        for c in c_grid:
            _check_cost(c, "--costs")
    return sweep(inst, t_list=t_list, c_grid=c_grid, convention=args.convention,
                 feedback_mode=args.feedback_mode)


def cmd_sweep(args, out) -> int:
    out.write(sweep_to_csv(_sweep_rows(_load(args.instance), args)))
    return EXIT_OK


def cmd_simulate(args, out) -> int:
    inst = _load(args.instance)
    rs = enumerate_routes(inst.n)
    if args.trials < 1:
        raise UsageError(f"--trials must be >= 1, got {args.trials}")
    if args.seed < 0:
        raise UsageError(f"--seed must be >= 0, got {args.seed}")
    _check_cost(args.cost, "--cost")
    _check_t(args.t_reveal, "--t-reveal", rs.n)
    # revealing after the last visit reveals nothing: every model plays the base game
    model = "base" if args.t_reveal == rs.n else args.model
    # the playout pays total-convention costs and plays mixed subgame strategies
    matrix = _model_matrix(inst, rs, model, args.t_reveal, args.cost, "total", "mixed_subgame")
    sol = solve_zero_sum(matrix)
    y = sol.row_strategy.weights
    if model == "feedback":
        # The playout draws a route, but the Seeker of the prefix game picks
        # only a prefix. Any split of a prefix's weight over its routes is an
        # equilibrium of the route lift, whose prefix-mate rows are equal, and
        # the playout reads only the prefix: cells ended by t are constant
        # within a prefix, and late trials redraw the route from the subgame.
        block = prefix_block(rs, args.t_reveal)
        y = np.repeat(y, block) / block
    result = simulate(
        inst, rs, args.model, y, sol.col_strategy,
        args.t_reveal, args.cost, args.trials, args.seed,
    )
    p = args.precision
    out.write(f"model: {result.model}\n")
    out.write(f"trials: {result.trials}\nseed: {result.seed}\n")
    out.write(f"game value: {_fmt(sol.value, p)}\n")
    out.write(f"mean payoff: {_fmt(result.mean_payoff, p)}\n")
    out.write(f"stderr: {_fmt(result.payoff_stderr, p)}\n")
    out.write(f"ended by t: {_fmt(result.empirical_end_by_t, p)}\n")
    return EXIT_OK


def cmd_verify(args, out) -> int:
    inst = _load(args.instance)
    if inst.n < 2:
        raise UsageError("verify needs at least 2 locations: with 1 there is no reveal time to check")
    report = verify_bounds(_sweep_rows(inst, args), inst=inst, convention=args.convention)
    for check in report.checks:
        out.write(f"{'PASS' if check.passed else 'FAIL'} {check.name}: {check.detail}\n")
    out.write("all checks passed\n" if report.passed else "some checks FAILED\n")
    return EXIT_OK if report.passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hideseek",
        description="Two-stage hide-and-seek games with partial route revelation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("instance", help="path to an instance JSON file")
        p.add_argument("--precision", type=int, default=4, help="decimals in printed values")
        p.add_argument("--output", default=None, help="write output to this file instead of stdout")

    p_solve = sub.add_parser("solve", help="solve one game model by LP")
    common(p_solve)
    p_solve.add_argument("--model", choices=MODELS, default="base")
    p_solve.add_argument("--t-reveal", type=int, default=None)
    p_solve.add_argument("--cost", type=float, default=None)
    p_solve.add_argument("--feedback-mode", choices=FEEDBACK_MODES, default="mixed_subgame")
    p_solve.add_argument("--emit-matrix", action="store_true")
    p_solve.set_defaults(func=cmd_solve)

    p_voi = sub.add_parser("voi", help="value-of-information report")
    common(p_voi)
    p_voi.add_argument("--t-reveal", type=int, default=1)
    p_voi.add_argument("--cost", type=float, default=1.0)
    p_voi.add_argument("--cstar-variant", choices=CSTAR_VARIANTS, default="infoset")
    p_voi.add_argument("--hider-mix", default=None, help="override z: comma-separated weights")
    p_voi.add_argument("--csv", action="store_true", help="emit the CSV serialization")
    p_voi.set_defaults(func=cmd_voi)

    p_sweep = sub.add_parser("sweep", help="cost/reveal-time sweep as CSV")
    common(p_sweep)
    p_sweep.add_argument("--t-list", default=None, help="comma-separated reveal times")
    p_sweep.add_argument("--costs", default=None, help="comma-separated switching costs")
    p_sweep.add_argument("--feedback-mode", choices=FEEDBACK_MODES, default="mixed_subgame")
    p_sweep.set_defaults(func=cmd_sweep)

    p_sim = sub.add_parser("simulate", help="Monte Carlo playout at equilibrium")
    common(p_sim)
    p_sim.add_argument("--model", choices=MODELS, default="base")
    p_sim.add_argument("--t-reveal", type=int, default=1)
    p_sim.add_argument("--cost", type=float, default=1.0)
    p_sim.add_argument("--trials", type=int, default=100000)
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.set_defaults(func=cmd_simulate)

    p_verify = sub.add_parser("verify", help="run the bound checks over a sweep")
    common(p_verify)
    p_verify.add_argument("--t-list", default=None)
    p_verify.add_argument("--costs", default=None)
    p_verify.add_argument("--feedback-mode", choices=FEEDBACK_MODES, default="mixed_subgame")
    p_verify.set_defaults(func=cmd_verify)

    for p in (p_solve, p_voi, p_sweep, p_verify):
        p.add_argument("--convention", choices=CONVENTIONS, default="total")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        if args.precision < 0:
            raise UsageError(f"--precision must be >= 0, got {args.precision}")
        if args.output:
            try:
                fh = open(args.output, "w", encoding="utf-8", newline="\n")
            except OSError as exc:
                raise UsageError(f"cannot write --output {args.output}: {exc.strerror}") from exc
            with fh:
                return args.func(args, fh)
        return args.func(args, sys.stdout)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except InstanceError as exc:
        print(f"instance error: {exc}", file=sys.stderr)
        return EXIT_INSTANCE
    except SolverError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
