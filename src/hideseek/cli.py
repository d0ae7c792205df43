"""Command-line front end: solve, voi, sweep, simulate, and verify.

Exit codes are stable: 0 success, 2 usage error, 3 instance error,
4 numerical/solver failure, 141 (128 + SIGPIPE) stdout closed early.
Output is deterministic byte-for-byte for identical invocations.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from .experiments import MODELS, SweepRow, simulate, sweep, sweep_to_csv, verify_bounds
from .instance import Instance, InstanceError, load_instance
from .matrixgame import SolverError, check_cost, simplex_weights, solve_zero_sum
from .payoff import (
    CONVENTIONS,
    FEEDBACK_MODES,
    SwitchConfig,
    _format_rows,
    _model_matrix,
    base_matrix,
    dump_matrix,
)
from .routes import MAX_LOCATIONS, enumerate_routes, prefix_block
from .voi import CSTAR_VARIANTS, build_voi_report, report_to_csv

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INSTANCE = 3
EXIT_SOLVER = 4
EXIT_CLOSED_STDOUT = 141


class UsageError(Exception):
    pass


# A double carries 17 significant digits; far larger precisions only build
# huge strings of zeros.
MAX_PRECISION = 100


def _fixed_rows(labels, values, prec: int, width: int = 0) -> str:
    """One text line per label: the label, then its row of values as
    ` %{width}.{prec}f` cells, NaN as a right-justified `--` and -0 as 0.
    The fixed-point twin of payoff._csv_rows, written by the same row
    writer, which formats each distinct row once (after -0 became 0)."""
    rows = np.asarray(values, dtype=float) + 0.0  # -0 + 0 is +0
    nan = "--".rjust(min(width, 3))  # "nan" is 3 wide where "--" is 2
    return _format_rows(labels, rows, f" %{width}.{prec}f", nan)


def _parse_list(text: str, flag: str, kind: type) -> list:
    """The comma-separated values of a flag as kind (int or float); blank
    items are skipped."""
    try:
        return [kind(s) for s in text.split(",") if s.strip()]
    except ValueError as exc:
        raise UsageError(f"bad value in {flag}: {exc}") from exc


def _check_costs(value, flag: str) -> None:
    """A flag's cost, or list of costs, checked by the package's one cost
    rule, matrixgame.check_cost: its ValueError becomes a UsageError that
    names the flag."""
    try:
        check_cost(value)
    except ValueError as exc:
        raise UsageError(f"{flag}: {exc}") from exc


def _load(path) -> Instance:
    """Load an instance that the route enumeration can take."""
    inst = load_instance(path)
    if inst.n > MAX_LOCATIONS:
        raise InstanceError(f"instance has {inst.n} locations; at most {MAX_LOCATIONS} are supported")
    return inst


def _check_t(t: int, flag: str, top: int, command: str) -> None:
    if top < 1:
        raise UsageError(f"{command} needs at least 2 locations: with 1 there is no reveal time")
    if not 1 <= t <= top:
        raise UsageError(f"{flag} must be in 1..{top} for this instance, got {t}")


def cmd_solve(args, out) -> int:
    inst = _load(args.instance)
    rs = enumerate_routes(inst.n)
    t = 1 if args.t_reveal is None else args.t_reveal
    c = 1.0 if args.cost is None else args.cost
    if args.model == "base":
        if args.t_reveal is not None or args.cost is not None:
            raise UsageError("--t-reveal/--cost apply only to restricted or feedback models")
    else:
        _check_t(t, "--t-reveal", rs.n - 1, args.command)
        _check_costs(c, "--cost")
    # no name holds the base matrix, so it is freed before the LP runs
    matrix = _model_matrix(
        base_matrix(inst, rs), rs, args.model, t, c, args.convention, args.feedback_mode
    )
    sol = solve_zero_sum(matrix)
    y, z = sol.row_strategy, sol.col_strategy
    # label only the rows that print: row h of the feedback game is the
    # prefix of route h * (n-t)!, every other row is a route
    rows, cols = np.flatnonzero(y > 1e-9), np.flatnonzero(z > 1e-9)
    feedback = args.model == "feedback"
    if feedback:
        seeker = [f"  h=({','.join(map(str, r))}):"
                  for r in rs.route_array[rows * prefix_block(rs, t), :t].tolist()]
    else:
        seeker = [f"  r{j + 1}=({','.join(map(str, r))}):"
                  for j, r in zip(rows.tolist(), rs.route_array[rows].tolist())]
    p = args.precision
    out.write(f"model: {args.model}\n" + _fixed_rows(["value:"], [sol.value], p))
    out.write(f"row gap: {sol.row_gap:.3e}\ncol gap: {sol.col_gap:.3e}\n")
    out.write("seeker mix:\n" + _fixed_rows(seeker, y[rows], p))
    out.write("hider mix:\n" + _fixed_rows([f"  {i + 1}:" for i in cols.tolist()], z[cols], p))
    if args.emit_matrix:
        labels = [f"h{h}" for h in range(1, len(matrix) + 1)] if feedback else None
        out.write("payoff matrix:\n" + dump_matrix(matrix, labels))
    return EXIT_OK


def cmd_voi(args, out) -> int:
    inst = _load(args.instance)
    rs = enumerate_routes(inst.n)
    _check_t(args.t_reveal, "--t-reveal", rs.n - 1, args.command)
    _check_costs(args.cost, "--cost")
    cfg = SwitchConfig(args.t_reveal, args.cost, convention=args.convention)
    z = None
    if args.hider_mix is not None:
        z = _parse_list(args.hider_mix, "--hider-mix", float)
        try:
            z = simplex_weights(z, rs.n, "--hider-mix")
        except ValueError as exc:
            raise UsageError(str(exc)) from exc
    report = build_voi_report(inst, rs, cfg, variant=args.cstar_variant, z=z)
    if args.csv:
        out.write(report_to_csv(report))
        return EXIT_OK
    p, V = args.precision, report.voi_matrix
    out.write(f"t_reveal: {cfg.t_reveal}\n" + _fixed_rows(["cost:"], [cfg.c], p))
    out.write(f"voi matrix ({rs.m}x{rs.n}), nonzero cells:\n")
    nonzero = V > 1e-12 * V.max()  # VOI is never negative, and its ties are exact zeros
    cells = [f"  r{j + 1},{i + 1}:" for j, i in np.argwhere(nonzero).tolist()]
    out.write(_fixed_rows(cells, V[nonzero], p) or "(none)\n")
    out.write(_fixed_rows(["worst-case voi per location:"], report.bar_voi, p))
    out.write(_fixed_rows(["expected voi:", "route-averaged voi:"],
                          [report.expected_voi, report.route_averaged_voi], p))
    out.write(f"cstar table (variant={report.variant}):\n")
    out.write(_fixed_rows([f"  r{j}:" for j in range(1, rs.m + 1)], report.cstar_matrix, p, p + 3))
    out.write(_fixed_rows(["cstar global:", "expected-voi bound at this cost:"],
                          [report.cstar_global, report.bound], p))
    return EXIT_OK


def _sweep_rows(inst: Instance, args) -> list[SweepRow]:
    """Check the instance, `--t-list` and `--costs`, then run the sweep that
    `sweep` and `verify` share."""
    # every sweep reveals at t = 1, which only one location rules out
    _check_t(1, "--t-list", inst.n - 1, args.command)
    t_list = c_grid = None
    if args.t_list is not None:
        t_list = _parse_list(args.t_list, "--t-list", int)
        if not t_list:
            raise UsageError("--t-list is empty")
        for t in t_list:
            _check_t(t, "--t-list", inst.n - 1, args.command)
    if args.costs is not None:
        c_grid = _parse_list(args.costs, "--costs", float)
        if not c_grid:
            raise UsageError("--costs is empty")
        _check_costs(c_grid, "--costs")
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
    _check_costs(args.cost, "--cost")
    _check_t(args.t_reveal, "--t-reveal", rs.n, args.command)
    # the playout pays total-convention costs and plays mixed subgame strategies
    A = base_matrix(inst, rs)
    matrix = _model_matrix(A, rs, args.model, args.t_reveal, args.cost, "total", "mixed_subgame")
    if args.model != "feedback":  # the solved matrix pays; the base matrix is freed before the LP runs
        A = matrix
    sol = solve_zero_sum(matrix)
    result = simulate(
        A, rs, args.model, sol.row_strategy, sol.col_strategy,
        args.t_reveal, args.cost, args.trials, args.seed,
    )
    out.write(f"model: {result.model}\ntrials: {result.trials}\nseed: {result.seed}\n")
    out.write(_fixed_rows(
        ["game value:", "mean payoff:", "stderr:", "ended by t:"],
        [sol.value, result.mean_payoff, result.payoff_stderr, result.empirical_end_by_t],
        args.precision,
    ))
    return EXIT_OK


def cmd_verify(args, out) -> int:
    inst = _load(args.instance)
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
        if args.precision > MAX_PRECISION:
            raise UsageError(f"--precision must be <= {MAX_PRECISION}, got {args.precision}")
        if args.output:
            try:
                fh = open(args.output, "w", encoding="utf-8", newline="\n")
            except OSError as exc:
                raise UsageError(f"cannot write --output {args.output}: {exc.strerror}") from exc
            with fh:
                return args.func(args, fh)
        code = args.func(args, sys.stdout)
        sys.stdout.flush()  # a closed pipe raises here, not at interpreter exit
        return code
    except BrokenPipeError:  # stdout's reader left: the exit flush goes to /dev/null
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_CLOSED_STDOUT
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
