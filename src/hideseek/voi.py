"""Value-of-information and switching-cost thresholds.

The route-level value-of-information compares a starting location's switch
payoff against the best (smallest) switch payoff in the same row, exactly as
defined for the restricted model: VOI(j, i) is the switch-matrix entry at i
minus the row minimum over unvisited locations, and 0 where i was already
visited. The worst case over routes and its expectation under the Hider's
mix follow from that literal definition. Because the route set contains
every permutation, some route visits i first, where VOI is 0, and VOI is
nonnegative everywhere, so for every t >= 1 the worst case is exactly zero
and so is its expectation; the bilinear route-averaged quantity is the one
that stays strictly positive at equilibrium.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .instance import Instance
from .matrixgame import check_cost, simplex_weights, solve_zero_sum
from .payoff import SwitchConfig, _csv_rows, _prefix_min, base_matrix, switch_matrix
from .routes import RouteSet, check_reveal_time, prefix_block

CSTAR_VARIANTS = ("route", "infoset")


def voi_matrix(As: np.ndarray, rs: RouteSet, t: int) -> np.ndarray:
    """Route-level value-of-information from a switch matrix built at t.

    Identical under both payoff conventions: the per-row offset cancels in
    the within-row difference.
    """
    check_reveal_time(t, rs.n - 1)
    unvisited = rs.position_matrix > t
    masked = np.where(unvisited, As, np.inf)
    row_min = masked.min(axis=1)
    return np.where(unvisited, As - row_min[:, None], 0.0)


def worst_case_voi(V: np.ndarray) -> np.ndarray:
    """Per-location worst case over routes: the columnwise minimum.

    Exactly 0 in every column of a voi_matrix: the route that visits a
    location first holds 0 there, and no cell is negative.
    """
    return np.asarray(V, dtype=float).min(axis=0)


def expected_voi(bar: np.ndarray, z) -> float:
    """Expectation of the worst-case value-of-information under the Hider's
    mix; 0 for the worst case of a voi_matrix, which is 0 everywhere."""
    bar = np.asarray(bar, dtype=float)
    return float(simplex_weights(z, len(bar), "z") @ bar)


def route_averaged_voi(V: np.ndarray, y, z) -> float:
    """Bilinear average of the value-of-information under both mixes."""
    V = np.asarray(V, dtype=float)
    y = simplex_weights(y, V.shape[0], "y")
    z = simplex_weights(z, V.shape[1], "z")
    return float(y @ V @ z)


def cstar(A: np.ndarray, rs: RouteSet, t: int, variant: str = "infoset") -> np.ndarray:
    """Free-switching advantage thresholds per (route, initial location).

    Cells where the location is visited by t hold NaN (not applicable) and
    are excluded from the global maximum.

    variant="route": the advantage along the committed route, which closes to
    the row's last-location cost minus the stay cost (A is a base_matrix,
    whose entries rise along the route, so the last visit's is the row's
    largest unvisited entry). variant="infoset":
    each target's payoff is first minimized over prefix-consistent routes,
    then compared against the stay target the same way and clamped at 0;
    rows sharing a prefix get identical entries.
    """
    if variant not in CSTAR_VARIANTS:
        raise ValueError(f"variant must be one of {CSTAR_VARIANTS}")
    check_reveal_time(t, rs.n - 1)
    if variant == "route":
        last = A[np.arange(len(A)), rs.route_array[:, -1] - 1]
        return np.where(rs.position_matrix > t, last[:, None] - A, np.nan)
    block = prefix_block(rs, t)
    unvisited = rs.position_matrix[::block] > t
    # each prefix's cumulative cost at its reveal node, which all of its
    # routes share, so it comes off after the minimum to the same bits
    reveal = rs.route_array[::block, t - 1, None] - 1
    m_min = _prefix_min(A, block) - np.take_along_axis(A[::block], reveal, axis=1)
    top = np.where(unvisited, m_min, -np.inf).max(axis=1)
    spread = np.where(unvisited, np.maximum(top[:, None] - m_min, 0.0), np.nan)
    return np.repeat(spread, block, axis=0)


def cstar_global(C: np.ndarray) -> float:
    """Maximum threshold over all applicable (route, location) cells."""
    C = np.asarray(C, dtype=float)
    if np.isnan(C).all():
        raise ValueError("all threshold entries are undefined")
    return float(np.nanmax(C))


def theorem1_bound(cstar_global_value: float, c: float) -> float:
    """Upper bound on the expected value-of-information at switching cost c."""
    check_cost(c)
    return max(cstar_global_value - c, 0.0)


@dataclass(frozen=True, eq=False)
class VoiReport:
    """All value-of-information quantities for one (instance, t, c) setting.

    bound is the cost cap max(cstar_global_route - c, 0). It always uses the
    route variant regardless of the table's variant, because only the
    route-variant threshold is guaranteed to dominate the worst-case VOI.
    """

    voi_matrix: np.ndarray
    bar_voi: np.ndarray
    expected_voi: float
    route_averaged_voi: float
    cstar_matrix: np.ndarray
    cstar_global: float
    bound: float
    cfg: SwitchConfig
    variant: str


def build_voi_report(
    inst: Instance,
    rs: RouteSet,
    cfg: SwitchConfig,
    variant: str = "infoset",
    z=None,
) -> VoiReport:
    """Assemble a VoiReport from the switch game's equilibrium mixes.

    An explicit Hider mix z replaces the equilibrium one in the expectation
    and the bilinear average.
    """
    A = base_matrix(inst, rs)
    As = switch_matrix(A, rs, cfg)
    sol = solve_zero_sum(As)
    z = simplex_weights(sol.col_strategy if z is None else z, rs.n, "z")
    V = voi_matrix(As, rs, cfg.t_reveal)
    bar = worst_case_voi(V)
    C = cstar(A, rs, cfg.t_reveal, variant)
    route_global = cstar_global(C if variant == "route" else cstar(A, rs, cfg.t_reveal, "route"))
    return VoiReport(
        voi_matrix=V,
        bar_voi=bar,
        expected_voi=expected_voi(bar, z),
        route_averaged_voi=route_averaged_voi(V, sol.row_strategy, z),
        cstar_matrix=C,
        cstar_global=cstar_global(C),
        bound=theorem1_bound(route_global, cfg.c),
        cfg=cfg,
        variant=variant,
    )


def report_to_csv(report: VoiReport) -> str:
    """Serialize a VoiReport in the matrix CSV format with a metadata line.

    Every line after the header goes through the one CSV row writer, which
    writes NaN (the visited cstar cells) as `--`; scalar lines leave the row
    field empty.
    """
    cfg = report.cfg
    m, n = report.voi_matrix.shape
    return (
        f"# t_reveal={cfg.t_reveal},c={cfg.c:.10g},"
        f"convention={cfg.convention},variant={report.variant}\n"
        "section,row," + ",".join(str(i) for i in range(1, n + 1)) + "\n"
        + _csv_rows([f"voi,r{j}" for j in range(1, m + 1)], report.voi_matrix)
        + _csv_rows(["bar_voi,"], report.bar_voi)
        + _csv_rows(["expected_voi,", "route_averaged_voi,"],
                    [report.expected_voi, report.route_averaged_voi])
        + _csv_rows([f"cstar,r{j}" for j in range(1, m + 1)], report.cstar_matrix)
        + _csv_rows(["cstar_global,", "theorem1_bound,"], [report.cstar_global, report.bound])
    )
