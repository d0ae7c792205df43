"""Value-of-information, switching-cost thresholds, and termination probability.

The route-level value-of-information compares a starting location's switch
payoff against the best (smallest) switch payoff in the same row, exactly as
defined for the restricted model: VOI(j, i) is the switch-matrix entry at i
minus the row minimum over unvisited locations, and 0 where i was already
visited. The worst case over routes and its expectation under the Hider's
mix follow from that literal definition. Because the route set contains
every permutation, some route always makes i the cheapest unvisited cell,
so the worst case is typically zero; the bilinear route-averaged quantity
is the one that stays strictly positive at equilibrium.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .instance import Instance
from .matrixgame import simplex_weights, solve_zero_sum
from .payoff import PayoffMatrix, SwitchConfig, base_matrix, switch_matrix
from .routes import RouteSet, prefix_classes

CSTAR_VARIANTS = ("route", "infoset")


def voi_matrix(As: PayoffMatrix, rs: RouteSet, t: int) -> np.ndarray:
    """Route-level value-of-information from a switch matrix built at t.

    Identical under both payoff conventions: the per-row offset cancels in
    the within-row difference.
    """
    if As.cfg is not None and As.cfg.t_reveal != t:
        raise ValueError(
            f"switch matrix was built at t={As.cfg.t_reveal}, queried with t={t}"
        )
    if not 1 <= t <= rs.n - 1:
        raise ValueError(f"t {t} out of range 1..{rs.n - 1}")
    unvisited = rs.position_matrix > t
    masked = np.where(unvisited, As.entries, np.inf)
    row_min = masked.min(axis=1)
    return np.where(unvisited, As.entries - row_min[:, None], 0.0)


def worst_case_voi(V: np.ndarray) -> np.ndarray:
    """Per-location worst case over routes: the columnwise minimum."""
    return np.asarray(V, dtype=float).min(axis=0)


def expected_voi(bar: np.ndarray, z) -> float:
    """Expectation of the worst-case value-of-information under the Hider's mix."""
    bar = np.asarray(bar, dtype=float)
    return float(simplex_weights(z, len(bar), "z") @ bar)


def route_averaged_voi(V: np.ndarray, y, z) -> float:
    """Bilinear average of the value-of-information under both mixes."""
    V = np.asarray(V, dtype=float)
    y = simplex_weights(y, V.shape[0], "y")
    z = simplex_weights(z, V.shape[1], "z")
    return float(y @ V @ z)


def cstar(A: PayoffMatrix, rs: RouteSet, t: int, variant: str = "infoset") -> np.ndarray:
    """Free-switching advantage thresholds per (route, initial location).

    Cells where the location is visited by t hold NaN (not applicable) and
    are excluded from the global maximum.

    variant="route": the advantage along the committed route, which closes to
    the row's last-location cost minus the stay cost. variant="infoset":
    each target's payoff is first minimized over prefix-consistent routes,
    then compared against the stay target the same way and clamped at 0;
    rows sharing a prefix get identical entries.
    """
    if variant not in CSTAR_VARIANTS:
        raise ValueError(f"variant must be one of {CSTAR_VARIANTS}")
    if not 1 <= t <= rs.n - 1:
        raise ValueError(f"t {t} out of range 1..{rs.n - 1}")
    E = A.entries
    if variant == "route":
        unvisited = rs.position_matrix > t
        masked = np.where(unvisited, E, -np.inf)
        row_max = masked.max(axis=1)
        return np.where(unvisited, row_max[:, None] - E, np.nan)
    C = np.full((rs.m, rs.n), np.nan)
    classes, _ = prefix_classes(rs, t)
    for iset in classes:
        targets = sorted(iset.unvisited)
        cols = [u - 1 for u in targets]
        reveal = iset.prefix.nodes[-1] - 1
        reduced = E[np.ix_(list(iset.members), cols)] - E[list(iset.members), reveal][:, None]
        m_min = reduced.min(axis=0)
        spread = np.maximum(m_min.max() - m_min, 0.0)
        for j in iset.members:
            C[j, cols] = spread
    return C


def cstar_global(C: np.ndarray) -> float:
    """Maximum threshold over all applicable (route, location) cells."""
    C = np.asarray(C, dtype=float)
    if np.isnan(C).all():
        raise ValueError("all threshold entries are undefined")
    return float(np.nanmax(C))


def theorem1_bound(cstar_global_value: float, c: float) -> float:
    """Upper bound on the expected value-of-information at switching cost c."""
    if not (np.isfinite(c) and c >= 0):
        raise ValueError(f"switching cost must be finite and >= 0, got {c}")
    return max(cstar_global_value - c, 0.0)


def termination_probability(rs: RouteSet, y, z, t: int) -> float:
    """Probability the treasure is found within the first t visits.

    Closed form: sum over locations of z_i times the y-mass of routes that
    visit i at position <= t. Affine in each strategy separately.
    """
    if not 1 <= t <= rs.n:
        raise ValueError(f"t {t} out of range 1..{rs.n}")
    y = simplex_weights(y, rs.m, "y")
    z = simplex_weights(z, rs.n, "z")
    z_on_route = z[rs.route_array - 1]
    return float(y @ z_on_route[:, :t].sum(axis=1))


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
    z_used: np.ndarray
    y_used: np.ndarray


def build_voi_report(
    inst: Instance,
    rs: RouteSet,
    cfg: SwitchConfig,
    variant: str = "infoset",
    z=None,
    y=None,
) -> VoiReport:
    """Assemble a VoiReport, solving the switch game for the default mixes.

    Explicit z or y overrides replace the equilibrium strategies in the
    expectation and the bilinear average.
    """
    A = base_matrix(inst, rs)
    As = switch_matrix(A, rs, cfg)
    if z is None or y is None:
        sol = solve_zero_sum(As)
        if z is None:
            z = sol.col_strategy
        if y is None:
            y = sol.row_strategy
    z = simplex_weights(z, rs.n, "z")
    y = simplex_weights(y, rs.m, "y")
    V = voi_matrix(As, rs, cfg.t_reveal)
    bar = worst_case_voi(V)
    C = cstar(A, rs, cfg.t_reveal, variant)
    route_global = cstar_global(cstar(A, rs, cfg.t_reveal, "route"))
    return VoiReport(
        voi_matrix=V,
        bar_voi=bar,
        expected_voi=expected_voi(bar, z),
        route_averaged_voi=route_averaged_voi(V, y, z),
        cstar_matrix=C,
        cstar_global=cstar_global(C),
        bound=theorem1_bound(route_global, cfg.c),
        cfg=cfg,
        variant=variant,
        z_used=z,
        y_used=y,
    )


def report_to_csv(report: VoiReport, digits: int = 10) -> str:
    """Serialize a VoiReport in the matrix CSV format with a metadata line."""
    cfg = report.cfg
    n = report.voi_matrix.shape[1]

    def fmt(v: float) -> str:
        return "--" if np.isnan(v) else f"{v:.{digits}g}"

    lines = [
        f"# t_reveal={cfg.t_reveal},c={cfg.c:.{digits}g},"
        f"convention={cfg.convention},variant={report.variant}",
        "section,row," + ",".join(str(i) for i in range(1, n + 1)),
    ]
    for j, row in enumerate(report.voi_matrix):
        lines.append(f"voi,r{j + 1}," + ",".join(fmt(v) for v in row))
    lines.append("bar_voi,," + ",".join(fmt(v) for v in report.bar_voi))
    lines.append(f"expected_voi,,{fmt(report.expected_voi)}")
    lines.append(f"route_averaged_voi,,{fmt(report.route_averaged_voi)}")
    for j, row in enumerate(report.cstar_matrix):
        lines.append(f"cstar,r{j + 1}," + ",".join(fmt(v) for v in row))
    lines.append(f"cstar_global,,{fmt(report.cstar_global)}")
    lines.append(f"theorem1_bound,,{fmt(report.bound)}")
    return "\n".join(lines) + "\n"
