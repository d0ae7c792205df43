"""Parameter sweeps, bound verification, and Monte Carlo playouts.

Simulation randomness uses one Philox counter block (four 64-bit words) per
trial, keyed by the seed: trial k always sees the same four uniforms no
matter how trials are split into blocks. Playouts only count how often each
payoff cell occurs, so results are invariant to the block size and
bit-reproducible for a fixed seed.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .instance import Instance
from .matrixgame import check_cost, simplex_weights, solve_zero_sum
from .payoff import (
    SwitchConfig,
    base_matrix,
    entrywise_gap,
    feedback_matrix,
    lift_feedback,
    subgame_matrix,
    switch_matrix,
)
from .routes import RouteSet, check_reveal_time, enumerate_routes, prefix_block
from .voi import cstar, cstar_global, expected_voi, theorem1_bound, voi_matrix, worst_case_voi

MODELS = ("base", "restricted", "feedback")


@dataclass(frozen=True)
class SweepRow:
    t_reveal: int
    c: float
    v_base: float
    v_switch: float
    v_fb: float
    expected_voi: float
    theorem1_bound: float
    delta: float
    cstar_global_route: float
    cstar_global_infoset: float


@dataclass(frozen=True)
class SimulationResult:
    trials: int
    seed: int
    mean_payoff: float
    payoff_stderr: float
    empirical_end_by_t: float
    model: str


@dataclass(frozen=True)
class BoundCheck:
    name: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class BoundReport:
    checks: tuple[BoundCheck, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


def default_cost_grid(inst: Instance, rs: RouteSet | None = None, t: int = 1) -> np.ndarray:
    """0 to 1.2x the route-variant global threshold in 25 steps.

    The grid brackets the cost beyond which switching never pays.
    """
    rs = rs or enumerate_routes(inst.n)
    A = base_matrix(inst, rs)
    top = cstar_global(cstar(A, rs, t, "route"))
    return np.linspace(0.0, 1.2 * top, 25)


def sweep(
    inst: Instance,
    t_list=None,
    c_grid=None,
    convention: str = "total",
    feedback_mode: str = "mixed_subgame",
) -> list[SweepRow]:
    """Solve the three games over a (reveal time, switching cost) grid.

    Rows come out in lexicographic (t, c) order. The expected VOI column is
    evaluated at each cell's own switch-game equilibrium mix; the bound
    column uses the route-variant threshold at that reveal time.
    """
    rs = enumerate_routes(inst.n)
    if t_list is None:
        t_list = range(1, rs.n)
    t_list = sorted(set(int(t) for t in t_list))
    if not t_list:
        return []
    if c_grid is None:
        c_grid = default_cost_grid(inst, rs, t=t_list[0])
    c_grid = [float(c) for c in c_grid]
    if not c_grid:
        raise ValueError("empty cost grid")

    A = base_matrix(inst, rs)
    v_base = solve_zero_sum(A).value
    cg_route = {t: cstar_global(cstar(A, rs, t, "route")) for t in t_list}
    cg_inf = {t: cstar_global(cstar(A, rs, t, "infoset")) for t in t_list}

    rows = []
    for t in t_list:
        for c in sorted(c_grid):
            cfg = SwitchConfig(t, c, convention=convention, feedback_mode=feedback_mode)
            As = switch_matrix(A, rs, cfg)
            sw = solve_zero_sum(As)
            F = feedback_matrix(A, rs, cfg)
            _, delta, _ = entrywise_gap(As, lift_feedback(F))
            bar = worst_case_voi(voi_matrix(As, rs, t))
            rows.append(
                SweepRow(
                    t_reveal=t,
                    c=c,
                    v_base=v_base,
                    v_switch=sw.value,
                    v_fb=solve_zero_sum(F).value,
                    expected_voi=expected_voi(bar, sw.col_strategy),
                    theorem1_bound=theorem1_bound(cg_route[t], c),
                    delta=delta,
                    cstar_global_route=cg_route[t],
                    cstar_global_infoset=cg_inf[t],
                )
            )
    return rows


SWEEP_HEADER = (
    "t_reveal,c,v_base,v_switch,v_fb,expected_voi,"
    "theorem1_bound,delta,cstar_route,cstar_infoset"
)


def sweep_to_csv(rows: list[SweepRow], digits: int = 10) -> str:
    lines = [SWEEP_HEADER]
    for r in rows:
        lines.append(
            f"{r.t_reveal},{r.c:.{digits}g},{r.v_base:.{digits}g},"
            f"{r.v_switch:.{digits}g},{r.v_fb:.{digits}g},{r.expected_voi:.{digits}g},"
            f"{r.theorem1_bound:.{digits}g},{r.delta:.{digits}g},"
            f"{r.cstar_global_route:.{digits}g},{r.cstar_global_infoset:.{digits}g}"
        )
    return "\n".join(lines) + "\n"


def verify_bounds(
    rows: list[SweepRow],
    inst: Instance | None = None,
    convention: str = "total",
    tol: float = 1e-8,
) -> BoundReport:
    """Check every structural bound a sweep must satisfy.

    Per row: the switch game dominates the base game (total convention
    only), the feedback value sandwiches the switch value within delta, and
    the expected VOI respects its cost bound. Across rows: expected VOI is
    non-increasing in c at fixed t. With the instance available, the
    fixed-mix expected VOI is additionally checked to be non-increasing in
    reveal time (the mix is re-equilibrated per cost but frozen across t,
    since equilibria move with t).
    """
    if not rows:
        return BoundReport(checks=())
    base_vals = {round(r.v_base, 9) for r in rows}
    if len(base_vals) > 1:
        raise ValueError(f"rows come from mixed instances: v_base values {sorted(base_vals)}")

    checks: list[BoundCheck] = []

    def rowcheck(name, predicate, describe):
        bad = [r for r in rows if not predicate(r)]
        if bad:
            checks.append(BoundCheck(name, False, describe(bad[0])))
        else:
            checks.append(BoundCheck(name, True, f"all {len(rows)} rows"))

    if convention == "total":
        rowcheck(
            "base_below_switch",
            lambda r: r.v_base <= r.v_switch + tol,
            lambda r: f"t={r.t_reveal} c={r.c:g}: v_base={r.v_base:.6f} > v_switch={r.v_switch:.6f}",
        )
    rowcheck(
        "feedback_below_switch",
        lambda r: r.v_fb <= r.v_switch + tol,
        lambda r: f"t={r.t_reveal} c={r.c:g}: v_fb={r.v_fb:.6f} > v_switch={r.v_switch:.6f}",
    )
    rowcheck(
        "switch_within_delta_of_feedback",
        lambda r: r.v_switch <= r.v_fb + r.delta + tol,
        lambda r: f"t={r.t_reveal} c={r.c:g}: v_switch={r.v_switch:.6f} > v_fb+delta={r.v_fb + r.delta:.6f}",
    )
    rowcheck(
        "expected_voi_within_bound",
        lambda r: -tol <= r.expected_voi <= r.theorem1_bound + tol,
        lambda r: f"t={r.t_reveal} c={r.c:g}: expected_voi={r.expected_voi:.6f} vs bound={r.theorem1_bound:.6f}",
    )

    by_t: dict[int, list[SweepRow]] = {}
    for r in rows:
        by_t.setdefault(r.t_reveal, []).append(r)
    bad_c = None
    for t, group in sorted(by_t.items()):
        group = sorted(group, key=lambda r: r.c)
        for a, b in zip(group, group[1:]):
            if b.expected_voi > a.expected_voi + tol:
                bad_c = f"t={t}: expected_voi rises {a.expected_voi:.6f} -> {b.expected_voi:.6f} at c={b.c:g}"
                break
        if bad_c:
            break
    checks.append(BoundCheck("expected_voi_monotone_in_c", bad_c is None, bad_c or "non-increasing"))

    if inst is not None and len(by_t) > 1:
        checks.append(_fixed_mix_monotonicity(inst, sorted(by_t), sorted({r.c for r in rows}), convention, tol))

    return BoundReport(checks=tuple(checks))


def _fixed_mix_monotonicity(inst, t_list, c_list, convention, tol) -> BoundCheck:
    rs = enumerate_routes(inst.n)
    A = base_matrix(inst, rs)
    t0 = t_list[0]
    for c in c_list:
        z_fixed = solve_zero_sum(
            switch_matrix(A, rs, SwitchConfig(t0, c, convention=convention))
        ).col_strategy
        prev = None
        for t in t_list:
            As = switch_matrix(A, rs, SwitchConfig(t, c, convention=convention))
            ev = expected_voi(worst_case_voi(voi_matrix(As, rs, t)), z_fixed)
            if prev is not None and ev > prev + tol:
                return BoundCheck(
                    "fixed_mix_voi_monotone_in_t",
                    False,
                    f"c={c:g}: fixed-mix expected VOI rises {prev:.6f} -> {ev:.6f} at t={t}",
                )
            prev = ev
    return BoundCheck("fixed_mix_voi_monotone_in_t", True, "non-increasing")


_BLOCK = 1 << 16  # trials per block: a 2 MB draw of uniforms


def _trial_uniforms(seed: int, start: int, count: int) -> np.ndarray:
    """Four uniforms per trial from the trial-indexed Philox counter block."""
    key = np.random.SeedSequence(seed).generate_state(2, np.uint64)
    bg = np.random.Philox(counter=[start, 0, 0, 0], key=key)
    return np.random.Generator(bg).random((count, 4))


def _draw(cdf: np.ndarray, u: np.ndarray) -> np.ndarray:
    return np.minimum(np.searchsorted(cdf, u, side="right"), len(cdf) - 1)


def simulate(
    inst: Instance,
    rs: RouteSet,
    model: str,
    y,
    z,
    t: int,
    c: float,
    trials: int,
    seed: int,
) -> SimulationResult:
    """Monte Carlo playout of the two-stage game.

    Each trial draws a route from y and an initial location from z. If the
    treasure's visit position is within t (or the model is base), the payoff
    is the baseline cost. Otherwise the restricted Hider relocates to its
    best reduced-payoff target, and in the feedback model the Seeker and
    Hider instead play their solved reveal-stage subgame mixes. Every
    payoff is a base-matrix cell, less c if the Hider switched, so blocks
    of _BLOCK trials only count cells: memory stays bounded, and identical
    seeds give bit-identical results for any block size.
    """
    if model not in MODELS:
        raise ValueError(f"model must be one of {MODELS}")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    check_reveal_time(t, rs.n)
    check_cost(c)
    y = simplex_weights(y, rs.m, "y")
    z = simplex_weights(z, rs.n, "z")

    A_pm = base_matrix(inst, rs)
    A = A_pm.entries
    m, n = A.shape
    feedback = model == "feedback" and t < n
    if model == "restricted" and t < n:
        values = switch_matrix(A_pm, rs, SwitchConfig(t, c)).entries.ravel()
    elif feedback:
        # codes past m*n are the switched cells, paid minus c
        values = np.concatenate([A.ravel(), A.ravel() - c])
        block = prefix_block(rs, t)
    else:
        values = A.ravel()

    @functools.cache
    def subgame_play(key: int):
        h, i = divmod(key, n)
        sol = solve_zero_sum(subgame_matrix(A_pm, rs, t, h, i + 1, c))
        return (
            h * block + np.arange(block),
            np.cumsum(sol.row_strategy.weights),
            np.flatnonzero(rs.position_matrix[h * block] > t),
            np.cumsum(sol.col_strategy.weights),
        )

    y_cdf, z_cdf = np.cumsum(y), np.cumsum(z)
    counts = np.zeros(len(values), dtype=np.int64)
    ended_total = 0
    for start in range(0, trials, _BLOCK):
        u = _trial_uniforms(seed, start, min(_BLOCK, trials - start))
        j = _draw(y_cdf, u[:, 0])
        i = _draw(z_cdf, u[:, 1])
        ended = rs.position_matrix[j, i] <= t
        ended_total += int(ended.sum())
        code = j * n + i
        if feedback:
            late = np.flatnonzero(~ended)
            key = j[late] // block * n + i[late]
            order = np.argsort(key, kind="stable")
            groups, first = np.unique(key[order], return_index=True)
            for g, idxs in zip(groups.tolist(), np.split(late[order], first[1:])):
                members, row_cdf, targets, col_cdf = subgame_play(g)
                k = members[_draw(row_cdf, u[idxs, 2])]
                hat = targets[_draw(col_cdf, u[idxs, 3])]
                code[idxs] = k * n + hat + m * n * (hat != g % n)
        counts += np.bincount(code, minlength=len(values))

    mean = float(counts @ values / trials)
    var = float(counts @ (values - mean) ** 2 / (trials - 1)) if trials > 1 else 0.0
    return SimulationResult(
        trials=trials,
        seed=seed,
        mean_payoff=mean,
        payoff_stderr=math.sqrt(var) / math.sqrt(trials),
        empirical_end_by_t=ended_total / trials,
        model=model,
    )
