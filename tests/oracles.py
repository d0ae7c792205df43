"""Reference implementations that the package's faster paths are checked
against: per-prefix and per-route loops the package vectorises, the
switch build and route threshold by masked row maxima, which read no route
order, a cell-by-cell pure saddle scan, an independent closed form for small
reveal-stage subgames, full-LP game values through scipy's linprog (and the
same LP through HiGHS's default presolve), a recompute of a solution's
best-response gaps, the cell-by-cell formatters the one-row writers
replaced, and simulate played one trial at a time. Also the audits of the paper's claims that only the tests run:
point-to-point distances, the Lemma 1 stay-vs-switch check at a pure
saddle, the closed-form termination probability that simulate's ended-by-t
rate is checked against, and the sweep's default cost grid."""

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np
from numpy.random import Generator, Philox, SeedSequence
from scipy.optimize import linprog

import hideseek as hs
import hideseek.matrixgame as mg
from hideseek.matrixgame import SADDLE_TOL, check_cost, simplex_weights
from hideseek.routes import check_reveal_time

# Node 0 of a distance query is the Seeker's origin; locations are 1..n.
ORIGIN = 0


def distance(inst, u, v):
    """Distance between nodes u and v, where 0 is the origin and 1..n are locations."""
    n = inst.n
    if not (0 <= u <= n and 0 <= v <= n):
        raise hs.InstanceError(f"node index out of range: ({u}, {v}) with n={n}")
    if inst.distance_table is not None:
        return float(inst.distance_table[u, v])
    pts = (inst.origin, *inst.locations)
    return math.hypot(pts[u].x - pts[v].x, pts[u].y - pts[v].y)


@functools.cache
def routes(n):
    """Every visiting order of 1..n as a tuple, in lexicographic order,
    enumerated independently of RouteSet."""
    return tuple(itertools.permutations(range(1, n + 1)))


def position(route, i):
    """1-based visit position of location i along the route."""
    return route.index(i) + 1


def prefix_of(route, t):
    """The first t visited locations. t may run up to n for termination queries."""
    check_reveal_time(t, len(route))
    return tuple(route[:t])


def lift(F):
    """A prefix-indexed matrix re-indexed by routes: each prefix's row
    repeated once per route of its block of n!/rows consecutive routes."""
    return np.repeat(F, math.factorial(F.shape[1]) // len(F), axis=0)


def prefixes(rs, t):
    """Every distinct t-visit prefix, in lexicographic order."""
    return sorted({prefix_of(route, t) for route in routes(rs.n)})


def information_set(rs, nodes):
    """The routes whose first len(nodes) entries equal the prefix, ascending,
    found by scanning every route."""
    t = len(nodes)
    check_reveal_time(t, rs.n)
    if any(not 1 <= v <= rs.n for v in nodes):
        raise ValueError(f"prefix node out of range 1..{rs.n}: {nodes}")
    return np.flatnonzero((rs.route_array[:, :t] == np.array(nodes)).all(axis=1))


def unvisited_after(rs, nodes):
    """The locations a prefix leaves unvisited, ascending."""
    return sorted(set(range(1, rs.n + 1)) - set(nodes))


def subgame(A, members, targets, i, c):
    """Reveal-stage subgame on the given routes and ascending targets for a
    treasure initially at i: the target's baseline cost, minus c unless it
    stays."""
    S = A[np.ix_(members, [u - 1 for u in targets])].copy()
    for k, u in enumerate(targets):
        if u != i:
            S[:, k] -= c
    return S


def reduced_payoff(A, rs, j, cfg, i, i_hat):
    """Reveal-stage payoff when route j is committed, the treasure started at
    i, and the Hider relocates to i_hat (staying when i_hat == i)."""
    if not 0 <= j < rs.m:
        raise ValueError(f"route index {j} out of range 0..{rs.m - 1}")
    check_reveal_time(cfg.t_reveal, rs.n - 1)
    route = routes(rs.n)[j]
    unvisited = set(route[cfg.t_reveal :])
    if i not in unvisited or i_hat not in unvisited:
        raise ValueError(
            f"locations must be unvisited at t={cfg.t_reveal} on route {route}: "
            f"i={i}, i_hat={i_hat}"
        )
    value = float(A[j, i_hat - 1])
    if cfg.convention == "remaining":
        value -= float(A[j, route[cfg.t_reveal - 1] - 1])
    if i_hat != i:
        value -= cfg.c
    return value


def switch_matrix_masked(A, rs, cfg):
    """switch_matrix without reading the route order: each row's largest
    and second-largest unvisited entries by a masked max, argmax and second
    max, and every unvisited cell paid the larger of its own entry and the
    best other target's less c."""
    check_reveal_time(cfg.t_reveal, rs.n - 1)
    m, n = A.shape
    rows = np.arange(m)
    unvisited = rs.position_matrix > cfg.t_reveal
    masked = np.where(unvisited, A, -np.inf)
    top = masked.max(axis=1)
    top_col = masked.argmax(axis=1)
    masked2 = masked.copy()
    masked2[rows, top_col] = -np.inf
    second = masked2.max(axis=1)
    best_other = np.where(np.arange(n)[None, :] == top_col[:, None], second[:, None], top[:, None])
    S = np.where(unvisited, np.maximum(A, best_other - cfg.c), A)
    if cfg.convention == "remaining":
        reveal_cum = A[rows, rs.route_array[:, cfg.t_reveal - 1] - 1]
        S = np.where(unvisited, S - reveal_cum[:, None], S)
    return S


def cstar_route_masked(A, rs, t):
    """cstar's route variant from each row's masked maximum over its
    unvisited cells, NaN where visited."""
    check_reveal_time(t, rs.n - 1)
    unvisited = rs.position_matrix > t
    row_max = np.where(unvisited, A, -np.inf).max(axis=1)
    return np.where(unvisited, row_max[:, None] - A, np.nan)


def best_relocations(A, rs, cfg):
    """Optimal relocation target per (route, initial location), 0 where visited.

    Ties between targets break toward the lowest location index. The chosen
    target's reduced payoff equals the switch_matrix entry; the target itself
    does not depend on the convention (the row offset cancels).
    """
    check_reveal_time(cfg.t_reveal, rs.n - 1)
    E = A
    target = np.zeros((rs.m, rs.n), dtype=np.int64)
    for j, route in enumerate(routes(rs.n)):
        unv = sorted(route[cfg.t_reveal :])
        vals = np.array([E[j, u - 1] for u in unv])
        for i in unv:
            paid = vals - cfg.c
            paid[unv.index(i)] += cfg.c
            target[j, i - 1] = unv[int(np.argmax(paid))]
    return target


@dataclass(frozen=True)
class PureSaddle:
    row: int
    col: int
    value: float
    unique: bool


def find_pure_saddle(A):
    """The first cell in row-major order that is its row's maximum and its
    column's minimum, found cell by cell; flagged unique when it is the
    only one. None if there is none. Ties count within SADDLE_TOL times the
    size of the row maximum or column minimum."""
    A = np.asarray(A, dtype=float)
    rowmax, colmin = A.max(axis=1).tolist(), A.min(axis=0).tolist()
    cells = [
        (r, c)
        for r, row in enumerate(A.tolist())
        for c, a in enumerate(row)
        if rowmax[r] - SADDLE_TOL * abs(rowmax[r]) <= a <= colmin[c] + SADDLE_TOL * abs(colmin[c])
    ]
    if not cells:
        return None
    r, c = cells[0]
    return PureSaddle(row=r, col=c, value=float(A[r, c]), unique=len(cells) == 1)


@dataclass(frozen=True)
class Lemma1Report:
    """Stay-vs-switch audit at a unique pure saddle.

    checks lists (switch_target, switch_payoff, stay_payoff, ok) for every
    unvisited relocation target; passed is their conjunction.
    """

    saddle: PureSaddle
    t_reveal: int
    c: float
    checks: tuple
    passed: bool


def check_lemma1(A, rs, t, c):
    """Verify that a unique pure saddle leaves no profitable post-reveal switch.

    At the saddle (route r*, location i*), every admissible relocation must
    satisfy A(r*, i_hat) - c <= A(r*, i*), within SADDLE_TOL relative.
    Raises if the matrix has no unique pure saddle (the precondition of the
    structural result this checks).
    """
    A = np.asarray(A, dtype=float)
    check_reveal_time(t, rs.n - 1)
    check_cost(c)
    saddle = find_pure_saddle(A)
    if saddle is None or not saddle.unique:
        raise ValueError("no unique pure saddle")
    stay = float(A[saddle.row, saddle.col])
    checks = []
    for i_hat in np.flatnonzero(rs.position_matrix[saddle.row] > t).tolist():
        switch_payoff = float(A[saddle.row, i_hat]) - c
        checks.append((i_hat + 1, switch_payoff, stay, switch_payoff <= stay + SADDLE_TOL * abs(stay)))
    return Lemma1Report(saddle, t, c, tuple(checks), all(ok for *_, ok in checks))


def termination_probability(rs, y, z, t):
    """Probability the treasure is found within the first t visits.

    Closed form: sum over locations of z_i times the y-mass of routes that
    visit i at position <= t. Affine in each strategy separately.
    """
    check_reveal_time(t, rs.n)
    y = simplex_weights(y, rs.m, "y")
    z = simplex_weights(z, rs.n, "z")
    return float(y @ z[rs.route_array - 1][:, :t].sum(axis=1))


def default_cost_grid(inst, rs=None, t=1):
    """sweep's default cost grid: 25 costs from 0 to 1.2 times the
    route-variant global threshold at reveal time t."""
    rs = rs or hs.enumerate_routes(inst.n)
    top = hs.cstar_global(hs.cstar(hs.base_matrix(inst, rs), rs, t, "route"))
    return np.linspace(0.0, 1.2 * top, 25)


def game_value(A):
    """Value of a zero-sum game: its pure saddle, the mixed 2x2 formula, or the LP.

    A 2x2 game with no saddle has a fully mixed equilibrium, so its value is
    (ad - bc) / (a + d - b - c); the denominator is nonzero, because each of
    its two differences exceeds the saddle scan's tolerance.
    """
    saddle = find_pure_saddle(A)
    if saddle is not None:
        return saddle.value
    if A.shape == (2, 2):
        den = A[0, 0] + A[1, 1] - A[0, 1] - A[1, 0]
        return float((A[0, 0] * A[1, 1] - A[0, 1] * A[1, 0]) / den)
    return hs.solve_zero_sum(A).value


def col_lp_reference(A, presolve=False):
    """The column LP of A through scipy's linprog, as the package called it
    (presolve off) before it drove HiGHS directly: the reference
    matrixgame._col_lp must match to the bit."""
    m, n = A.shape
    return linprog(
        np.append(np.zeros(n), -1.0),
        A_ub=np.hstack([-A, np.ones((m, 1))]),
        b_ub=np.zeros(m),
        A_eq=np.append(np.ones(n), 0.0)[None, :],
        b_eq=np.ones(1),
        bounds=np.column_stack([np.append(np.zeros(n), -np.inf), np.full(n + 1, np.inf)]),
        method="highs",
        options={"presolve": presolve},
    )


def col_lp_dense(A):
    """The column-wise arrays (start, index, value) of matrixgame._col_lp's
    LP, built as _col_lp built them before it went one column at a time:
    the dense (n+1) x (m+1) matrix [-A 1; 1^T 0], stored by LP column, with
    its exact zeros dropped."""
    m, n = A.shape
    M = np.empty((n + 1, m + 1))  # row j holds column j of the LP
    M[:n, :m] = -A.T
    M[:n, m] = M[n, :m] = 1.0
    M[n, m] = 0.0
    nz = M != 0.0
    start = np.zeros(n + 2, dtype=np.int32)
    np.cumsum(nz.sum(axis=1), out=start[1:])
    return start, np.nonzero(nz)[1].astype(np.int32), M[nz]


def hider_mix_spread(A, value):
    """How far the Hider's optimal mixes of A spread: the largest range of
    one weight z_j over the mixes that hold every row to at least value,
    by two linprog calls per column, within HiGHS's feasibility tolerance.
    Near 0 where the Hider's optimal mix is unique; where the mixes form a
    set, the width of its widest weight."""
    m, n = A.shape
    face = dict(A_ub=-A, b_ub=np.full(m, -value), A_eq=np.ones((1, n)), b_eq=np.ones(1), method="highs")
    spread = 0.0
    for j in range(n):
        lo, hi = (linprog(sign * np.eye(n)[j], **face) for sign in (1.0, -1.0))
        assert lo.status == hi.status == 0, (lo.message, hi.message)
        spread = max(spread, -hi.fun - lo.fun)
    return spread


def full_lp_values(S):
    """Each game's value from one HiGHS column LP over all its rows, through
    scipy's linprog, with no certificate and so no fallback to the simplex:
    the reference that solve_games' simplex is checked against."""
    values = []
    for A in S:
        res = col_lp_reference(A)
        assert res.status == 0, res.message
        values.append(res.x[-1])
    return np.array(values)


def best_response_gap(A, value, y, z):
    """The certification gaps of the solution (value, y, z) of A, recomputed
    from scratch, independent of the solver: how far the Hider's best reply
    to y lies above the value, and the Seeker's best reply to z below it."""
    A, y, z = (np.asarray(x, dtype=float) for x in (A, y, z))
    if y.shape != A.shape[:1] or z.shape != A.shape[1:]:
        raise ValueError("strategy dimensions do not match the matrix")
    return float((y @ A).max() - value), float(value - (A @ z).min())


def presolved_value(A):
    """The value of A from one column LP through scipy's HiGHS with its
    default options, presolve on: the reference that the package's
    presolve-free LPs are checked against."""
    res = col_lp_reference(A, presolve=True)
    assert res.status == 0, res.message
    return -res.fun


def draw_full_cdf(w, u):
    """Rows drawn from the mix w for the uniforms u by a search of its full
    cdf, a count past the end clamped to the last row: simulate's draw
    before it searched the support alone, and before guide tables."""
    cdf = np.cumsum(w)
    return np.minimum(np.searchsorted(cdf, u, side="right"), len(cdf) - 1)


def subgame_play(A, rs, t, c, h, i):
    """How simulate plays the reveal-stage subgame of prefix h (index) and
    start i (0-based), built from the prefix's block of routes: the
    unvisited locations (0-based, ascending) and the Seeker's and Hider's
    mixes, one-hot at the first pure saddle if there is one, else the LP's."""
    block = hs.prefix_block(rs, t)
    targets = unvisited_after(rs, routes(rs.n)[h * block][:t])
    S = subgame(A, np.arange(h * block, (h + 1) * block), targets, i + 1, c)
    saddle = find_pure_saddle(S)
    if saddle is None:
        sol = hs.solve_zero_sum(S)
        return np.array(targets) - 1, sol.row_strategy, sol.col_strategy
    return np.array(targets) - 1, np.eye(block)[saddle.row], np.eye(len(targets))[saddle.col]


def playout(A, rs, model, y, z, t, c, trials, seed):
    """simulate played one trial at a time: trial k's four uniforms from the
    Philox counter block k, every draw a search of the full cdf
    (draw_full_cdf), each reached subgame solved once (subgame_play), and
    each trial's payoff cell counted into the histogram the result is
    summed from. A is the table simulate takes: the played matrix, or the
    base matrix for the feedback model."""
    m, n = A.shape
    feedback = model == "feedback" and t < n
    block = hs.prefix_block(rs, t) if feedback else 1
    y, z = simplex_weights(y, m // block, "y"), simplex_weights(z, n, "z")
    if feedback:
        values = np.concatenate([A.ravel(), A.ravel() - c])  # past m*n: switched cells
    else:
        values = A.ravel()
    key = SeedSequence(seed).generate_state(2, np.uint64)
    uniforms = Generator(Philox(counter=[0, 0, 0, 0], key=key)).random((trials, 4))
    counts = np.zeros(len(values), dtype=np.int64)
    ended, plays = 0, {}
    for u in uniforms:
        h, i = int(draw_full_cdf(y, u[0])), int(draw_full_cdf(z, u[1]))
        if rs.position_matrix[h * block, i] <= t or not feedback:
            ended += int(rs.position_matrix[h * block, i] <= t)
            counts[h * block * n + i] += 1
            continue
        if (h, i) not in plays:
            plays[h, i] = subgame_play(A, rs, t, c, h, i)
        targets, ys, zs = plays[h, i]
        k, j = h * block + int(draw_full_cdf(ys, u[2])), int(targets[draw_full_cdf(zs, u[3])])
        counts[k * n + j + (m * n if j != i else 0)] += 1
    mean = float(counts @ values / trials)
    spread = values - mean
    spread[counts == 0] = 0.0
    var = float(counts @ np.square(spread) / (trials - 1)) if trials > 1 else 0.0
    return hs.SimulationResult(
        trials=trials,
        seed=seed,
        mean_payoff=mean,
        payoff_stderr=math.sqrt(var) / math.sqrt(trials),
        empirical_end_by_t=ended / trials,
        model=model,
    )


def feedback_matrices_per_prefix(A, rs, t, c, feedback_mode):
    """The seeker-aware matrix solved with one reveal-stage subgame per prefix.

    Returns ({convention: F}, closed) for both conventions, which share the
    subgame values and differ by the remaining offset. closed marks the
    cells read straight from a matrix entry (visited cells, pure_min cells
    and subgames with a pure saddle), where the package must agree exactly.
    """
    E = A
    heads = prefixes(rs, t)
    F = {conv: np.empty((len(heads), rs.n)) for conv in ("total", "remaining")}
    closed = np.zeros((len(heads), rs.n), dtype=bool)
    for hi, nodes in enumerate(heads):
        members = information_set(rs, nodes)
        j0 = members[0]
        offsets = {"total": 0.0, "remaining": float(E[j0, nodes[-1] - 1])}
        for i in nodes:
            for conv in F:
                F[conv][hi, i - 1] = E[j0, i - 1]
            closed[hi, i - 1] = True
        targets = unvisited_after(rs, nodes)
        for i in targets:
            sub = subgame(A, members, targets, i, c)
            if feedback_mode == "pure_min":
                val = float(sub.max(axis=1).min())
                closed[hi, i - 1] = True
            else:
                val = game_value(sub)
                closed[hi, i - 1] = find_pure_saddle(sub) is not None
            for conv, offset in offsets.items():
                F[conv][hi, i - 1] = val - offset
    return F, closed


def feedback_matrix_dense(A, rs, cfgs, layout="hider"):
    """The mixed_subgame feedback matrices of the configs (which share t
    and the convention), stacked, from a dense copy of every subgame: the
    (cost, prefix, start) subgames gathered by subgame_matrix, stored
    Hider-major as the package gathers them or, with layout="rows", row by
    row, and scanned by _first_saddle and solved by a dense solve_games.

    Returns (F, saddle): saddle marks the cells closed by a pure saddle,
    read from A as the package reads them. Visited and saddle cells must
    match the package bit for bit; LP cells agree to round-off, as a shared
    game and its dense copy price in another order.
    """
    t, convention = cfgs[0].t_reveal, cfgs[0].convention
    n, block = rs.n, hs.prefix_block(rs, t)
    first = np.arange(0, rs.m, block)
    cum = A[first, rs.route_array[first, t - 1] - 1]
    offset = cum if convention == "remaining" else np.zeros(len(first))
    h, i = np.nonzero(rs.position_matrix[first] > t)  # the unvisited cells
    cols = np.nonzero(rs.position_matrix[first] > t)[1].reshape(-1, n - t)
    F = np.repeat(A[first][None], len(cfgs), axis=0)
    saddle = np.zeros(F.shape, dtype=bool)
    for k, cfg in enumerate(cfgs):
        S = hs.subgame_matrix(A, rs, t, h, i + 1, cfg.c)
        if layout == "rows":
            S = np.ascontiguousarray(S)
        cell = mg._first_saddle(S)
        r, j = np.divmod(cell, n - t)
        hit = cell >= 0
        col = cols[h[hit], j[hit]]
        a = A[first[h[hit]] + r[hit], col]
        F[k, h[hit], i[hit]] = np.where(col == i[hit], a, a - cfg.c) - offset[h[hit]]
        saddle[k, h[hit], i[hit]] = True
        if not hit.all():
            F[k, h[~hit], i[~hit]] = hs.solve_games(S[~hit])[0] - offset[h[~hit]]
    return F, saddle


def cstar_infoset_per_prefix(A, rs, t):
    """The infoset-variant thresholds computed prefix by prefix: each target's
    reduced payoff minimized over the prefix's routes, against the best one."""
    E = A
    C = np.full((rs.m, rs.n), np.nan)
    for nodes in prefixes(rs, t):
        members = information_set(rs, nodes)
        cols = [u - 1 for u in unvisited_after(rs, nodes)]
        reduced = E[np.ix_(members, cols)] - E[members, nodes[-1] - 1][:, None]
        m_min = reduced.min(axis=0)
        C[np.ix_(members, cols)] = np.maximum(m_min.max() - m_min, 0.0)
    return C


def csv_cell(v):
    """One table cell as the CSV writers formatted it cell by cell: 10
    significant digits, NaN as `--`."""
    return "--" if np.isnan(v) else f"{v:.10g}"


def dump_matrix_cells(A, labels=None):
    """dump_matrix written cell by cell."""
    lines = ["row," + ",".join(str(i) for i in range(1, A.shape[1] + 1))]
    if labels is None:
        labels = [f"r{j + 1}" for j in range(len(A))]
    for label, row in zip(labels, A):
        lines.append(f"{label}," + ",".join(csv_cell(v) for v in row))
    return "\n".join(lines) + "\n"


def report_to_csv_cells(report):
    """report_to_csv written cell by cell."""
    cfg = report.cfg
    n = report.voi_matrix.shape[1]
    lines = [
        f"# t_reveal={cfg.t_reveal},c={cfg.c:.10g},"
        f"convention={cfg.convention},variant={report.variant}",
        "section,row," + ",".join(str(i) for i in range(1, n + 1)),
    ]
    for j, row in enumerate(report.voi_matrix):
        lines.append(f"voi,r{j + 1}," + ",".join(csv_cell(v) for v in row))
    lines.append("bar_voi,," + ",".join(csv_cell(v) for v in report.bar_voi))
    lines.append(f"expected_voi,,{csv_cell(report.expected_voi)}")
    lines.append(f"route_averaged_voi,,{csv_cell(report.route_averaged_voi)}")
    for j, row in enumerate(report.cstar_matrix):
        lines.append(f"cstar,r{j + 1}," + ",".join(csv_cell(v) for v in row))
    lines.append(f"cstar_global,,{csv_cell(report.cstar_global)}")
    lines.append(f"theorem1_bound,,{csv_cell(report.bound)}")
    return "\n".join(lines) + "\n"


def sweep_cells(inst, t_list=None, c_grid=None, convention="total", feedback_mode="mixed_subgame"):
    """hs.sweep solving every (t, c) cell on its own: a full LP for each
    switch and feedback game, and one feedback_matrix call per cell."""
    rs = hs.enumerate_routes(inst.n)
    if t_list is None:
        t_list = range(1, rs.n)
    t_list = sorted(set(int(t) for t in t_list))
    if not t_list:
        return []
    if c_grid is None:
        c_grid = default_cost_grid(inst, rs, t=t_list[0])
    c_grid = [float(c) for c in c_grid]
    A = hs.base_matrix(inst, rs)
    v_base = hs.solve_zero_sum(A).value
    cg_route = {t: hs.cstar_global(hs.cstar(A, rs, t, "route")) for t in t_list}
    cg_inf = {t: hs.cstar_global(hs.cstar(A, rs, t, "infoset")) for t in t_list}
    rows = []
    for t in t_list:
        for c in sorted(c_grid):
            cfg = hs.SwitchConfig(t, c, convention=convention, feedback_mode=feedback_mode)
            As = hs.switch_matrix(A, rs, cfg)
            sw = hs.solve_zero_sum(As)
            F = hs.feedback_matrix(A, rs, cfg)
            _, delta, _ = hs.entrywise_gap(As, F)
            bar = hs.worst_case_voi(hs.voi_matrix(As, rs, t))
            rows.append(
                hs.SweepRow(
                    t_reveal=t,
                    c=c,
                    v_base=v_base,
                    v_switch=sw.value,
                    v_fb=hs.solve_zero_sum(F).value,
                    expected_voi=hs.expected_voi(bar, sw.col_strategy),
                    theorem1_bound=hs.theorem1_bound(cg_route[t], c),
                    delta=delta,
                    cstar_global_route=cg_route[t],
                    cstar_global_infoset=cg_inf[t],
                )
            )
    return rows


def sweep_to_csv_cells(rows):
    """sweep_to_csv written field by field."""
    lines = [hs.experiments.SWEEP_HEADER]
    for r in rows:
        lines.append(
            f"{r.t_reveal},{r.c:.10g},{r.v_base:.10g},"
            f"{r.v_switch:.10g},{r.v_fb:.10g},{r.expected_voi:.10g},"
            f"{r.theorem1_bound:.10g},{r.delta:.10g},"
            f"{r.cstar_global_route:.10g},{r.cstar_global_infoset:.10g}"
        )
    return "\n".join(lines) + "\n"


def fmt(x, prec):
    """One fixed-point value as the CLI formatted it cell by cell: -0 as 0."""
    x = float(x)
    if x == 0:
        x = 0.0  # avoid "-0.0000"
    return f"{x:.{prec}f}"


def fixed_cell(v, prec, width):
    """One fixed-point table cell: `prec` decimals right-justified to
    `width`, NaN as `--`."""
    return "--".rjust(width) if np.isnan(v) else fmt(v, prec).rjust(width)


def strategy_lines(weights, labels, prec):
    """The support of a mix, one `  label: weight` line per weight > 1e-9."""
    return [f"  {labels[idx]}: {fmt(w, prec)}" for idx, w in enumerate(weights) if w > 1e-9]


def solve_text(model, sol, n, t, prec):
    """`solve`'s output before its optional matrix dump, with a label built
    for every row: n! routes, or the (n-t)!-route prefixes of the feedback
    game."""
    if model == "feedback":
        row_labels = [f"h=({','.join(str(v) for v in h)})" for h in sorted({r[:t] for r in routes(n)})]
    else:
        row_labels = [f"r{j + 1}=({','.join(str(v) for v in r)})" for j, r in enumerate(routes(n))]
    col_labels = [str(i) for i in range(1, n + 1)]
    return (
        f"model: {model}\nvalue: {fmt(sol.value, prec)}\n"
        f"row gap: {sol.row_gap:.3e}\ncol gap: {sol.col_gap:.3e}\n"
        "seeker mix:\n" + "\n".join(strategy_lines(sol.row_strategy, row_labels, prec)) + "\n"
        "hider mix:\n" + "\n".join(strategy_lines(sol.col_strategy, col_labels, prec)) + "\n"
    )


def voi_text(report, prec):
    """`voi`'s text output written cell by cell."""
    p = prec
    m, n = report.voi_matrix.shape
    out = [f"t_reveal: {report.cfg.t_reveal}\ncost: {fmt(report.cfg.c, p)}\n"]
    out.append(f"voi matrix ({m}x{n}), nonzero cells:\n")
    nonzero = [
        f"  r{j + 1},{i + 1}: {fmt(report.voi_matrix[j, i], p)}"
        for j, i in np.argwhere(report.voi_matrix > 1e-12 * np.abs(report.voi_matrix).max())
    ]
    out.append("\n".join(nonzero) + ("\n" if nonzero else "(none)\n"))
    out.append("worst-case voi per location: ")
    out.append(" ".join(fmt(v, p) for v in report.bar_voi) + "\n")
    out.append(f"expected voi: {fmt(report.expected_voi, p)}\n")
    out.append(f"route-averaged voi: {fmt(report.route_averaged_voi, p)}\n")
    out.append(f"cstar table (variant={report.variant}):\n")
    for j, row in enumerate(report.cstar_matrix):
        out.append(f"  r{j + 1}: " + " ".join(fixed_cell(v, p, p + 3) for v in row) + "\n")
    out.append(f"cstar global: {fmt(report.cstar_global, p)}\n")
    out.append(f"expected-voi bound at this cost: {fmt(report.bound, p)}\n")
    return "".join(out)


def simulate_text(result, value, prec):
    """`simulate`'s output written line by line."""
    return (
        f"model: {result.model}\ntrials: {result.trials}\nseed: {result.seed}\n"
        f"game value: {fmt(value, prec)}\nmean payoff: {fmt(result.mean_payoff, prec)}\n"
        f"stderr: {fmt(result.payoff_stderr, prec)}\n"
        f"ended by t: {fmt(result.empirical_end_by_t, prec)}\n"
    )
