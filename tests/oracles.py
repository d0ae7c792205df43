"""Reference implementations that the package's faster paths are checked
against: per-prefix and per-route loops the package vectorises, and an
independent closed form for small reveal-stage subgames."""

import numpy as np

import hideseek as hs
from hideseek.matrixgame import find_pure_saddle
from hideseek.routes import check_reveal_time


def position(route, i):
    """1-based visit position of location i along the route."""
    return route.index(i) + 1


def prefix_of(route, t):
    """The first t visited locations. t may run up to n for termination queries."""
    check_reveal_time(t, len(route))
    return tuple(route[:t])


def prefixes(rs, t):
    """Every distinct t-visit prefix, in lexicographic order."""
    return sorted({prefix_of(route, t) for route in rs.routes})


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
    S = A.entries[np.ix_(members, [u - 1 for u in targets])] - c
    S[:, targets.index(i)] += c
    return S


def reduced_payoff(A, rs, j, cfg, i, i_hat):
    """Reveal-stage payoff when route j is committed, the treasure started at
    i, and the Hider relocates to i_hat (staying when i_hat == i)."""
    if not 0 <= j < rs.m:
        raise ValueError(f"route index {j} out of range 0..{rs.m - 1}")
    check_reveal_time(cfg.t_reveal, rs.n - 1)
    route = rs.routes[j]
    unvisited = set(route[cfg.t_reveal :])
    if i not in unvisited or i_hat not in unvisited:
        raise ValueError(
            f"locations must be unvisited at t={cfg.t_reveal} on route {route}: "
            f"i={i}, i_hat={i_hat}"
        )
    value = float(A.entries[j, i_hat - 1])
    if cfg.convention == "remaining":
        value -= float(A.entries[j, route[cfg.t_reveal - 1] - 1])
    if i_hat != i:
        value -= cfg.c
    return value


def best_relocations(A, rs, cfg):
    """Optimal relocation target per (route, initial location), 0 where visited.

    Ties between targets break toward the lowest location index. The chosen
    target's reduced payoff equals the switch_matrix entry; the target itself
    does not depend on the convention (the row offset cancels).
    """
    check_reveal_time(cfg.t_reveal, rs.n - 1)
    E = A.entries
    target = np.zeros((rs.m, rs.n), dtype=np.int64)
    for j in range(rs.m):
        route = rs.routes[j]
        unv = sorted(route[cfg.t_reveal :])
        vals = np.array([E[j, u - 1] for u in unv])
        for i in unv:
            paid = vals - cfg.c
            paid[unv.index(i)] += cfg.c
            target[j, i - 1] = unv[int(np.argmax(paid))]
    return target


def game_value(A):
    """Value of a zero-sum game: its pure saddle, the mixed 2x2 formula, or the LP.

    A 2x2 game with no saddle has a fully mixed equilibrium, so its value is
    (ad - bc) / (a + d - b - c); the denominator is at least twice the saddle
    scan's tolerance, because each of its two differences exceeds it.
    """
    saddle = find_pure_saddle(A)
    if saddle is not None:
        return saddle.value
    if A.shape == (2, 2):
        den = A[0, 0] + A[1, 1] - A[0, 1] - A[1, 0]
        return float((A[0, 0] * A[1, 1] - A[0, 1] * A[1, 0]) / den)
    return hs.solve_zero_sum(A).value


def feedback_matrices_per_prefix(A, rs, t, c, feedback_mode):
    """The seeker-aware matrix solved with one reveal-stage subgame per prefix.

    Returns ({convention: F}, closed) for both conventions, which share the
    subgame values and differ by the remaining offset. closed marks the
    cells read straight from a matrix entry (visited cells, pure_min cells
    and subgames with a pure saddle), where the package must agree exactly.
    """
    E = A.entries
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


def cstar_infoset_per_prefix(A, rs, t):
    """The infoset-variant thresholds computed prefix by prefix: each target's
    reduced payoff minimized over the prefix's routes, against the best one."""
    E = A.entries
    C = np.full((rs.m, rs.n), np.nan)
    for nodes in prefixes(rs, t):
        members = information_set(rs, nodes)
        cols = [u - 1 for u in unvisited_after(rs, nodes)]
        reduced = E[np.ix_(members, cols)] - E[members, nodes[-1] - 1][:, None]
        m_min = reduced.min(axis=0)
        C[np.ix_(members, cols)] = np.maximum(m_min.max() - m_min, 0.0)
    return C
