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
    return hs.Prefix(tuple(route[:t]), t)


def information_set(rs, h):
    """The routes whose first t_reveal entries equal the prefix."""
    t = h.t_reveal
    check_reveal_time(t, rs.n)
    if any(not 1 <= v <= rs.n for v in h.nodes):
        raise ValueError(f"prefix node out of range 1..{rs.n}: {h.nodes}")
    match = (rs.route_array[:, :t] == np.array(h.nodes)).all(axis=1)
    members = tuple(int(j) for j in np.flatnonzero(match))
    visited = frozenset(h.nodes)
    return hs.InformationSet(
        prefix=h,
        members=members,
        visited=visited,
        unvisited=frozenset(range(1, rs.n + 1)) - visited,
    )


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
    classes, _ = hs.prefix_classes(rs, t)
    E = A.entries
    F = {conv: np.empty((len(classes), rs.n)) for conv in ("total", "remaining")}
    closed = np.zeros((len(classes), rs.n), dtype=bool)
    for hi, iset in enumerate(classes):
        j0 = iset.members[0]
        offsets = {"total": 0.0, "remaining": float(E[j0, iset.prefix.nodes[-1] - 1])}
        for i in iset.visited:
            for conv in F:
                F[conv][hi, i - 1] = E[j0, i - 1]
            closed[hi, i - 1] = True
        for i in sorted(iset.unvisited):
            sub = hs.subgame_matrix(A, rs, iset, i, c).entries
            if feedback_mode == "pure_min":
                val = float(sub.max(axis=1).min())
                closed[hi, i - 1] = True
            else:
                val = game_value(sub)
                closed[hi, i - 1] = find_pure_saddle(sub) is not None
            for conv, offset in offsets.items():
                F[conv][hi, i - 1] = val - offset
    return F, closed
