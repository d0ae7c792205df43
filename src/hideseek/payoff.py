"""Payoff matrix constructions for the two-stage search game.

Builds the baseline travel-cost matrix, the restricted-model switch matrix
(Seeker committed, Hider may relocate once after the reveal), the
reveal-stage subgames, and the seeker-aware feedback matrix with its
route-indexed lift.

Two value conventions are supported for post-reveal payoffs. ``total`` keeps
full cumulative distances from the origin; ``remaining`` subtracts the
cumulative distance up to the reveal node, i.e. counts only travel after the
reveal. The subtraction is constant within a row, so stay/switch comparisons
and relocation choices are identical under both; game values differ.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass

import numpy as np

from .instance import Instance, distance_matrix
from .matrixgame import find_pure_saddle, game_values
from .routes import InformationSet, RouteSet, prefix_classes

CONVENTIONS = ("total", "remaining")
FEEDBACK_MODES = ("mixed_subgame", "pure_min")


@dataclass(frozen=True)
class SwitchConfig:
    """Reveal-stage parameters: reveal time, switching cost, and mode flags."""

    t_reveal: int
    c: float
    convention: str = "total"
    feedback_mode: str = "mixed_subgame"

    def __post_init__(self):
        if self.t_reveal < 1:
            raise ValueError(f"t_reveal must be >= 1, got {self.t_reveal}")
        if not (math.isfinite(self.c) and self.c >= 0):
            raise ValueError(f"switching cost must be finite and >= 0, got {self.c}")
        if self.convention not in CONVENTIONS:
            raise ValueError(f"convention must be one of {CONVENTIONS}")
        if self.feedback_mode not in FEEDBACK_MODES:
            raise ValueError(f"feedback_mode must be one of {FEEDBACK_MODES}")


@dataclass(frozen=True, eq=False)
class PayoffMatrix:
    """A travel-cost matrix with rows minimizing and columns maximizing.

    row_kind says whether rows are committed routes or revealed prefixes.
    Matrices derived from a SwitchConfig carry it for consistency checks.
    """

    entries: np.ndarray
    row_kind: str = "route"
    cfg: SwitchConfig | None = None

    def __post_init__(self):
        e = np.asarray(self.entries, dtype=float)
        if e.ndim != 2:
            raise ValueError(f"matrix must be 2-d, got shape {e.shape}")
        if not np.isfinite(e).all():
            raise ValueError("matrix has non-finite entries")
        object.__setattr__(self, "entries", e)

    @property
    def rows(self) -> int:
        return self.entries.shape[0]

    @property
    def cols(self) -> int:
        return self.entries.shape[1]


def _check_t(rs: RouteSet, t: int) -> None:
    if not 1 <= t <= rs.n - 1:
        raise ValueError(f"t_reveal {t} out of range 1..{rs.n - 1} for n={rs.n}")


def base_matrix(inst: Instance, rs: RouteSet) -> PayoffMatrix:
    """Cumulative travel distance to reach each location along each route.

    Entry (j, i) is the origin leg plus all legs up to location i's visit
    position on route j. Entries read in visit order are non-decreasing.
    """
    if inst.n != rs.n:
        raise ValueError(f"instance has n={inst.n} but route set has n={rs.n}")
    D = distance_matrix(inst)
    R = rs.route_array
    legs = np.empty(R.shape)
    legs[:, 0] = D[0, R[:, 0]]
    if rs.n > 1:
        legs[:, 1:] = D[R[:, :-1], R[:, 1:]]
    cum = legs.cumsum(axis=1)
    A = np.empty(R.shape)
    A[np.arange(rs.m)[:, None], R - 1] = cum
    return PayoffMatrix(A)


def reduced_payoff(
    A: PayoffMatrix, rs: RouteSet, j: int, cfg: SwitchConfig, i: int, i_hat: int
) -> float:
    """Reveal-stage payoff when route j is committed, the treasure started at
    i, and the Hider relocates to i_hat (staying when i_hat == i)."""
    if not 0 <= j < rs.m:
        raise ValueError(f"route index {j} out of range 0..{rs.m - 1}")
    _check_t(rs, cfg.t_reveal)
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


def switch_matrix(A: PayoffMatrix, rs: RouteSet, cfg: SwitchConfig) -> PayoffMatrix:
    """Payoffs with the Hider's optimal stay/relocate decision folded in.

    Visited cells keep the baseline cost (the game ended before the reveal).
    Unvisited cells take the best reduced payoff over relocation targets.
    Under the total convention every unvisited cell weakly dominates the
    baseline, and for c past the largest residual gain the matrix equals A.
    """
    _check_t(rs, cfg.t_reveal)
    E = A.entries
    m, n = E.shape
    rows = np.arange(m)
    unvisited = rs.position_matrix > cfg.t_reveal

    masked = np.where(unvisited, E, -np.inf)
    top = masked.max(axis=1)
    top_col = masked.argmax(axis=1)
    masked2 = masked.copy()
    masked2[rows, top_col] = -np.inf
    second = masked2.max(axis=1)
    # best paid target other than i itself: the row max, or the runner-up
    # when i is the argmax
    best_other = np.where(np.arange(n)[None, :] == top_col[:, None], second[:, None], top[:, None])
    switched = np.maximum(E, best_other - cfg.c)
    S = np.where(unvisited, switched, E)
    if cfg.convention == "remaining":
        reveal_cum = E[rows, rs.route_array[:, cfg.t_reveal - 1] - 1]
        S = np.where(unvisited, S - reveal_cum[:, None], S)
    return PayoffMatrix(S, cfg=cfg)


def best_relocations(A: PayoffMatrix, rs: RouteSet, cfg: SwitchConfig) -> np.ndarray:
    """Optimal relocation target per (route, initial location), 0 where visited.

    Ties between targets break toward the lowest location index. The chosen
    target's reduced payoff equals the switch_matrix entry; the target itself
    does not depend on the convention (the row offset cancels).
    """
    _check_t(rs, cfg.t_reveal)
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


def subgame_matrix(
    A: PayoffMatrix, rs: RouteSet, iset: InformationSet, i: int, c: float
) -> PayoffMatrix:
    """Reveal-stage subgame at a prefix: prefix-consistent routes versus
    relocation targets, for a treasure initially at i.

    Rows are the information set's members in ascending route order; columns
    are the unvisited locations ascending. Entries use the total convention:
    baseline cost of the target minus c off the stay column.
    """
    if i not in iset.unvisited:
        raise ValueError(f"location {i} is visited under prefix {iset.prefix.nodes}")
    if not (math.isfinite(c) and c >= 0):
        raise ValueError(f"switching cost must be finite and >= 0, got {c}")
    targets = sorted(iset.unvisited)
    S = A.entries[np.ix_(list(iset.members), [u - 1 for u in targets])] - c
    S[:, targets.index(i)] += c
    return PayoffMatrix(S)


def feedback_matrix(A: PayoffMatrix, rs: RouteSet, cfg: SwitchConfig) -> PayoffMatrix:
    """Prefix-indexed payoffs when the Seeker anticipates relocation.

    Visited cells carry the (prefix-constant) baseline cost. Unvisited cells
    resolve the reveal-stage subgame over prefix-consistent continuations:
    its mixed game value by default, or the literal minimum over routes of
    the row maxima under feedback_mode="pure_min".

    A subgame depends on its prefix only through the Held-Karp state (the
    visited set and the last prefix node): the prefix order adds its
    cumulative cost to every entry. So the mixed values are solved once per
    state, C(n,t)*t of them instead of n!/(n-t)! prefixes, on the state's
    lexicographically first prefix. A subgame closed by a pure saddle gives
    a cell, which every prefix of the state reads from its own rows with
    subgame_matrix's arithmetic; the subgames left go to game_values, which
    solves them as 2x2 formulas or in block-diagonal LPs, and their values
    are shifted by the difference of the prefixes' cumulative costs. Visited
    cells, pure_min cells and saddle cells (which include every cell at
    t = n-1) are bit-identical to solving each prefix's subgame on its own;
    the shifted values agree with it to round-off.
    """
    _check_t(rs, cfg.t_reveal)
    classes, _ = prefix_classes(rs, cfg.t_reveal)
    E = A.entries
    members = np.array([iset.members for iset in classes])
    first = members[:, 0]
    cum = E[first, [iset.prefix.nodes[-1] - 1 for iset in classes]]
    offset = cum if cfg.convention == "remaining" else np.zeros(len(classes))
    unvisited = rs.position_matrix[first] > cfg.t_reveal
    F = E[first]  # visited cells keep their prefix-constant baseline cost
    if cfg.feedback_mode == "pure_min":
        S = E[members] - cfg.c
        for i in range(1, rs.n + 1):
            h = np.flatnonzero(unvisited[:, i - 1])
            sub = np.where(unvisited[h, None, :], S[h], -np.inf)
            sub[:, :, i - 1] += cfg.c
            F[h, i - 1] = sub.max(axis=2).min(axis=1) - offset[h]
        return PayoffMatrix(F, row_kind="prefix", cfg=cfg)

    states: dict[tuple[frozenset[int], int], list[int]] = {}
    for hi, iset in enumerate(classes):
        states.setdefault((iset.visited, iset.prefix.nodes[-1]), []).append(hi)
    pending, subs = [], []
    for group in states.values():
        rep = classes[group[0]]
        h = np.array(group)
        targets = sorted(rep.unvisited)
        for i in targets:
            sub = subgame_matrix(A, rs, rep, i, cfg.c).entries
            saddle = find_pure_saddle(sub)
            if saddle is None:
                pending.append((h, i))
                subs.append(sub)
                continue
            u = targets[saddle.col]
            val = E[members[h, saddle.row], u - 1] - cfg.c
            if u == i:
                val += cfg.c
            F[h, i - 1] = val - offset[h]
    for (h, i), val in zip(pending, game_values(subs)):
        F[h, i - 1] = (val + (cum[h] - cum[h[0]])) - offset[h]
    return PayoffMatrix(F, row_kind="prefix", cfg=cfg)


def lift_feedback(Afb: PayoffMatrix, pi: np.ndarray) -> PayoffMatrix:
    """Re-index a prefix-row matrix by routes; prefix-mates get equal rows."""
    if Afb.row_kind != "prefix":
        raise ValueError("lift_feedback expects a prefix-indexed matrix")
    pi = np.asarray(pi)
    if pi.max() >= Afb.rows or pi.min() < 0:
        raise ValueError("prefix map does not match the matrix rows")
    return PayoffMatrix(Afb.entries[pi], cfg=Afb.cfg)


def entrywise_gap(
    As: PayoffMatrix, Afb_lifted: PayoffMatrix
) -> tuple[PayoffMatrix, float, list[tuple[int, int]]]:
    """Absolute switch-vs-feedback difference, its maximum, and the argmax cells.

    Cells are 0-based (route, location-1) pairs within 1e-9 of the maximum.
    """
    if As.entries.shape != Afb_lifted.entries.shape:
        raise ValueError(
            f"shape mismatch: {As.entries.shape} vs {Afb_lifted.entries.shape}"
        )
    if As.row_kind != "route" or Afb_lifted.row_kind != "route":
        raise ValueError("entrywise_gap expects two route-indexed matrices")
    G = np.abs(As.entries - Afb_lifted.entries)
    delta = float(G.max())
    cells = [(int(r), int(c)) for r, c in np.argwhere(G >= delta - 1e-9)]
    return PayoffMatrix(G), delta, cells


def dump_matrix(pm: PayoffMatrix, labels=None, digits: int = 10) -> str:
    """CSV rendering: header of location indices, one route/prefix per line."""
    n = pm.cols
    out = io.StringIO()
    out.write("row," + ",".join(str(i) for i in range(1, n + 1)) + "\n")
    if labels is None:
        prefix_char = "h" if pm.row_kind == "prefix" else "r"
        labels = [f"{prefix_char}{j + 1}" for j in range(pm.rows)]
    for label, row in zip(labels, pm.entries):
        out.write(str(label) + "," + ",".join(f"{v:.{digits}g}" for v in row) + "\n")
    return out.getvalue()
