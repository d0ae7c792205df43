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
from .matrixgame import _saddle_mask, check_cost, solve_games
from .routes import RouteSet, check_reveal_time, prefix_block

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
        check_cost(self.c)
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


def switch_matrix(A: PayoffMatrix, rs: RouteSet, cfg: SwitchConfig) -> PayoffMatrix:
    """Payoffs with the Hider's optimal stay/relocate decision folded in.

    Visited cells keep the baseline cost (the game ended before the reveal).
    Unvisited cells take the best reduced payoff over relocation targets.
    Under the total convention every unvisited cell weakly dominates the
    baseline, and for c past the largest residual gain the matrix equals A.
    """
    check_reveal_time(cfg.t_reveal, rs.n - 1)
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


def subgame_matrix(A: PayoffMatrix, rs: RouteSet, t: int, h, i, c: float):
    """Reveal-stage subgame at prefix h for a treasure initially at i: the
    prefix's routes versus relocation targets.

    Rows are the prefix's routes in order; columns are the unvisited
    locations ascending. Entries use the total convention: baseline cost of
    the target minus c off the stay column. For an int h this is a
    PayoffMatrix. For an array of prefix indices, with i an int or an array
    of the same shape, it is a stack of shape h.shape + ((n-t)!, n-t).
    """
    block = prefix_block(rs, t)
    check_cost(c)
    h, i = np.asarray(h), np.asarray(i)
    if ((h < 0) | (h >= rs.m // block)).any():
        raise ValueError(f"prefix index out of range 0..{rs.m // block - 1}")
    first = h * block
    unvisited = rs.position_matrix[first] > t
    cols = np.nonzero(unvisited)[-1].reshape(*h.shape, rs.n - t)
    stay = cols == i[..., None] - 1
    if not stay.any(axis=-1).all():
        raise ValueError(f"location {i} is visited under prefix {h} at t={t}")
    S = A.entries[first[..., None, None] + np.arange(block)[:, None], cols[..., None, :]] - c
    np.add(S, c, out=S, where=stay[..., None, :])
    return PayoffMatrix(S) if S.ndim == 2 else S


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
    lexicographically first prefix. For each start location i one stack
    holds the subgames of every prefix that leaves i unvisited, and one
    saddle scan covers the states' first prefixes in it. A subgame closed
    by a pure saddle gives a cell, which every prefix of the state reads
    from its own subgame; the subgames left go to solve_games, state by
    state and start by start, which solves them in block-diagonal LPs, and
    their values are shifted by the difference of the prefixes' cumulative
    costs. Visited cells, pure_min cells and saddle
    cells (which include every cell at t = n-1) are bit-identical to solving
    each prefix's subgame on its own; the shifted values agree with it to
    round-off.
    """
    t, c, n = cfg.t_reveal, cfg.c, rs.n
    E = A.entries
    first = np.arange(0, rs.m, prefix_block(rs, t))  # each prefix's first route
    nodes = rs.route_array[first, :t]
    cum = E[first, nodes[:, -1] - 1]
    offset = cum if cfg.convention == "remaining" else np.zeros(len(first))
    unvisited = rs.position_matrix[first] > t
    F = E[first]  # visited cells keep their prefix-constant baseline cost
    # Held-Karp states, numbered in order of their first prefix rep[s]
    key = (1 << (nodes - 1)).sum(axis=1) * (n + 1) + nodes[:, -1]
    _, rep, state = np.unique(key, return_index=True, return_inverse=True)
    order = np.argsort(rep)
    rep, state = rep[order], np.argsort(order)[state]
    lp = np.zeros((len(rep), n), dtype=bool)  # (state, start) subgames left to the LP
    for i in range(1, n + 1):
        h = np.flatnonzero(unvisited[:, i - 1])
        sub = subgame_matrix(A, rs, t, h, i, c)
        if cfg.feedback_mode == "pure_min":
            F[h, i - 1] = sub.max(axis=2).min(axis=1) - offset[h]
            continue
        lead = rep[state[h]] == h  # the prefixes whose subgames are scanned
        mask = _saddle_mask(sub[lead]).reshape(lead.sum(), -1)
        cell = np.full(len(rep), -1)  # each state's first saddle, row-major
        cell[state[h[lead]]] = np.where(mask.any(axis=1), mask.argmax(axis=1), -1)
        lp[state[h[lead]], i - 1] = ~mask.any(axis=1)
        hit = cell[state[h]] >= 0
        F[h[hit], i - 1] = sub.reshape(len(h), -1)[hit, cell[state[h[hit]]]] - offset[h[hit]]

    s, i0 = np.nonzero(lp)
    value = np.zeros((len(rep), n))
    value[s, i0] = [sol.value for sol in solve_games(subgame_matrix(A, rs, t, rep[s], i0 + 1, c))]
    h, i0 = np.nonzero(lp[state])
    F[h, i0] = (value[state[h], i0] + (cum[h] - cum[rep[state[h]]])) - offset[h]
    return PayoffMatrix(F, row_kind="prefix", cfg=cfg)


def lift_feedback(Afb: PayoffMatrix) -> PayoffMatrix:
    """Re-index a prefix-row matrix by routes; prefix-mates get equal rows.

    Each prefix's routes are consecutive, so every row repeats n!/rows times.
    """
    if Afb.row_kind != "prefix":
        raise ValueError("lift_feedback expects a prefix-indexed matrix")
    block, rest = divmod(math.factorial(Afb.cols), Afb.rows)
    if rest:
        raise ValueError(f"{Afb.rows} prefix rows do not split the {Afb.cols}! routes")
    return PayoffMatrix(np.repeat(Afb.entries, block, axis=0), cfg=Afb.cfg)


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
