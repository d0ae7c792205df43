"""Payoff matrix constructions for the two-stage search game.

Builds the baseline travel-cost matrix, the restricted-model switch matrix
(Seeker committed, Hider may relocate once after the reveal), the
reveal-stage subgames, and the seeker-aware feedback matrix. Every matrix
is a float array whose rows minimize and columns maximize. Route-indexed
matrices have one row per route; the feedback matrix has one row per
prefix, and prefix h covers routes h*B .. h*B+B-1 (routes.prefix_block).

Two value conventions are supported for post-reveal payoffs. ``total`` keeps
full cumulative distances from the origin; ``remaining`` subtracts the
cumulative distance up to the reveal node, i.e. counts only travel after the
reveal. The subtraction is constant within a row, so stay/switch comparisons
and relocation choices are identical under both; game values differ.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .instance import Instance, distance_matrix
from .matrixgame import _first_saddle, _saddle_possible, _SharedStack, check_cost, solve_games
from .routes import RouteSet, check_reveal_time, prefix_block

CONVENTIONS = ("total", "remaining")
FEEDBACK_MODES = ("mixed_subgame", "pure_min")
# _subgames scans the subgames its saddle screen leaves open in dense stacks
# of at most this many bytes, and feedback_matrix solves its LP-bound ones in
# shared stacks of at most this many bytes of four floats per subgame and row
# (the simplex's pricing and row maxima, the Seeker mix and a certificate
# product): all 336 of the seed-1 n = 8 instance at t = 2 go in one.
_STACK_BYTES = 1 << 24


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
        if np.ndim(self.c):  # check_cost takes arrays; a config has one cost
            raise TypeError(f"c must be one cost, got an array of shape {np.shape(self.c)}")
        check_cost(self.c)
        if self.convention not in CONVENTIONS:
            raise ValueError(f"convention must be one of {CONVENTIONS}")
        if self.feedback_mode not in FEEDBACK_MODES:
            raise ValueError(f"feedback_mode must be one of {FEEDBACK_MODES}")


def base_matrix(inst: Instance, rs: RouteSet) -> np.ndarray:
    """Cumulative travel distance to reach each location along each route.

    Entry (j, i) is the origin leg plus all legs up to location i's visit
    position on route j. Entries read in visit order are non-decreasing.
    The legs are summed one visit at a time, in visit order, each running
    sum written straight into A: the only temporaries are a few columns.
    """
    if inst.n != rs.n:
        raise ValueError(f"instance has n={inst.n} but route set has n={rs.n}")
    D = distance_matrix(inst)
    R = rs.route_array
    rows, cum, A = np.arange(rs.m), np.full(rs.m, -0.0), np.empty(R.shape)  # -0.0 + x is x, bit for bit
    for p in range(rs.n):  # the leg to visit p, the first from the origin, node 0
        cum += D[R[:, p - 1] if p else 0, R[:, p]]
        A[rows, R[:, p] - 1] = cum
    return A


def switch_matrix(A: np.ndarray, rs: RouteSet, cfg: SwitchConfig) -> np.ndarray:
    """Payoffs with the Hider's optimal stay/relocate decision folded in.

    Visited cells keep the baseline cost (the game ended before the reveal).
    Unvisited cells take the best reduced payoff over relocation targets.
    A is a base_matrix, whose entries rise along each route in visit order,
    so the best paid target is the route's last visit: an unvisited cell
    takes max(A, A[last] - c). That is the best reduced payoff bit for bit,
    also at the last visit, where any other target less c pays no more than
    staying. Under the total convention every unvisited cell weakly
    dominates the baseline, and the matrix is A exactly at the costs
    _switch_tail finds. Every step writes into the one output array.
    """
    check_reveal_time(cfg.t_reveal, rs.n - 1)
    rows = np.arange(len(A))
    unvisited = rs.position_matrix > cfg.t_reveal
    top = A[rows, rs.route_array[:, -1] - 1]
    top -= cfg.c
    S = np.maximum(A, top[:, None])
    np.copyto(S, A, where=~unvisited)
    if cfg.convention == "remaining":
        reveal_cum = A[rows, rs.route_array[:, cfg.t_reveal - 1] - 1]
        np.subtract(S, reveal_cum[:, None], out=S, where=unvisited)
    return S


def _switch_tail(A: np.ndarray, rs: RouteSet, t: int, costs) -> np.ndarray:
    """Whether each cost's total-convention switch_matrix at reveal time t is
    the base matrix A bit for bit: where every route's last visit, less the
    cost, pays at most its visit t+1, its least unvisited entry, computed in
    floats as switch_matrix computes it. At t = n-1 those are one visit, so
    every cost passes. Rounding x - c falls with c, so the costs that pass
    are those from some least one up: the tail of a sorted cost grid.

    The test is exact where c >= c*_route(t) (voi.cstar) is not: the
    threshold rounds the difference A[last] - A[visit t+1] once, and a cost
    at or next to it can fall on either side of the test above."""
    check_reveal_time(t, rs.n - 1)
    rows = np.arange(len(A))
    top = A[rows, rs.route_array[:, -1] - 1]
    low = A[rows, rs.route_array[:, t] - 1]
    return np.array([bool((top - c <= low).all()) for c in costs], dtype=bool)


def _game_stack(G: int, m: int, k: int) -> np.ndarray:
    """An uninitialised stack of G games of shape (m, k), stored Hider-major:
    memory shape (G, k, m), so each game's m-long Seeker axis, the long
    one of these tall games, is contiguous in every column."""
    return np.swapaxes(np.empty((G, k, m)), 1, 2)


def _prefix_min(S: np.ndarray, block: int) -> np.ndarray:
    """The pure_min feedback matrix of the switch matrix S, or of each in a
    stack of them: every prefix's cell is the least entry of its block of
    consecutive routes, since rounding x - c is monotone in x."""
    return S.reshape(*S.shape[:-2], -1, block, S.shape[-1]).min(axis=-2)


def subgame_matrix(A: np.ndarray, rs: RouteSet, t: int, h, i, c) -> np.ndarray:
    """Reveal-stage subgame at prefix h for a treasure initially at i: the
    prefix's routes versus relocation targets.

    Rows are the prefix's routes in order; columns are the unvisited
    locations ascending. Entries use the total convention: baseline cost of
    the target, minus c off every column but the stay column. For an int h
    this is one (n-t)! x (n-t) matrix. For an array of prefix indices, with
    i and c each a scalar or an array of the same shape, it is a stack of
    shape h.shape + ((n-t)!, n-t), Hider-major as _game_stack's stacks:
    gathered through A.T, each column's routes contiguous.
    """
    block = prefix_block(rs, t)
    h, i, c = np.asarray(h), np.asarray(i), np.asarray(c, dtype=float)
    check_cost(c)
    if ((h < 0) | (h >= rs.m // block)).any():
        raise ValueError(f"prefix index out of range 0..{rs.m // block - 1}")
    first = h * block
    unvisited = rs.position_matrix[first] > t
    cols = np.nonzero(unvisited)[-1].reshape(*h.shape, rs.n - t)
    stay = cols == i[..., None] - 1
    if not stay.any(axis=-1).all():
        raise ValueError(f"location {i} is visited under prefix {h} at t={t}")
    S = A.T[cols[..., None], first[..., None, None] + np.arange(block)]
    np.subtract(S, c[..., None, None], out=S, where=~stay[..., None])
    return np.swapaxes(S, -1, -2)


def _states(rs: RouteSet, t: int):
    """Each prefix's Held-Karp state at reveal time t, its visited set and
    last node, with the states numbered in order of their first prefixes:
    (the state of each prefix, the first prefix of each state)."""
    nodes = rs.route_array[:: prefix_block(rs, t), :t].astype(np.intp)  # the key's shifts wrap in uint8 past n = 8
    key = (1 << (nodes - 1)).sum(axis=1) * (rs.n + 1) + nodes[:, -1]
    _, rep, state = np.unique(key, return_index=True, return_inverse=True)
    order = np.argsort(rep)
    return np.argsort(order)[state], rep[order]


def _subgames(A: np.ndarray, rs: RouteSet, t: int, rep, costs):
    """The reveal-stage subgames of the states whose first prefixes are rep,
    at each cost, as one shared stack (matrixgame._SharedStack), and each
    one's first pure saddle, as _first_saddle finds it, or -1.

    The subgames run over (cost, state, start), the starts ascending. A
    state's block B_s is gathered once, as subgame_matrix's subgame at
    c = 0, and the subgame of cost c and start i is B_s less c off every
    column but i's, subgame_matrix's subgame bit for bit. _saddle_possible
    screens every subgame from the blocks, by _first_saddle's exact bound
    test, and only the subgames it leaves open are scanned, materialised in
    stacks of at most _STACK_BYTES.
    """
    k = rs.n - t
    cols = np.nonzero(rs.position_matrix[rep * prefix_block(rs, t)] > t)[1].reshape(len(rep), k)
    B = subgame_matrix(A, rs, t, rep, cols[:, 0] + 1, 0.0)
    c, s, i = (index.ravel() for index in np.indices((len(costs), len(rep), k)))
    games = _SharedStack(B, s, costs[c], i)
    cell = np.full(len(games), -1)
    open_ = np.flatnonzero(_saddle_possible(games))
    size = max(1, _STACK_BYTES // B[0].nbytes)  # subgames per scanned stack
    for j in range(0, len(open_), size):
        g = open_[j : j + size]
        cell[g] = _first_saddle(games[g])
    return games, cell


def feedback_matrix(A: np.ndarray, rs: RouteSet, cfg) -> np.ndarray:
    """Prefix-indexed payoffs when the Seeker anticipates relocation.

    For one SwitchConfig this is one (n!/(n-t)!, n) matrix. For a sequence
    of configs that share the reveal time, convention and feedback mode,
    and may differ in the switching cost, it is the stack of their
    matrices, shape (len(cfg), n!/(n-t)!, n). Visited cells carry the
    (prefix-constant) baseline cost. Unvisited cells resolve the
    reveal-stage subgame of cell (h, i) over the prefix's routes, with the
    start i known to both players: its mixed game value by default, or its
    least row maximum under feedback_mode="pure_min", which is the prefix
    minimum of switch_matrix bit for bit (rounding x - c is monotone in x).
    At the costs _switch_tail finds, the total-convention switch_matrix is
    A, so the pure_min F is the prefix minimum of A, less the reveal node's
    cumulative cost in unvisited cells under "remaining".

    A subgame depends on its prefix only through the Held-Karp state (the
    visited set and the last prefix node; the prefix order adds its
    cumulative cost to every entry), so the mixed values are solved once
    per state, C(n,t)*t of them instead of n!/(n-t)!, on the state's first
    prefix. Every (cost, start) subgame of a state is the state's one block
    of A less a shift constant down each column (_subgames): the blocks are
    gathered once, the subgames are screened for saddles from them, and
    the LP-bound subgames go to solve_games as shared stacks of (block,
    shift) pairs, with no copy per subgame, in stacks of at most
    _STACK_BYTES of four floats per subgame and row. Their values are
    shifted by the difference of the prefixes' cumulative costs. A
    saddle's cell is read from A by every prefix of the state, so visited
    and saddle cells (every cell at t = n-1) are bit-identical to solving
    each prefix's subgame alone; shifted values agree to round-off. One
    config's F is row-major, a stack of them Hider-major (_game_stack), and
    F does not depend on _STACK_BYTES or on which costs come in one call.
    """
    one = isinstance(cfg, SwitchConfig)
    cfgs = [cfg] if one else list(cfg)
    if not cfgs:
        raise ValueError("no switch configs")
    t, convention, mode = cfgs[0].t_reveal, cfgs[0].convention, cfgs[0].feedback_mode
    if any((cfg.t_reveal, cfg.convention, cfg.feedback_mode) != (t, convention, mode) for cfg in cfgs):
        raise ValueError("the configs must share the reveal time, convention and feedback mode")
    n, block = rs.n, prefix_block(rs, t)
    # one matrix is row-major, as the route-indexed ones: solve_zero_sum's
    # certificate takes the same bits from it as from them
    F = np.empty((1, rs.m // block, n)) if one else _game_stack(len(cfgs), rs.m // block, n)
    if mode == "pure_min":
        for g, cfg in enumerate(cfgs):
            F[g] = _prefix_min(switch_matrix(A, rs, cfg), block)
        return F[0] if one else F
    first = np.arange(0, rs.m, block)  # each prefix's first route
    cum = A[first, rs.route_array[first, t - 1] - 1]
    offset = cum if convention == "remaining" else np.zeros(len(first))
    unvisited = rs.position_matrix[first] > t
    costs = np.array([cfg.c for cfg in cfgs])
    F[:] = A[first]  # visited cells keep their prefix-constant baseline cost
    state, rep = _states(rs, t)
    games, cell = _subgames(A, rs, t, rep, costs)
    value = np.zeros(len(games))  # LP values
    lp = np.flatnonzero(cell < 0)
    size = max(1, _STACK_BYTES // (32 * block))  # LP-bound subgames per stack
    for j in range(0, len(lp), size):
        g = lp[j : j + size]
        value[g] = solve_games(games.take(g))[0]

    # every unvisited cell: its cost, prefix, and place among the prefix's
    # unvisited locations, the place of its start in its state's subgames
    k, h, i = (index.ravel() for index in np.indices((len(cfgs), len(first), n - t)))
    cols = np.nonzero(unvisited)[1].reshape(-1, n - t)
    g = (k * len(rep) + state[h]) * (n - t) + i  # its subgame
    i0 = cols[h, i]
    # a saddle cell is read from A, as the prefix's own subgame holds it
    r, j = np.divmod(cell[g], n - t)
    hit = r >= 0
    col = cols[h[hit], j[hit]]
    a = A[first[h[hit]] + r[hit], col]
    F[k[hit], h[hit], i0[hit]] = np.where(col == i0[hit], a, a - costs[k[hit]]) - offset[h[hit]]
    # an LP value is shifted by the difference of the prefixes' cumulative costs
    k, h, i0, g = k[~hit], h[~hit], i0[~hit], g[~hit]
    F[k, h, i0] = (value[g] + (cum[h] - cum[rep[state[h]]])) - offset[h]
    return F[0] if one else F


def _model_matrix(
    A: np.ndarray, rs: RouteSet, model: str, t: int, c: float, convention: str, feedback_mode: str
) -> np.ndarray:
    """The payoff matrix of one game model from the base matrix A. Base
    ignores t and c, and so does every model at t = n: revealing after the
    last visit reveals nothing, so the game is the base game."""
    if model == "base" or t == rs.n:
        return A
    cfg = SwitchConfig(t, c, convention=convention, feedback_mode=feedback_mode)
    if model == "restricted":
        return switch_matrix(A, rs, cfg)
    return feedback_matrix(A, rs, cfg)


def _prefix_gap(As: np.ndarray, F: np.ndarray) -> np.ndarray:
    """|As - F| in the prefix-block layout, shape (..., rows, (n-t)!, n):
    each prefix row of F against the routes of its block in As. Takes one
    matrix pair or a stack of them; ValueError if the shapes do not pair."""
    (m, n), (rows, cols) = As.shape[-2:], F.shape[-2:]
    blocks = {math.factorial(n - t) for t in range(1, n)}
    paired = As.shape[:-2] == F.shape[:-2] and n == cols and m == math.factorial(n)
    if not (paired and rows and m % rows == 0 and m // rows in blocks):
        raise ValueError(f"shape mismatch: {As.shape} vs {F.shape}")
    return np.abs(As.reshape(*As.shape[:-2], rows, -1, n) - F[..., None, :])


def entrywise_gap(As: np.ndarray, F: np.ndarray) -> tuple[np.ndarray, float, list[tuple[int, int]]]:
    """Absolute switch-vs-feedback difference, its maximum, and the argmax cells.

    As has one row per route, n! of them, and F one row per prefix at some
    reveal time t in 1..n-1: each of its rows is compared with the block of
    (n-t)! As rows (the prefix's routes) that it covers, so G is
    route-indexed like As. Cells are 0-based (route, location-1) pairs
    within 1e-9 times max|As| of the maximum, so the same cells come back in
    any unit of length.
    """
    G = _prefix_gap(As, F).reshape(As.shape)
    delta = float(G.max())
    cells = list(map(tuple, np.argwhere(G >= delta - 1e-9 * np.abs(As).max()).tolist()))
    return G, delta, cells


def _format_rows(labels, values, cell: str, nan: str) -> str:
    """One line per label: the label, then its row of values, each value
    formatted by the %-format cell and NaN written as nan.

    Each distinct row is formatted once: tables such as the n = 8 VOI table
    repeat a few rows across 40,320 routes. Rows are keyed by their bytes,
    which tell -0.0 from 0.0 and match a NaN cell, where a tuple would not.
    """
    if not len(labels):
        return ""
    rows = np.asarray(values, dtype=float).reshape(len(labels), -1)
    cells = cell * rows.shape[1]
    text = {}
    lines = []
    for lb, r in zip(labels, rows):
        key = r.tobytes()
        line = text.get(key)
        if line is None:
            line = text[key] = (cells % tuple(r.tolist())).replace("nan", nan)
        lines.append(f"{lb}{line}\n")
    return "".join(lines)


def _csv_rows(labels, values) -> str:
    """One CSV line per label: the label, then its row of values to 10
    significant digits, NaN as `--`."""
    return _format_rows(labels, values, ",%.10g", "--")


def dump_matrix(A: np.ndarray, labels=None) -> str:
    """CSV rendering: header of location indices, then one row per line
    through the one CSV row writer (NaN as `--`). Rows are labelled r1, r2,
    ... unless labels names every row."""
    rows, cols = A.shape
    if labels is None:
        labels = [f"r{j + 1}" for j in range(rows)]
    elif len(labels) != rows:
        raise ValueError(f"got {len(labels)} labels for {rows} rows")
    header = "row," + ",".join(str(i) for i in range(1, cols + 1)) + "\n"
    return header + _csv_rows(labels, A)
