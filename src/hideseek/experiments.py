"""Parameter sweeps, bound verification, and Monte Carlo playouts.

Simulation randomness uses one Philox counter block (four 64-bit words,
each made a uniform) per trial, keyed by the seed: trial k always sees the
same four uniforms no matter how trials are split into blocks, or which
thread draws them (Salmon et al., "Parallel random numbers: as easy as 1,
2, 3", SC'11). Playouts only count how often each payoff cell occurs, one
np.add.at per block into the cell histogram, so results are invariant to
the block size and bit-reproducible for a fixed seed. Every draw looks its
uniform up in a guide table of 2^K equal buckets (Chen and Asau 1974;
Devroye, Non-Uniform Random Variate Generation, 1986, III.2.4), which gives
the label a binary search of the mix's cdf gives, bit for bit (_guide). No
trial is sorted or grouped by subgame.
"""

from __future__ import annotations

import math
import threading
from dataclasses import astuple, dataclass

import numpy as np
from numpy.random import Generator, Philox, SeedSequence

from .instance import Instance
from .matrixgame import _solve, check_cost, simplex_weights, solve_games
from .payoff import (
    SwitchConfig,
    _csv_rows,
    _game_stack,
    _prefix_gap,
    _prefix_min,
    _stacks,
    _subgames,
    _switch_tail,
    base_matrix,
    feedback_matrix,
    switch_matrix,
)
from .routes import RouteSet, check_reveal_time, enumerate_routes, prefix_block
from .voi import cstar, cstar_global, expected_voi, theorem1_bound, voi_matrix, worst_case_voi

MODELS = ("base", "restricted", "feedback")
# _switch_games builds and solves the base and switch games of a sweep in
# chunks whose stack of matrices, which solve_games' simplex holds, takes at
# most this many bytes: 121 games at n = 6, where the default grid has 126,
# and one at a time at n = 8, where each 40320 x 8 matrix takes 2.6 MB.
_CHUNK_BYTES = 1 << 22


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


def sweep(
    inst: Instance,
    t_list=None,
    c_grid=None,
    convention: str = "total",
    feedback_mode: str = "mixed_subgame",
) -> list[SweepRow]:
    """Solve the three games over a (reveal time, switching cost) grid.

    Rows come out in lexicographic (t, c) order, one per grid cost, so a
    repeated cost gives repeated rows. The default grid is 25 costs from 0
    to 1.2 times the route-variant global threshold at the first reveal
    time, past which switching never pays. The expected VOI column is
    evaluated at each cell's own switch-game equilibrium mix; the bound
    column uses the route-variant threshold at that reveal time.

    The base game and every switch game share the shape n! x n, so
    _switch_games solves them together in chunks of the sweep's (t, c)
    cells, the base game first. A reveal time's tail costs
    (payoff._switch_tail) share one switch game: the base game under
    total, built and solved once under remaining. Each run of a reveal
    time's games in a chunk, with its tail in the chunk of its last game,
    gets its feedback values and deltas from _run_cells before the chunk
    is dropped. A sweep makes no LP call, and as solve_games gives each
    game the same bits in any Hider-major stack, the chunk bounds move no
    output byte.
    """
    rs = enumerate_routes(inst.n)
    if t_list is None:
        t_list = range(1, rs.n)
    t_list = sorted(set(int(t) for t in t_list))
    if not t_list:
        return []
    A = base_matrix(inst, rs)
    cg_route = {t: cstar_global(cstar(A, rs, t, "route")) for t in t_list}
    if c_grid is None:
        c_grid = np.linspace(0.0, 1.2 * cg_route[t_list[0]], 25)
    c_grid = sorted(float(c) for c in c_grid)
    if not c_grid:
        raise ValueError("empty cost grid")
    cg_inf = {t: cstar_global(cstar(A, rs, t, "infoset")) for t in t_list}

    costs = sorted(set(c_grid))
    games = [None]  # the base game
    tails, last = {}, {}
    for t in t_list:
        tail = _switch_tail(A, rs, t, costs)
        games += [SwitchConfig(t, c, convention, feedback_mode) for c, same in zip(costs, tail) if not same]
        tails[t] = [c for c, same in zip(costs, tail) if same]
        if tails[t] and convention == "remaining":
            games.append(SwitchConfig(t, tails[t][0], convention, feedback_mode))  # the tail's one game
        last[t] = len(games) - 1  # t's tail is valued with the chunk of this game

    cells = {}
    start = 0  # the index in games of the chunk's first game
    for cfgs, As, (v, y, z) in _switch_games(A, rs, games):
        if start == 0:  # the base game, first of the first chunk
            v_base, z_base = v[0], z[0]
        for t in t_list:
            run = [g for g, cfg in enumerate(cfgs) if cfg and cfg.t_reveal == t]  # the chunk's run of t's games
            tail = None
            if tails[t] and start <= last[t] < start + len(cfgs):
                # the tail's game: the run's last under remaining, else the base game
                k = run.pop() if convention == "remaining" else None
                tail = (tails[t], *((A, v_base, z_base) if k is None else (As[k], v[k], z[k])))
            if run or tail:
                g = slice(run[0], run[-1] + 1) if run else slice(0)
                cells.update(_run_cells(A, rs, t, feedback_mode, cfgs[g], As[g], v[g], z[g], tail))
            del tail
        start += len(cfgs)
        del As, y  # before the next chunk is built

    rows = []
    for t in t_list:
        for c in c_grid:
            v_switch, v_fb, ev, delta = cells[t, c]
            rows.append(SweepRow(
                t_reveal=t, c=c, v_base=v_base, v_switch=v_switch, v_fb=v_fb, expected_voi=ev,
                theorem1_bound=theorem1_bound(cg_route[t], c), delta=delta,
                cstar_global_route=cg_route[t], cstar_global_infoset=cg_inf[t],
            ))
    return rows


def _run_cells(A, rs, t, feedback_mode, cfgs, As, v, z, tail):
    """The sweep cells (t, c): (v_switch, v_fb, expected VOI, delta) of a
    chunk's run of reveal time t's switch games, the stack As of the configs
    cfgs with their values v and Hider mixes z, and of t's tail if it is
    valued here: None, or its costs, their one game, its value and its mix.

    The run's feedback matrices are built by feedback_matrix in one call
    (under pure_min, as the prefix minima of As, so none is built twice).
    Every tail subgame has a pure saddle, the stay cell of the route with
    the least entry, so the tail's feedback matrix is the tail game's
    prefix minimum in either mode, and at t = n-1 it is the tail game
    itself, whose value is known. The others are solved in one solve_games
    call, the only part of that game printed.
    """
    block = prefix_block(rs, t)
    own = tail is not None and block > 1  # the tail has a feedback game of its own to solve
    Fs = _game_stack(len(cfgs) + own, rs.m // block, rs.n)
    if cfgs:
        Fs[: len(cfgs)] = _prefix_min(As, block) if feedback_mode == "pure_min" else feedback_matrix(A, rs, cfgs)
    played = list(zip([[cfg.c] for cfg in cfgs], As, v, z, Fs))
    if tail is not None:
        costs, S, v_tail, z_tail = tail
        if own:
            Fs[-1] = _prefix_min(S, block)
        played.append((costs, S, v_tail, z_tail, Fs[-1] if own else S))
    v_fbs = list(solve_games(Fs)[0]) if len(Fs) else []
    if tail is not None and not own:
        v_fbs.append(v_tail)
    cells = {}
    for (costs, S, v_switch, mix, F), v_fb in zip(played, v_fbs):
        bar = worst_case_voi(voi_matrix(S, rs, t))
        cells.update(((t, c), (v_switch, v_fb, expected_voi(bar, mix), _prefix_gap(S, F).max())) for c in costs)
    return cells


def _switch_games(A, rs, cfgs):
    """The games of the SwitchConfigs cfgs in order, None standing for the
    base game A, in chunks whose matrices (each the size of A) take at most
    _CHUNK_BYTES together: per chunk its configs, the Hider-major stack of
    their matrices (payoff._game_stack), and the stack's solve_games
    solution. A chunk's stack is dropped before the next one is built, once
    the caller drops it too. The callers leave out the games they already
    hold: a tail cost's switch game, which is one game per reveal time and,
    under total, the base game."""
    size = max(1, _CHUNK_BYTES // A.nbytes)
    for j in range(0, len(cfgs), size):
        chunk = cfgs[j : j + size]
        As = _game_stack(len(chunk), *A.shape)
        for g, cfg in enumerate(chunk):
            As[g] = A if cfg is None else switch_matrix(A, rs, cfg)
        solution = solve_games(As)
        yield chunk, As, solution
        del As, solution


SWEEP_HEADER = (
    "t_reveal,c,v_base,v_switch,v_fb,expected_voi,"
    "theorem1_bound,delta,cstar_route,cstar_infoset"
)


def sweep_to_csv(rows: list[SweepRow]) -> str:
    """The sweep as CSV: one line per (t, c) cell, labelled by its reveal time."""
    cells = [astuple(r)[1:] for r in rows]
    return SWEEP_HEADER + "\n" + _csv_rows([r.t_reveal for r in rows], cells)


def verify_bounds(
    rows: list[SweepRow],
    inst: Instance | None = None,
    convention: str = "total",
) -> BoundReport:
    """Check every structural bound a sweep must satisfy.

    Per row: the switch game dominates the base game (total convention
    only), the feedback value sandwiches the switch value within delta, and
    the expected VOI respects its cost bound. Across rows: expected VOI is
    non-increasing in c at fixed t. With the instance available, the
    fixed-mix expected VOI is additionally checked to be non-increasing in
    reveal time (the mix is re-equilibrated per cost but frozen across t,
    since equilibria move with t). The tolerance is 1e-9 times the rows'
    largest |value| but c, which can be huge, and also bounds the spread of
    v_base, which one instance shares.
    """
    if not rows:
        return BoundReport(checks=())
    tol = 1e-9 * max(abs(v) for r in rows for v in astuple(r)[2:])
    lo, hi = min(r.v_base for r in rows), max(r.v_base for r in rows)
    if hi - lo > tol:
        raise ValueError(f"rows come from mixed instances: v_base from {lo!r} to {hi!r}")

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
    # each cost's switch-game Hider mix at the first reveal time, where the
    # tail costs, the last of c_list, share one game: the base game under total
    tail = _switch_tail(A, rs, t_list[0], c_list)
    head = int((~tail).sum())
    games = [SwitchConfig(t_list[0], c, convention) for c in c_list[:head]]
    if head < len(c_list):
        games.append(None if convention == "total" else SwitchConfig(t_list[0], c_list[head], convention))
    z = []
    for _, As, solution in _switch_games(A, rs, games):
        z.extend(solution[2])
        del As, solution  # before the next chunk is built
    z_first = z[:head] + z[head:] * (len(c_list) - head)
    ev = np.empty((len(c_list), len(t_list)))  # each (c, t) cell's fixed-mix expected VOI
    for col, t in enumerate(t_list):
        # t's tail costs share one switch game, whose worst-case VOI is built once
        head_t = int((~_switch_tail(A, rs, t, c_list)).sum())
        for row, c in enumerate(c_list[: head_t + 1]):
            bar = worst_case_voi(voi_matrix(switch_matrix(A, rs, SwitchConfig(t, c, convention)), rs, t))
            rows = range(row, len(c_list)) if row == head_t else [row]
            ev[rows, col] = [expected_voi(bar, z_first[r]) for r in rows]
    for c, cells in zip(c_list, ev.tolist()):
        for t, prev, cur in zip(t_list[1:], cells, cells[1:]):
            if cur > prev + tol:
                detail = f"c={c:g}: fixed-mix expected VOI rises {prev:.6f} -> {cur:.6f} at t={t}"
                return BoundCheck("fixed_mix_voi_monotone_in_t", False, detail)
    return BoundCheck("fixed_mix_voi_monotone_in_t", True, "non-increasing")


# trials per block: a 2 MB buffer of uniforms, two of which _cell_counts
# holds, the block it counts and the next, which a helper thread draws
_BLOCK = 1 << 16
# simulate's subgame guide tables, two per possible reveal-stage subgame,
# take at most this many bytes: 2^K buckets each, for the largest K that
# fits. That is 2^8 buckets for the 336 subgames of n = 8 at t = 2, and 2 for
# the 40,320 at t = 6, where a playout that reaches every subgame holds more
# in their mixes than in these 0.6 MB of tables.
_TABLE_BYTES = 1 << 20


def _uniforms(key: np.ndarray, start: int, out: np.ndarray) -> None:
    """Fill out, of shape (count, 4), with the uniforms of the trials start
    to start + count - 1: four per trial, from the trial's own Philox
    counter block under key. They depend on nothing else, so any thread
    may draw them at any time. numpy fills out without the interpreter
    lock."""
    Generator(Philox(counter=[start, 0, 0, 0], key=key)).random(out=out)


class _Helper(threading.Thread):
    """A thread that keeps what its target raised in error, for the thread
    that joins it to raise: no exception ends it unseen."""

    error = None

    def run(self):
        try:
            super().run()
        except BaseException as error:  # raised again by the joining thread
            self.error = error


def _support(w: np.ndarray, labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The cumulative weights of the mix w at its support, and the labels of
    its support rows followed by the label of its last row.

    A row of zero weight repeats the cumulative weight before it, so it is
    never the first row whose cumulative weight exceeds a uniform: a draw
    from the support, labels[searchsorted(cdf, u, "right")], is the draw
    from the full cdf, with u at or past the total weight drawing the last
    row. So simulate's pair tables take a row per support row, and a search
    for a trial a guide table (_guide) leaves open runs over a few entries,
    where the full cdf can have n! rows (the restricted Seeker mix at n = 8).
    """
    rows = np.flatnonzero(w > 0)
    return np.cumsum(w)[rows], labels[np.append(rows, len(w) - 1)]


def _guide(supports, scale: int, dtype) -> np.ndarray:
    """The guide tables of the supports (cdf, labels), one row of scale =
    2^K entries each, in the type dtype.

    Bucket b of a row holds the label that every u in [b/2^K, (b+1)/2^K)
    draws, where all of them draw one, and the sentinel, the largest value
    of dtype, where a cdf entry lies strictly inside the bucket. The count
    of cdf entries at or below u can only change inside a bucket at such an
    entry, so elsewhere it is the count at the bucket's left edge: the
    entries whose cdf * 2^K, which is exact, rounds up to at most b. Those
    counts are integers, so one search of them keyed by their row gives
    every bucket of every row exactly.
    """
    count = len(supports)
    sizes = np.array([len(cdf) for cdf, _ in supports])
    row = np.repeat(np.arange(count), sizes)
    edge = np.concatenate([cdf for cdf, _ in supports]) * scale
    steps = row * (scale + 1) + np.minimum(np.ceil(edge), scale).astype(np.intp)
    buckets = np.arange(count)[:, None] * (scale + 1) + np.arange(scale)
    # a row's labels follow the earlier rows' sizes + 1 labels
    index = np.searchsorted(steps, buckets, side="right") + np.arange(count)[:, None]
    tables = np.concatenate([labels for _, labels in supports]).astype(dtype)[index]
    inside = (edge < scale) & (edge != np.floor(edge))
    tables[row[inside], edge[inside].astype(np.intp)] = np.iinfo(dtype).max
    return tables


def _buckets(limit: int) -> int:
    """The bucket count 2^K of a guide table: the largest power of two at
    most limit, and at least 1."""
    return 1 << (max(1, limit).bit_length() - 1)


def _draw_at(tables: np.ndarray, supports, base, u: np.ndarray) -> np.ndarray:
    """The label each uniform u[k] draws from the support supports[slot[k]],
    whose guide table is tables[slot[k]]: labels[searchsorted(cdf, u[k],
    "right")], as _support defines it. Each uniform's table row is given by
    its offset base[k] = slot[k] * 2^K in the flattened tables (base may
    also be one int for every k), so that draws from the same slots share
    it. u holds uniforms in [0, 1).

    u[k] falls in bucket floor(u[k] * 2^K), exactly for u in [0, 1), and a
    lookup gives its label. A trial whose bucket holds the sentinel is
    drawn by a search of its own support's cdf; the few such trials are
    sorted by support, so each support is searched once.
    """
    scale = tables.shape[1]
    bucket = (u * scale).astype(np.intp)
    bucket += base  # a 1-D take is faster than a 2-D gather
    drawn = tables.ravel().take(bucket)
    miss = np.flatnonzero(drawn == np.iinfo(drawn.dtype).max)
    if len(miss):
        slots = np.broadcast_to(base, u.shape)[miss] // scale
        order = np.argsort(slots)
        miss, slots = miss[order], slots[order]
        x = u[miss]
        bounds = [0, *(np.flatnonzero(slots[1:] != slots[:-1]) + 1).tolist(), len(miss)]
        for a, b in zip(bounds, bounds[1:]):
            cdf, labels = supports[slots[a]]
            drawn[miss[a:b]] = labels[np.searchsorted(cdf, x[a:b], side="right")]
    return drawn


def _subgame_supports(A, rs, t, c, keys):
    """The supports of the Seeker's and the Hider's mixes in the reveal-stage
    subgames keys = h*n + i, a (row, column) pair for each key, labelled by
    the payoff codes they add: route k as k*n, and target j as j, plus m*n
    if j is not i (the Hider switched).

    The subgames come from payoff._subgames, as feedback_matrix's do: one
    shared stack on the blocks of the distinct prefixes h, and each
    subgame's first pure saddle, at which it is played if it has one.
    Each key's subgame is on its own prefix's block, not on its Held-Karp
    state's first prefix: the blocks of one state differ by a constant
    only up to round-off, and the vertex HiGHS returns can follow those
    bits. The other subgames are solved as solve_zero_sum solves a game
    (matrixgame._solve with unique), in feedback_matrix's stacks
    (payoff._stacks): one lockstep simplex per stack, then HiGHS, one
    subgame per call, for those whose equilibrium the simplex's solution
    does not prove unique.
    """
    m, n = A.shape
    block = prefix_block(rs, t)
    h, i = np.divmod(np.asarray(keys), n)
    targets = np.nonzero(rs.position_matrix[h * block] > t)[1].reshape(len(h), n - t)
    prefixes, own = np.unique(h, return_inverse=True)
    place = np.argmax(targets == i[:, None], axis=1)  # each start among its prefix's unvisited locations
    games, cell = _subgames(A, rs, t, prefixes, own, place, np.full(len(h), float(c)))
    y = np.zeros((len(h), block))
    z = np.zeros((len(h), n - t))
    hit = np.flatnonzero(cell >= 0)
    r, j = np.divmod(cell[hit], n - t)
    y[hit, r], z[hit, j] = 1.0, 1.0
    for lp in _stacks(np.flatnonzero(cell < 0), block):
        y[lp], z[lp] = _solve(games.take(lp), unique=True)[1:3]
    del games
    codes = (h[:, None] * block + np.arange(block)) * n, targets + m * n * (targets != i[:, None])
    return [(_support(y[g], codes[0][g]), _support(z[g], codes[1][g])) for g in range(len(h))]


def simulate(
    A: np.ndarray,
    rs: RouteSet,
    model: str,
    y,
    z,
    t: int,
    c: float,
    trials: int,
    seed: int,
) -> SimulationResult:
    """Monte Carlo playout of the two-stage game on the routes rs.

    A is the route-indexed table that pays the trials, which the playout
    only reads: the played game's matrix (payoff._model_matrix, total
    convention) for the base and restricted models, and the base matrix
    for the feedback model, whose trials still running at the reveal play
    its reveal-stage subgames, built by feedback_matrix's own subgame
    pipeline (_subgame_supports, payoff._subgames). At t = n it is the base
    matrix for every model. y is the Seeker's mix over the played game's
    rows: the routes, or for the feedback model with t < n the prefixes of
    feedback_matrix, prefix h paid at its first route h*B. Each trial
    draws a row from y and an initial location from z. Every payoff is a
    cell of A, less c if the Hider switched, so blocks of _BLOCK trials
    only count cells, by np.add.at into one float histogram (exact below
    2^53 trials): memory stays bounded, and identical seeds give
    bit-identical results for any block size.

    A trial's four uniforms come from its own Philox counter block
    (_uniforms). While one block is counted, one helper thread draws the
    next block's into the second of two buffers that the playout allocates
    once; the helper is joined before its buffer is read, and before
    simulate returns or raises, and an exception it raised is raised here.
    A block's uniforms depend on the seed and its first trial alone, so
    neither the block size nor the threads' timing moves a bit.

    Every draw is a guide-table lookup (_draw_at), exact for every uniform,
    and no table has more buckets than a block has trials. The first two
    draws give a trial's positions in the supports of y and z, whose pair
    indexes tables of whether the trial ended and of its base-matrix code,
    and in the feedback model of its subgame's slot. A subgame is built
    and solved when a trial first reaches it, all those a block of trials
    first reaches in one shared stack, solved in feedback_matrix's stacks
    (payoff._stacks), and its row and column
    tables are filled into its own rows of the two subgame tables, whose
    bucket count fits two tables for every possible subgame into
    _TABLE_BYTES. Its row labels are route codes k*n and its column labels
    target codes with the m*n switch offset, so a late trial's code is the
    sum of its two draws. A late pair's base-matrix code is 0 and an ended
    pair's slot is a last, all-zero one, so every trial of a block takes
    both draws and adds them to its code, with no subset of the block
    taken.
    """
    values, counts, ended = _cell_counts(A, rs, model, y, z, t, c, trials, seed)
    mean = float(counts @ values / trials)
    # cells never drawn add nothing, even where a huge c makes their square overflow
    spread = values - mean
    spread[counts == 0] = 0.0
    var = float(counts @ np.square(spread, out=spread) / (trials - 1)) if trials > 1 else 0.0
    return SimulationResult(
        trials=trials,
        seed=seed,
        mean_payoff=mean,
        payoff_stderr=math.sqrt(var) / math.sqrt(trials),
        empirical_end_by_t=ended / trials,
        model=model,
    )


def _cell_counts(A, rs, model, y, z, t, c, trials, seed):
    """simulate's playout, checked and run: the payoff of every cell that a
    trial can be paid, the float histogram of the cells the trials were
    paid, and how many trials ended by the reveal.

    The calling thread draws the first block's uniforms, and then counts
    block k from buffer k % 2 while a helper thread (_Helper) draws block
    k + 1 into the other buffer: at most one helper runs at a time, each
    joined before its block is counted, and the last one before the
    playout returns or raises. numpy draws without the interpreter lock,
    so the draw runs beside the count. Every uniform is the one a
    sequential draw of its block gives, so the counts are too.
    """
    if model not in MODELS:
        raise ValueError(f"model must be one of {MODELS}")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    check_reveal_time(t, rs.n)
    check_cost(c)
    if A.shape != (rs.m, rs.n):
        raise ValueError(f"payoff matrix has shape {A.shape}, expected {(rs.m, rs.n)}")
    m, n = A.shape
    feedback = model == "feedback" and t < n
    block = prefix_block(rs, t) if feedback else 1  # routes per row of y
    y = simplex_weights(y, m // block, "y")
    z = simplex_weights(z, n, "z")
    # each cell's payoff by its code, route-major; feedback codes past m*n
    # are the switched cells, paid minus c
    values = np.empty((1 + feedback, m, n))
    values[0] = A
    if feedback:
        np.subtract(A, c, out=values[1])
    values = values.ravel()

    code_type = np.min_scalar_type(2 * m * n)  # a late code, with the sentinel past them all
    tops, pair_rows = [], []
    for w, labels in ((y, np.arange(len(y))), (z, np.arange(n))):
        cdf, rows = _support(w, labels)
        support = (cdf, np.arange(len(rows)))  # drawn as positions in the support
        table = _guide([support], _buckets(min(trials, _BLOCK)), np.min_scalar_type(len(rows)))
        tops.append((table, [support]))
        pair_rows.append(rows)
    h, i = pair_rows[0][:, None], pair_rows[1]
    ended = rs.position_matrix[h * block, i] <= t
    pair_code = (h * block * n + i).astype(code_type)
    if feedback:
        # a late pair draws its code from its subgame's slot among the
        # distinct late keys h*n + i, and an ended pair its code plus two
        # draws from a last, all-zero slot, so every trial takes one path
        keys, late_slot = np.unique((h * n + i)[~ended], return_inverse=True)
        pair_slot = np.full(ended.shape, len(keys))
        pair_slot[~ended], pair_code[~ended] = late_slot, 0
        size = _TABLE_BYTES // (2 * (m // block) * (n - t) * code_type.itemsize)
        scale = _buckets(min(size, trials, _BLOCK))
        row_tables = np.zeros((len(keys) + 1, scale), code_type)
        col_tables = np.zeros_like(row_tables)
        row_supports, col_supports = {}, {}
        built = np.zeros(len(keys) + 1, dtype=bool)
        built[-1] = True
        pair_slot = pair_slot.ravel()
    pair_code, pair_ended = pair_code.ravel(), ended.ravel()

    counts = np.zeros(len(values))  # a float histogram, so that counts @ values makes no copy
    ended_total = 0
    key = SeedSequence(seed).generate_state(2, np.uint64)
    buffers = np.empty((2, min(_BLOCK, trials), 4))  # block k's uniforms in buffers[k % 2]
    draws = [(start, buffers[k % 2, : trials - start]) for k, start in enumerate(range(0, trials, _BLOCK))]
    _uniforms(key, *draws[0])
    helper = None
    try:
        for k, (_, u) in enumerate(draws):
            if k:
                helper.join()
                if helper.error is not None:
                    raise helper.error
            if k + 1 < len(draws):
                ahead = _Helper(target=_uniforms, args=(key, *draws[k + 1]))
                ahead.start()
                helper = ahead  # only a started thread is joined
            pair = _draw_at(*tops[0], 0, u[:, 0]).astype(np.intp)
            pair *= len(i)
            pair += _draw_at(*tops[1], 0, u[:, 1])
            ended_total += int(np.count_nonzero(pair_ended[pair]))
            code = pair_code[pair]
            if feedback:
                slot = pair_slot[pair]
                reached = np.zeros_like(built)
                reached[slot] = True
                new = np.flatnonzero(reached & ~built).tolist()
                # the fresh subgames are built together, and hold all their
                # supports until their tables are filled: only a support whose
                # table holds the sentinel is kept, as only its trials search it
                if new:
                    plays = zip(*_subgame_supports(A, rs, t, c, keys[new]))
                    for tables, supports, found in zip((row_tables, col_tables), (row_supports, col_supports), plays):
                        tables[new] = _guide(found, scale, code_type)
                        searched = (tables[new] == np.iinfo(code_type).max).any(axis=1)
                        supports.update((g, support) for g, support, hit in zip(new, found, searched) if hit)
                built |= reached
                slot *= scale  # each trial's table row as its offset, which both late draws share
                code += _draw_at(row_tables, row_supports, slot, u[:, 2])
                code += _draw_at(col_tables, col_supports, slot, u[:, 3])
            np.add.at(counts, code, 1.0)  # a float 1, for which add.at has a fast loop
    finally:
        if helper is not None:
            helper.join()
    return values, counts, ended_total
