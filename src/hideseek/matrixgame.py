"""Zero-sum matrix game solving, certification, and saddle-point detection.

Throughout, the row player minimizes and the column player maximizes, so a
pure saddle point is a cell that is the maximum of its row and the minimum
of its column. Every solve runs solve_games' simplex first: a primal
simplex on every game's Seeker LP (k+1 constraints) that pivots a whole
stack of same-shape games in lockstep, with no LP call. Each game keeps
its basis inverse, from a closed form at the start basis, and every pivot
updates it in place by a rank-one product-form update (Dantzig and
Orchard-Hays 1954), so no LAPACK inverse runs per pivot. HiGHS's column
LP is its fallback. Both certify through one helper, _certify, by
best-response gaps against the full matrix rather than by trusting the
solver, and a game the simplex does not certify goes to HiGHS.

A stack is dense, or shared (_SharedStack): a few blocks B, and for each
game a block and a shift constant down each column, S_g = B - 1 shift^T,
as the reveal-stage subgames of one Held-Karp state share one block of
the base matrix. _scales, _simplex and _certify take one form, in which a
dense stack is one block per game and no shift: every entry they read is
the block's less the shift, the game's own bit for bit, each game is
priced and certified by matrix-vector products on its own block, and
only a game that goes to HiGHS is materialised. _saddle_possible screens
a shared stack for pure saddles by _first_saddle's exact bound test.

The CLI prints the mixes solve_zero_sum returns. Where a game's optimal
mixes form a set, which one a solver returns depends on its pivots, and
the printed mix is HiGHS's vertex. So solve_zero_sum keeps the simplex's
solution only where _unique proves that the game has no other
equilibrium, which any certified solver returns, and sends every other
game to HiGHS.

HiGHS runs its dual simplex without presolve: every row of these games is
dense, so on the 40,320 x 8 games at n = 8 presolve removes nothing, and on
the base game it took about as long as the simplex.

HiGHS is reached through scipy's bundled extension module,
scipy.optimize._highspy._core, loaded on its own: importing scipy.optimize
to call linprog took about three quarters of the CLI's start-up, for one
LP call per game. _col_lp hands HiGHS the LP and options linprog(method=
"highs") handed it, so HiGHS returns the same solution to the bit.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# A solution certifies when both of its best-response gaps are within
# GAP_TOL times its game's max|A|; the gaps it reports stay absolute.
GAP_TOL = 1e-6
# _first_saddle's ties: within SADDLE_TOL relative.
SADDLE_TOL = 1e-9
# _unique's supports hold the weights above UNIQUE_TOL, and a pure strategy
# off its support must lose by UNIQUE_TOL times max|A|. At 1e-6 the seed-1
# n = 8 restricted game at t = 2, c = 1 fails, though its equilibrium is
# unique: two routes off the Seeker's support pay only 2.3e-6 above v.
UNIQUE_TOL = 1e-9
# solve_games' simplex: reduced costs and ties within _RC_TOL (times
# max|A|) count as zero, a pivot below _PIVOT_TOL is refused, a game pivots
# by Bland's rule while its run of zero-step pivots is _STALL_PIVOTS or
# longer (at 16, a switch game of a default sweep took 643 pivots, at 32 it
# takes 39), and one still open after _MAX_PIVOTS is solved by HiGHS instead.
_RC_TOL = 1e-12
_PIVOT_TOL = 1e-9
_STALL_PIVOTS = 32
_MAX_PIVOTS = 500
_PRICE_BYTES = 1 << 20  # the most of its stack _simplex copies to price (see there)
# Options for every HiGHS call: linprog's for its dual simplex, with
# presolve off (see the module docstring).
_HIGHS_OPTIONS = {
    "presolve": "off",
    "simplex_strategy": 1,  # dual
    "output_flag": False,
    "log_to_console": False,
    "highs_debug_level": 0,
}
_HIGHS_MODULE = "scipy.optimize._highspy._core"


def _load_highs():
    """scipy's HiGHS extension module, loaded under its own dotted name
    without importing scipy or scipy.optimize, and registered in
    sys.modules, where a later import of scipy.optimize finds it: both
    then share one module object and one set of its pybind11 types.
    Reused if scipy.optimize loaded it first. Raises ImportError if the
    installed scipy has no such module."""
    if _HIGHS_MODULE in sys.modules:
        return sys.modules[_HIGHS_MODULE]
    scipy = importlib.util.find_spec("scipy")
    paths = [
        Path(folder, "optimize", "_highspy", f"_core{suffix}")
        for folder in (scipy.submodule_search_locations if scipy else [])
        for suffix in importlib.machinery.EXTENSION_SUFFIXES
    ]
    path = next((path for path in paths if path.is_file()), None)
    if path is None:
        raise ImportError(
            "hideseek needs scipy's HiGHS extension module, "
            "scipy/optimize/_highspy/_core<extension suffix> (scipy >= 1.17.1)"
        )
    spec = importlib.util.spec_from_file_location(_HIGHS_MODULE, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[_HIGHS_MODULE] = module
    spec.loader.exec_module(module)
    return module


_highspy = _load_highs()


def __getattr__(name):
    # scipy's linprog, imported only when asked for: hsbench's tracer
    # rebinds matrixgame.linprog, which no solve calls any more
    if name == "linprog":
        from scipy.optimize import linprog

        return linprog
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class SolverError(RuntimeError):
    """The LP failed or produced an uncertifiable solution."""


def check_cost(c) -> None:
    """Reject a switching cost, or an array of them, that is negative, NaN
    or infinite, naming the first bad cost."""
    c = np.asarray(c)
    bad = ~(np.isfinite(c) & (c >= 0))
    if bad.any():
        raise ValueError(f"switching cost must be finite and >= 0, got {c.flat[bad.argmax()]}")


def simplex_weights(w, size: int, name: str) -> np.ndarray:
    """Validate a vector against the size-simplex; round-off below 0 is clipped."""
    w = np.asarray(w, dtype=float)
    if w.shape != (size,):
        raise ValueError(f"{name} has shape {w.shape}, expected ({size},)")
    with np.errstate(over="ignore"):  # an overflowing sum is off the simplex too
        total = w.sum()
    if not np.isfinite(w).all() or (w < -1e-9).any() or abs(total - 1.0) > 1e-9:
        raise ValueError(f"{name} is not on the probability simplex")
    return np.maximum(w, 0.0)


@dataclass(frozen=True)
class GameSolution:
    """One game's value, Seeker (row) and Hider (column) mixes, and the
    absolute best-response gaps they certified with."""

    value: float
    row_strategy: np.ndarray
    col_strategy: np.ndarray
    row_gap: float
    col_gap: float


class _SharedStack:
    """A stack of games that share a few blocks: game g is the block
    blocks[block[g]] less cost[g] off every column but keep[g], that is
    S_g = B - 1 shift_g^T with shift_g = cost[g] (1 - e_keep[g]) and
    cost[g] >= 0 (check_cost). All the (cost, start) reveal-stage
    subgames of one Held-Karp state are one block (payoff._subgames). A
    dense stack is the same form with one game per block and no shift
    (_shared).

    Every entry of a game is read as B - shift, which is the game's own
    entry bit for bit, and so are its row maxima (row_maxima) and column
    extremes, since rounding x - c is monotone in x. Indexing materialises
    games, Hider-major as the blocks are: S[g] is game g, S[array] a dense
    stack of games, and np.asarray(S) the whole stack.

    The blocks are kept in falling order of their game counts, copied into
    it if they come in another, so that the blocks with equal counts run
    together (groups). Taken in block order (order), the games of such a
    run form a (blocks, count) grid, and one matmul of the run's blocks,
    broadcast over the count, takes a product of each game with its own
    block: one matrix-vector product per game, a block's games one after
    the other while the block is in cache.
    """

    def __init__(self, blocks, block, cost, keep):
        check_cost(cost)
        block = np.asarray(block, dtype=np.intp)
        counts = np.bincount(block, minlength=len(blocks))
        if (np.diff(counts) > 0).any():
            used = np.argsort(-counts, kind="stable")[: np.count_nonzero(counts)]
            where = np.empty(len(blocks), dtype=np.intp)
            where[used] = np.arange(len(used))
            blocks, block, counts = blocks[used], where[block], counts[used]
        self.blocks, self.block, self.cost, self.keep = blocks, block, cost, keep
        self.shape = (len(block), *blocks.shape[1:])
        self.shift = np.where(np.arange(blocks.shape[2]) == keep[:, None], 0.0, cost[:, None])
        self.order = np.argsort(block, kind="stable")
        # (first block, end block, games per block, first game in order)
        ends = [*(np.flatnonzero(np.diff(counts)) + 1).tolist(), len(counts)]
        starts = np.cumsum(counts) - counts
        self.groups = [(a, b, int(counts[a]), int(starts[a])) for a, b in zip([0, *ends], ends) if a < b and counts[a]]

    def __len__(self):
        return len(self.block)

    def __getitem__(self, g):
        if np.ndim(g) == 0:
            return self.blocks[self.block[g]] - self.shift[g]
        S = self.blocks[self.block[g]]  # a copy, shifted in place
        S -= self.shift[g][:, None, :]
        return S

    def __array__(self, dtype=None, copy=None):
        S = self[np.arange(len(self))]
        return S if dtype is None else S.astype(dtype, copy=False)

    def take(self, g):
        """The shared stack of the games g."""
        return _SharedStack(self.blocks, self.block[g], self.cost[g], self.keep[g])

    def row_maxima(self, games):
        """Yield the row maxima of the games, in order, for at most a
        quarter of _PRICE_BYTES of them at a time, as a caller holds a few
        such arrays: (their slice of games, maxima of shape (len, m)). A
        row's maximum is the larger of its entry at the kept column and
        its block's row maximum less the cost: where that maximum lies off
        the kept column, this is the row's largest entry off it less the
        cost, and elsewhere the kept entry is the maximum, which no entry
        less a cost of 0 or more exceeds."""
        B = self.blocks
        top = B.max(axis=2)
        step = max(1, _PRICE_BYTES // (32 * B.shape[1]))
        for a in range(0, len(games), step):
            g = games[a : a + step]
            rowmax = top[self.block[g]]
            rowmax -= self.cost[g, None]
            yield slice(a, a + len(g)), np.maximum(rowmax, B[self.block[g], :, self.keep[g]], out=rowmax)


def _shared(S) -> _SharedStack:
    """The stack S in the shared form: as it is, or a dense (G, m, k) stack
    as G blocks of one unshifted game each."""
    if isinstance(S, _SharedStack):
        return S
    G = len(S)
    return _SharedStack(S, np.arange(G), np.zeros(G), np.zeros(G, dtype=np.intp))


def _scales(S) -> np.ndarray:
    """Each game's max|A| in the stack S, shape (G, m, k), dense or shared:
    from its block's column maxima and minima less its shift, which are its
    own. Raises ValueError unless every game has a row, a column and finite
    entries only."""
    if len(S.shape) != 3 or 0 in S.shape[1:]:
        raise ValueError(f"degenerate matrix shape {S.shape[1:]}")
    S = _shared(S)
    hi = (S.blocks.max(axis=1)[S.block] - S.shift).max(axis=1)  # NaN and inf show in these
    lo = (S.blocks.min(axis=1)[S.block] - S.shift).min(axis=1)
    if not (np.isfinite(hi).all() and np.isfinite(lo).all()):
        raise ValueError("matrix has non-finite entries")
    return np.maximum(hi, -lo)


def _lp_columns(A: np.ndarray):
    """The column-wise matrix [-A 1; 1^T 0] of _col_lp's LP with its exact
    zeros dropped, as HiGHS takes it: each LP column's first entry in
    index and value (start, int32), the row of each entry (index, int32)
    and the entries (value). It is built one LP column at a time from its
    nonzeros, A's column j less its zeros and then a 1 for LP column j, m
    ones for v, so no dense copy of the LP is made."""
    m, n = A.shape
    start = np.zeros(n + 2, dtype=np.int32)
    np.cumsum(np.count_nonzero(A, axis=0) + 1, out=start[1 : n + 1])
    start[n + 1] = start[n] + m
    index, value = np.empty(start[-1], dtype=np.int32), np.empty(start[-1])
    for j in range(n):
        rows = np.flatnonzero(A[:, j])
        a, b = start[j], start[j + 1] - 1
        index[a:b], value[a:b] = rows, -A[rows, j]
        index[b], value[b] = m, 1.0
    index[start[n] :], value[start[n] :] = np.arange(m), 1.0
    return start, index, value


def _col_lp(A: np.ndarray):
    """Maximize v subject to A z >= v, sum z = 1, z >= 0, over the
    variables (z, v), by HiGHS without presolve (see the module docstring).

    This is the LP, and these are the options, that linprog(method="highs")
    passed: min -v over the column-wise matrix [-A 1; 1^T 0] with its exact
    zeros dropped (_lp_columns), rows -inf <= . <= 0 and 1 <= . <= 1,
    z >= 0 and v free. The LP's arrays are dropped once passModel has
    copied them, before HiGHS runs. Returns None, the primal (z, v) and
    the inequality rows' duals, or HiGHS's model status text and no
    solution when the LP is not solved to optimality.
    """
    m, n = A.shape
    inf = _highspy.kHighsInf
    start, index, value = _lp_columns(A)
    highs = _highspy._Highs()
    for option, setting in _HIGHS_OPTIONS.items():
        highs.setOptionValue(option, setting)
    status = highs.passModel(
        n + 1, m + 1, int(start[-1]), 1, 1, 0.0,  # column-wise, minimize, no offset
        np.append(np.zeros(n), -1.0),
        np.append(np.zeros(n), -inf),
        np.full(n + 1, inf),
        np.append(np.full(m, -inf), 1.0),
        np.append(np.zeros(m), 1.0),
        start,
        index,
        value,
        # all continuous; an empty array would pass HiGHS a dangling pointer
        np.zeros(n + 1, dtype=np.int32),
    )
    del start, index, value  # HiGHS holds its own copy of the model from here
    if status == _highspy.HighsStatus.kError:
        model_status = _highspy.HighsModelStatus.kModelError
    else:
        highs.run()
        model_status = highs.getModelStatus()
    if model_status != _highspy.HighsModelStatus.kOptimal:
        return highs.modelStatusToString(model_status), None, None
    solution = highs.getSolution()
    return None, np.array(solution.col_value), np.array(solution.row_dual[:m])


def _highs(S, scale):
    """Each game of the stack S by HiGHS's column LP, one call per game:
    values, Seeker mixes from the inequality duals and Hider mixes, as
    _simplex returns them, and HiGHS's model status for each game whose LP
    it did not solve, by index. Such a game has value NaN and zero mixes,
    so it fails its certificate. HiGHS takes the games unscaled, so scale
    is unused; it is there so that _highs takes _simplex's arguments."""
    G, m, k = S.shape
    v, y, z = np.full(G, np.nan), np.zeros((G, m)), np.zeros((G, k))
    failures = {}
    for g, A in enumerate(S):
        failure, x, duals = _col_lp(A)
        if failure is not None:
            failures[g] = failure
            continue
        v[g], y[g], z[g] = x[-1], -duals, x[:-1]
    return v, y, z, failures


def _certify(S, scale, v, y, z, unique=False):
    """Certify the solutions (v[g], y[g], z[g]) of the games S[g] of a stack.

    Each mix is clipped at 0 and normalised to sum 1, in place, so that no
    second Seeker mix of one float per game and row is held; a mix of no
    weight turns NaN, and its game fails. Both best-response gaps are taken
    against the whole games, dense or shared (_SharedStack), from y^T B
    and B z on each game's block less its shift, y^T 1 shift^T and
    (shift^T z) 1: one matmul per group of blocks with equal game counts
    (_SharedStack.groups), so no game is materialised. Returns the clean
    mixes, the gaps and which games certify: both gaps within GAP_TOL times
    the game's max|A|, scale[g], and, if unique, _unique's proof from the
    same two products that the game has no other equilibrium.
    """
    y, z = np.maximum(y, 0.0, out=y), np.maximum(z, 0.0, out=z)
    with np.errstate(invalid="ignore"):
        y /= y.sum(axis=1, keepdims=True)
        z /= z.sum(axis=1, keepdims=True)
    T = _shared(S)
    G, m, k = T.shape
    yS, low, Sz = np.empty((G, k)), np.empty(G), np.empty((G, m)) if unique else None
    in_order = (T.order == np.arange(G)).all()  # as a dense stack: slices, not copies
    for a, b, count, start in T.groups:
        g = slice(start, start + (b - a) * count)
        g = g if in_order else T.order[g]
        yg, zg, shift = y[g], z[g], T.shift[g]
        grid = (b - a, count)
        yB = np.matmul(yg.reshape(*grid, 1, m), T.blocks[a:b, None]).reshape(-1, k)
        yS[g] = yB - yg.sum(axis=1, keepdims=True) * shift
        Bz = np.matmul(T.blocks[a:b, None], zg.reshape(*grid, k, 1)).reshape(-1, m)
        Bz -= np.einsum("gk,gk->g", shift, zg)[:, None]
        low[g] = Bz.min(axis=1)
        if unique:
            Sz[g] = Bz
    row_gap, col_gap = yS.max(axis=1) - v, v - low
    ok = np.maximum(row_gap, col_gap) <= GAP_TOL * scale
    if unique:
        ok = _unique(S, scale, v, y, z, yS, Sz, ok)
    return y, z, row_gap, col_gap, ok


def _unique(S, scale, v, y, z, yS, Sz, ok):
    """Which of the games ok marks provably have (v[g], y[g], z[g]) as their
    only equilibrium, given the clean mixes and the products yS = y^T S and
    Sz = S z.

    This is the Shapley-Snow (1950) and Kaplansky (1945) characterization
    of a unique solution, with the supports R = {r : y_r > UNIQUE_TOL} and
    C = {j : z_j > UNIQUE_TOL}, and tau = UNIQUE_TOL times max|A|:
    |R| = |C|; every row off R pays at least v + tau against z, and every
    column off C at most v - tau against y (strict complementarity); and
    the bordered support block [S_RC / max|A|, -1; 1^T, 0] is nonsingular.
    The last holds when one small solve, of the block against the
    identity, gives an inverse whose column and row for v reproduce
    (z_C, v / max|A|) and (y_R, v / max|A|) within UNIQUE_TOL: the
    equations S_RC z_C = v 1 and y_R^T S_RC = v 1^T, with both mixes
    summing to 1, then pin both mixes. Then any other equilibrium would
    play only R and C, since every other pure strategy loses against this
    one, and would solve the same equations.
    """
    scale = np.where(scale > 0, scale, 1.0)
    margin = UNIQUE_TOL * scale
    R, C = y > UNIQUE_TOL, z > UNIQUE_TOL
    ok = ok & (R.sum(axis=1) == C.sum(axis=1))
    ok &= (R | (Sz >= (v + margin)[:, None])).all(axis=1)
    ok &= (C | (yS <= (v - margin)[:, None])).all(axis=1)
    for g in np.flatnonzero(ok).tolist():
        rows, cols = np.flatnonzero(R[g]), np.flatnonzero(C[g])
        s = len(cols)
        B = np.zeros((s + 1, s + 1))
        B[:s, :s] = S[g][np.ix_(rows, cols)] / scale[g]
        B[:s, s], B[s, :s] = -1.0, 1.0
        try:
            inv = np.linalg.inv(B)
        except np.linalg.LinAlgError:
            ok[g] = False
            continue
        found = np.concatenate([inv[:s, s], -inv[s, :s], inv[s, s:]])
        given = np.concatenate([z[g, cols], y[g, rows], [v[g] / scale[g]]])
        ok[g] = bool(np.abs(found - given).max() <= UNIQUE_TOL)
    return ok


def _solve(S, unique=False):
    """Solve the stack S by the simplex, and by HiGHS every game whose
    certificate is slack or, if unique, that _unique does not prove to have
    one equilibrium; such a game keeps the simplex's solution where HiGHS's
    is slack and the simplex's is not. Returns the values, the clean mixes
    and the gaps; raises SolverError if a game is slack under both, naming
    HiGHS's status if HiGHS did not solve it."""
    scale = _scales(S)
    v, y, z, failures = _simplex(S, scale)
    v += 0.0  # -0.0 + 0.0 is +0.0: a zero-valued game's value and gaps print as 0
    if unique:
        y, z, row_gap, col_gap, ok = _certify(S, scale, v, y, z, unique=True)
    else:
        y, z, row_gap, col_gap, ok = _certify(S, scale, v, y, z)
    if not ok.all():
        g = np.flatnonzero(~ok)
        certified = np.maximum(row_gap[g], col_gap[g]) <= GAP_TOL * scale[g]
        again = S if len(g) == len(S) else S[g]  # a stack that all goes is not copied
        v2, y2, z2, failed = _highs(again, scale[g])
        v2 += 0.0
        failures.update((int(g[j]), failure) for j, failure in failed.items())
        y2, z2, row_gap2, col_gap2, ok2 = _certify(again, scale[g], v2, y2, z2)
        ok[g] = ok2 | certified
        take = ok2 | ~certified
        h = g[take]
        v[h], y[h], z[h], row_gap[h], col_gap[h] = (x[take] for x in (v2, y2, z2, row_gap2, col_gap2))
        if not ok.all():
            j = int(np.flatnonzero(~ok)[0])
            failure = f"column LP failed: {failures[j]}; " if j in failures else ""
            raise SolverError(
                f"{failure}solution failed certification: row_gap={row_gap[j]:.3e}, col_gap={col_gap[j]:.3e}"
            )
    return v, y, z, row_gap, col_gap


def solve_zero_sum(A) -> GameSolution:
    """Equilibrium value and certified mixed strategies of one zero-sum game.

    The simplex of solve_games solves the game first. Its solution stands
    where _unique proves the equilibrium unique, so that any certified
    solver would return it. Every other game, and one whose simplex
    certificate is slack, goes to HiGHS's column LP, whose value and column
    strategy come from its primal and whose row strategy comes from its
    inequality duals: where the optimal mixes form a set, HiGHS's vertex is
    the one printed. An LP that HiGHS does not solve (it refuses entries of
    1e15 and more) or whose certificate is slack (degenerate bases
    occasionally produce one, and HiGHS's absolute tolerances do on a game
    in tiny units) keeps the simplex's certified solution. Raises
    SolverError if neither solver certifies the game.
    """
    v, y, z, row_gap, col_gap = _solve(np.asarray(A, dtype=float)[None], unique=True)
    return GameSolution(float(v[0]), y[0], z[0], float(row_gap[0]), float(col_gap[0]))


def _bases(B, block, shift, scale, basis):
    """The basis matrices of the Seeker LPs of the games B[block[j]] -
    shift[j], each divided by scale[j], for the variables basis[j], in
    _simplex's numbering and order (w at position k)."""
    m, k = B.shape[1:]
    M = np.zeros((len(basis), k + 1, k + 1))
    M[:, :k, k] = -1.0
    j, at = np.nonzero(basis[:, :k] < m)  # basic rows
    M[j, :k, at] = (B[block[j], basis[j, at]] - shift[j]) / scale[j, None]
    M[j, k, at] = 1.0
    j, at = np.nonzero(basis[:, :k] >= m)  # basic slacks
    M[j, basis[j, at] - m, at] = 1.0
    return M


def _pivot(inv, basis, D, p, q):
    """Bring variable q[g] into position p[g] of each basis of a stack, in
    place: basis[g] and its inverse inv[g], by the product-form rank-one
    update (Dantzig & Orchard-Hays, 1954), where D[g] = inv[g] a is q's
    column a in the current basis. Row p of the new inverse is inv[g, p] /
    D[g, p], and each other row i loses D[g, i] times it. D is overwritten."""
    g = np.arange(len(inv))
    r = inv[g, p] / D[g, p][:, None]
    D[g, p] = 0.0
    inv -= D[:, :, None] * r[:, None, :]
    inv[g, p] = r
    basis[g, p] = q


def _simplex(S, scale):
    """Lockstep revised primal simplex on the Seeker LP of every game of the
    stack S, shape (G, m, k), dense or shared (_SharedStack): min w
    subject to S^T y <= w, sum y = 1, y >= 0.

    Each game is divided by its max|A|, scale[g] (an all-zero game by 1).
    Its variables are numbered rows 0..m-1, slacks m..m+k-1 and w m+k; its
    basis holds k+1 of them, with the free w always at position k, so
    c_B = b = e_k. Each open game keeps its basis inverse. The start basis
    (slack columns, one row and w, of determinant 1) has a closed-form
    inverse, which is written out, and each pivot updates the inverse in
    place by the rank-one product-form update (_pivot), so no LAPACK
    inverse runs per pivot. The inverse's row k gives the duals pi, whose
    Hider mix is z = -pi[:k] and value v = pi[k], and its column k the
    basic values. The reduced costs are S z - v for the rows and z for the
    slacks. The most negative one enters (Dantzig), or the first negative
    one while the game's current run of zero-step pivots is _STALL_PIVOTS
    or longer (Bland, which cannot cycle; a cycle holds only zero-step
    pivots). The ratio test skips w. A game closes once no reduced cost is
    below -1e-12 (times max|A|, by the scaling). No inverse is refreshed:
    on the games tried, an updated inverse stayed within 1.1e-13 of a fresh
    inverse of its basis after 41 Bland pivots, and within 2.5e-9 after
    _MAX_PIVOTS (relative to its largest entry), far inside the 1e-6 the
    certificate allows. Once every game has closed or left, one LAPACK
    inverse of the closed games' optimal bases gives their values and
    mixes, so that these carry no round-off from the updates.

    Every entry the simplex reads, the start row of least row maximum, an
    entering row and a basis matrix, is read from the game's block less
    its shift, which is the game's own entry bit for bit. Every open game
    pivots in every round, and a round touches only the open games. It
    prices the rows and the slacks apart (where they tie, the row enters):
    the rows by B (z / max|A|) less (shift^T z / max|A|) + v for each game
    on its block B, which divides k numbers per game where (S z) / max|A|
    divided m. While most games are open, every game is priced into one
    (G, m, 1) buffer by one matmul per group of blocks with equal game
    counts (_SharedStack.groups), one matrix-vector product per game, with
    no copy of a block; then the open games only, from copies of the blocks
    of at most _PRICE_BYTES of them at a time (a copy per game made a
    sweep's tiny games slow, and one of every open game took up to half
    the stack). So a game's bits do not depend on the games beside it. It
    works out Bland's choices only while some game is in a Bland run, and
    drops the games that close or leave before the update, so that no
    closing game divides by a zero pivot element. Returns each game's
    value, Seeker mix and Hider mix, uncleaned, and no failure statuses
    (see _highs); a game left open by an unbounded or undefined ratio test
    or by the pivot cap has value NaN and both mixes 0.
    """
    T = _shared(S)
    G, m, k = T.shape
    B, order = T.blocks, T.order  # the simplex numbers the games in block order
    block, shift = T.block[order], T.shift[order]
    games, cols = np.arange(G), np.arange(k)
    scale = np.where(scale > 0, scale, 1.0)[order]
    # start at the row of least row maximum, every slack basic but its argmax's
    r0 = np.empty(G, dtype=np.intp)
    for at, rowmax in T.row_maxima(order):
        r0[at] = rowmax.argmin(axis=1)
    s = B[block, r0] - shift
    j0 = s.argmax(axis=1)
    # position j holds slack j, or row r0 for j = j0; position k holds w
    basis = np.tile(np.append(m + cols, m + k), (G, 1))
    basis[games, j0] = r0
    # its inverse, with s = S[r0] / scale: row j0 is e_k, row k is
    # s[j0] e_k - e_j0, and each other row i is e_i - e_j0 + (s[j0] - s[i]) e_k
    s /= scale[:, None]
    inv = np.zeros((G, k + 1, k + 1))
    inv[:, cols, cols] = 1.0
    inv[games, :, j0] = -1.0
    inv[:, :k, k] = s[games, j0][:, None] - s
    inv[games, j0, j0], inv[games, j0, k] = 0.0, 1.0
    inv[:, k, k] = s[games, j0]
    stalls = np.zeros(G, dtype=int)
    closed, optimal = np.zeros(G, dtype=bool), np.empty_like(basis)  # each closed game's basis
    u = np.zeros((G, k, 1))  # each open game's Hider mix z / scale, which prices its rows
    Sz = np.empty((G, m, 1))  # every round's pricing product B u
    lift = np.zeros(G)  # and what each game takes off it: shift^T u + v
    size = max(1, _PRICE_BYTES // (8 * m * k))  # games per priced copy
    open_, pivots = games, 0
    bk, sh, sc = block, shift, scale  # the open games' blocks, shifts and scales
    shifted = T.cost.any()
    while len(open_):
        rc_slack, x, w = -inv[:, k, :k], inv[:, :k, k], inv[:, k, k]
        uo = rc_slack / sc[:, None]
        u[open_, :, 0] = uo
        if shifted:
            w = w + np.einsum("gk,gk->g", sh, uo)
        if 2 * len(open_) > G:  # most games open: every game on its block, no copy of one
            for a, b, count, start in T.groups:
                g = slice(start, start + (b - a) * count)
                np.matmul(B[a:b, None], u[g].reshape(b - a, count, k, 1), out=Sz[g].reshape(b - a, count, m, 1))
            lift[open_] = w
            rc_row, at = Sz[:, :, 0], open_
        else:  # only the open games, from copies of a few blocks at a time
            for j in range(0, len(open_), size):
                g = open_[j : j + size]
                np.matmul(B[bk[j : j + size]], u[g], out=Sz[j : j + len(g)])
            rc_row, at = Sz[: len(open_), :, 0], slice(None)
            lift[: len(open_)] = w
        rc_row -= lift[: len(rc_row), None]  # the row reduced costs, in place; those of closed games unread
        row_min, slack_min = rc_row.min(axis=1)[at], rc_slack.min(axis=1)
        done = np.minimum(row_min, slack_min) >= -_RC_TOL
        if done.any():
            closed[open_[done]], optimal[open_[done]] = True, basis[done]
        # the most negative reduced cost, a row where a row and a slack tie
        q = np.where(row_min <= slack_min, rc_row.argmin(axis=1)[at], m + rc_slack.argmin(axis=1))
        bland = stalls >= _STALL_PIVOTS
        in_bland = bland.any()
        if in_bland:  # the first negative one: a row if any, else a slack
            neg_row, neg_slack = (rc_row < -_RC_TOL)[at], rc_slack < -_RC_TOL
            first = np.where(neg_row.any(axis=1), neg_row.argmax(axis=1), m + neg_slack.argmax(axis=1))
            q = np.where(bland, first, q)
        a = np.zeros((len(open_), k + 1))  # the entering column
        row = q < m
        a[row, :k] = (B[bk[row], q[row]] - sh[row]) / sc[row, None]
        a[row, k] = 1.0
        a[np.flatnonzero(~row), q[~row] - m] = 1.0
        D = np.einsum("gij,gj->gi", inv, a)  # the entering column in the basis
        d = D[:, :k]
        ratio = np.divide(np.maximum(x, 0.0), d, out=np.full(d.shape, np.inf), where=d > _PIVOT_TOL)
        step = ratio.min(axis=1)
        go = ~done & np.isfinite(step) & (pivots < _MAX_PIVOTS)
        tie = ratio <= step[:, None] + _RC_TOL
        # among the tied rows: the largest pivot, or the least variable (Bland)
        p = np.where(tie, d, -np.inf).argmax(axis=1)
        if in_bland:
            p = np.where(bland, np.where(tie, basis[:, :k], m + k).argmin(axis=1), p)
        stalls = np.where(step <= _RC_TOL, stalls + 1, 0)
        if not go.all():  # a game closes or leaves: keep the open ones
            open_, inv, basis, stalls, D, p, q, bk, sh, sc = (
                part[go] for part in (open_, inv, basis, stalls, D, p, q, bk, sh, sc)
            )
        if len(open_):
            _pivot(inv, basis, D, p, q)
        pivots += 1
    Sz = rc_row = None  # the pricing buffer goes before the Seeker mixes come
    # the closed games' solutions, from one fresh inverse of their optimal
    # bases, each put back at its place in the stack
    v, y, z = np.full(G, np.nan), np.zeros((G, m)), np.zeros((G, k))
    g = np.flatnonzero(closed)
    inv = np.linalg.inv(_bases(B, block[g], shift[g], scale[g], optimal[g]))
    at = order[g]
    v[at], z[at] = inv[:, k, k] * scale[g], -inv[:, k, :k]
    basic_rows = optimal[g, :k] < m
    y[at[np.nonzero(basic_rows)[0]], optimal[g, :k][basic_rows]] = inv[:, :k, k][basic_rows]
    return v, y, z, {}


def solve_games(S) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Values and certified mixed strategies of a stack of same-shape
    zero-sum games, shape (G, m, k): (values, Seeker mixes, Hider mixes),
    of shapes (G,), (G, m) and (G, k).

    The stack is a dense array, or a shared stack (_SharedStack): a few
    blocks, and for each game its block and the shift, constant down each
    column, that it takes off it, as feedback_matrix hands over the
    subgames of its Held-Karp states. Every game's Seeker LP (k+1
    constraints) is solved by a lockstep primal simplex over the whole
    stack (_simplex): one row enters per pivot, as in row generation, and
    all the games pivot together in a few batched numpy calls, with no LP
    built. Each game is priced by one matrix-vector product on its own
    block, and every entry read is the block's less the shift, so a shared
    stack is never copied per game. The Seeker mixes are read from the
    bases and the Hider mixes from the duals. A game the simplex could not
    close, or whose certificate is slack, is materialised and solved again
    by HiGHS's column LP. Raises SolverError if a game does not certify
    either way.

    The stack may be stored in any layout. Every stack the package builds
    is Hider-major, np.swapaxes of a (G, k, m) array, so that each game's
    Seeker axis, along which the reductions and S z run, is contiguous.
    Within one layout each game gets the same bits in any stack, beside any
    games and in any place; across layouts they may differ in round-off,
    and so may a shared game and the same game materialised.
    """
    if not isinstance(S, _SharedStack):
        S = np.asarray(S, dtype=float)
        if S.ndim != 3:
            raise ValueError(f"expected a (G, m, k) stack of games, got shape {S.shape}")
    return _solve(S)[:3]


def _saddle_bounds(rowmax, colmin):
    """_first_saddle's tie bounds, from the row maxima and column minima:
    a cell of row r and column j is a saddle if lo[r] <= it <= hi[j], with
    lo = rowmax - SADDLE_TOL |rowmax| and hi = colmin + SADDLE_TOL |colmin|,
    each taken in place in one array."""
    lo, hi = np.abs(rowmax), np.abs(colmin)
    lo *= -SADDLE_TOL
    lo += rowmax
    hi *= SADDLE_TOL
    hi += colmin
    return lo, hi


def _first_saddle(A: np.ndarray) -> np.ndarray:
    """Each game's first pure saddle cell in row-major order, r*k + j, or -1
    if it has none: a cell that is its row's maximum and its column's
    minimum, over the last two axes, so a stack of games is scanned at once
    (shape A.shape[:-2]). Ties count within SADDLE_TOL times the size of the
    row maximum or column minimum they are compared with: relative to the
    value a saddle would have, and not to max|A|, which a huge cost in the
    other cells would inflate.

    A cell of row r and column j needs lo[r] <= hi[j], so a game whose
    least lo exceeds its greatest hi holds no saddle; when that rules out
    every game of the stack (every reveal-stage subgame of the benchmark's
    eight-site instance at t = 2, c = 1), the cells are not compared. A NaN
    bound fails the test, and its stack is compared. The cell order is
    row-major in any layout of the stack."""
    lo, hi = _saddle_bounds(A.max(axis=-1, keepdims=True), A.min(axis=-2, keepdims=True))
    if (lo.min(axis=(-2, -1)) > hi.max(axis=(-2, -1))).all():
        return np.full(A.shape[:-2], -1)
    mask = A >= lo
    mask &= A <= hi
    mask = mask.reshape(*A.shape[:-2], -1)
    return np.where(mask.any(axis=-1), mask.argmax(axis=-1), -1)


def _saddle_possible(S: _SharedStack) -> np.ndarray:
    """Which games of the shared stack S _first_saddle's bound test leaves
    open (the least lo at most the greatest hi, or a NaN bound), taken from
    the blocks: each game's row maxima (_SharedStack.row_maxima) and column
    minima (the block's less the shift) are its own, so the test is
    _first_saddle's exactly, and a game it rules out has no saddle."""
    colmin = S.blocks.min(axis=1)
    possible = np.empty(len(S), dtype=bool)
    for at, rowmax in S.row_maxima(np.arange(len(S))):
        lo, hi = _saddle_bounds(rowmax, colmin[S.block[at]] - S.shift[at])
        possible[at] = ~(lo.min(axis=1) > hi.max(axis=1))
    return possible
