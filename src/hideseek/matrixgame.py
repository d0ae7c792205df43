"""Zero-sum matrix game solving, certification, and saddle-point detection.

Throughout, the row player minimizes and the column player maximizes, so a
pure saddle point is a cell that is the maximum of its row and the minimum
of its column. Equilibria are computed by linear programming on the column
player (N variables, M constraints; these games are extremely tall) with the
row strategy recovered from the constraint duals. Solutions are certified by
best-response gaps rather than by trusting the solver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linprog
from scipy.sparse import block_diag

from .routes import check_reveal_time

GAP_TOL = 1e-6
SADDLE_TOL = 1e-9
# A batch of column LPs in solve_games closes once it holds this many
# constraint rows: enough rows to spread scipy's per-call overhead over many
# tiny subgames, few enough that three 720 x 6 subgames (n = 8) fill one.
_BATCH_ROWS = 2000


class SolverError(RuntimeError):
    """The LP failed or produced an uncertifiable solution."""


def check_cost(c: float) -> None:
    """Reject a switching cost that is negative, NaN or infinite."""
    if not (math.isfinite(c) and c >= 0):
        raise ValueError(f"switching cost must be finite and >= 0, got {c}")


def _entries(mat) -> np.ndarray:
    """Accept a PayoffMatrix-like object or a plain array."""
    return np.asarray(getattr(mat, "entries", mat), dtype=float)


@dataclass(frozen=True)
class MixedStrategy:
    """A probability vector over a finite action set."""

    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float).ravel()
        if not np.isfinite(w).all():
            raise ValueError(f"strategy weights must be finite, got {w}")
        if (w < -1e-12).any():
            raise ValueError(f"negative strategy weight: {w.min()}")
        w = np.maximum(w, 0.0)
        if abs(w.sum() - 1.0) > 1e-9:
            raise ValueError(f"strategy weights sum to {w.sum()}, not 1")
        object.__setattr__(self, "weights", w)

    def __len__(self):
        return len(self.weights)


def simplex_weights(strategy, size: int, name: str) -> np.ndarray:
    """Validate a MixedStrategy or raw vector against the size-simplex."""
    w = strategy.weights if isinstance(strategy, MixedStrategy) else np.asarray(strategy, dtype=float)
    if w.shape != (size,):
        raise ValueError(f"{name} has shape {w.shape}, expected ({size},)")
    if not np.isfinite(w).all() or (w < -1e-9).any() or abs(w.sum() - 1.0) > 1e-9:
        raise ValueError(f"{name} is not on the probability simplex")
    return np.maximum(w, 0.0)


@dataclass(frozen=True)
class GameSolution:
    value: float
    row_strategy: MixedStrategy
    col_strategy: MixedStrategy
    row_gap: float
    col_gap: float


@dataclass(frozen=True)
class PureSaddle:
    row: int
    col: int
    value: float
    unique: bool


def _validate_matrix(A: np.ndarray) -> None:
    if A.ndim != 2 or A.shape[0] < 1 or A.shape[1] < 1:
        raise ValueError(f"degenerate matrix shape {A.shape}")
    if not np.isfinite(A).all():
        raise ValueError("matrix has non-finite entries")


def _col_lp(blocks: list[np.ndarray]):
    """Maximize v subject to A z >= v, sum z = 1, z >= 0, for every A at once.

    The games share one block-diagonal LP whose variables are each block's
    (z, v) in turn and whose rows are each block's A z >= v rows in turn,
    then one sum z = 1 row per block. The objective is the sum of the v's,
    so every block reaches its own optimum.
    """
    widths = [A.shape[1] for A in blocks]
    A_ub = block_diag([np.hstack([-A, np.ones((A.shape[0], 1))]) for A in blocks], format="csr")
    A_eq = block_diag([np.append(np.ones(n), 0.0)[None, :] for n in widths], format="csr")
    c = np.concatenate([np.append(np.zeros(n), -1.0) for n in widths])
    lower = np.concatenate([np.append(np.zeros(n), -np.inf) for n in widths])
    return linprog(
        c,
        A_ub=A_ub,
        b_ub=np.zeros(A_ub.shape[0]),
        A_eq=A_eq,
        b_eq=np.ones(len(blocks)),
        bounds=np.column_stack([lower, np.full(len(lower), np.inf)]),
        method="highs",
    )


def _row_lp(A: np.ndarray) -> np.ndarray:
    """The y that minimizes w subject to A^T y <= w, sum y = 1, y >= 0."""
    m, n = A.shape
    c = np.zeros(m + 1)
    c[-1] = 1.0
    A_ub = np.hstack([A.T, -np.ones((n, 1))])
    A_eq = np.zeros((1, m + 1))
    A_eq[0, :m] = 1.0
    res = linprog(
        c,
        A_ub=A_ub,
        b_ub=np.zeros(n),
        A_eq=A_eq,
        b_eq=[1.0],
        bounds=[(0, None)] * m + [(None, None)],
        method="highs",
    )
    if res.status != 0:
        raise SolverError(f"row LP failed: {res.message}")
    return res.x[:m]


def _clean(w: np.ndarray) -> np.ndarray:
    w = np.maximum(np.asarray(w, dtype=float), 0.0)
    s = w.sum()
    if s <= 0:
        raise SolverError("degenerate strategy weights from LP")
    return w / s


def _gaps(A: np.ndarray, y: np.ndarray, z: np.ndarray, value: float):
    row_gap = float((y @ A).max() - value)
    col_gap = float(value - (A @ z).min())
    return row_gap, col_gap


def _certified(A: np.ndarray, y, z, value: float) -> GameSolution:
    """The solution (y, z, value) of A, or SolverError if its best-response
    gaps exceed GAP_TOL."""
    y, z = _clean(y), _clean(z)
    row_gap, col_gap = _gaps(A, y, z, value)
    if max(row_gap, col_gap) > GAP_TOL:
        raise SolverError(
            f"solution failed certification: row_gap={row_gap:.3e}, col_gap={col_gap:.3e}"
        )
    return GameSolution(value, MixedStrategy(y), MixedStrategy(z), row_gap, col_gap)


def solve_games(mats) -> list[GameSolution]:
    """Equilibrium values and certified mixed strategies of many zero-sum games.

    The games are packed in order into block-diagonal column LPs of about
    _BATCH_ROWS constraint rows each, so scipy's per-call overhead is paid
    once per batch instead of once per game. Each game takes its value and
    column strategy from its own slice of the solution, and its row strategy
    from its slice of the inequality duals. A game whose certificate is
    slack (degenerate bases occasionally produce one), or every game of a
    batch HiGHS fails on, is solved again alone; alone, a slack certificate
    falls back to the explicit row LP. Raises SolverError if a game does
    not certify to GAP_TOL.
    """
    mats = [_entries(A) for A in mats]
    for A in mats:
        _validate_matrix(A)
    sols: list[GameSolution] = []
    start = rows = 0
    for k, A in enumerate(mats):
        rows += A.shape[0]
        if rows < _BATCH_ROWS and k < len(mats) - 1:
            continue
        blocks = mats[start : k + 1]
        start, rows = k + 1, 0
        alone = len(blocks) == 1
        res = _col_lp(blocks)
        if res.status != 0:
            if alone:
                raise SolverError(f"column LP failed: {res.message}")
            sols += [solve_zero_sum(A) for A in blocks]
            continue
        col = row = 0
        for A in blocks:
            m, n = A.shape
            x = res.x[col : col + n + 1]
            value = float(x[-1])
            try:
                sol = _certified(A, -res.ineqlin.marginals[row : row + m], x[:n], value)
            except SolverError:
                if alone:
                    sol = _certified(A, _row_lp(A), x[:n], value)
                else:
                    sol = solve_zero_sum(A)
            sols.append(sol)
            col, row = col + n + 1, row + m
    return sols


def solve_zero_sum(A) -> GameSolution:
    """Equilibrium value and certified mixed strategies of one zero-sum game:
    the single-game case of solve_games."""
    return solve_games([A])[0]


def best_response_gap(A, sol: GameSolution) -> tuple[float, float]:
    """Recompute certification gaps from scratch, independent of the solver."""
    A = _entries(A)
    y = sol.row_strategy.weights
    z = sol.col_strategy.weights
    if len(y) != A.shape[0] or len(z) != A.shape[1]:
        raise ValueError("strategy dimensions do not match the matrix")
    return _gaps(A, y, z, sol.value)


def _saddle_mask(A: np.ndarray, tol: float = SADDLE_TOL) -> np.ndarray:
    """Cells that are their row's maximum and their column's minimum (within
    tol), over the last two axes, so a stack of games is scanned at once."""
    return (A >= A.max(axis=-1, keepdims=True) - tol) & (A <= A.min(axis=-2, keepdims=True) + tol)


def find_pure_saddle(A, tol: float = SADDLE_TOL) -> PureSaddle | None:
    """Scan for a cell that is its row's maximum and its column's minimum.

    Returns the first such cell in row-major order, flagged unique when it
    is the only one (ties compared within tol).
    """
    A = _entries(A)
    _validate_matrix(A)
    cells = np.argwhere(_saddle_mask(A, tol))
    if len(cells) == 0:
        return None
    r, c = (int(v) for v in cells[0])
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
    checks: tuple[tuple[int, float, float, bool], ...]
    passed: bool


def check_lemma1(A, rs, t: int, c: float) -> Lemma1Report:
    """Verify that a unique pure saddle leaves no profitable post-reveal switch.

    At the saddle (route r*, location i*), every admissible relocation must
    satisfy A(r*, i_hat) - c <= A(r*, i*). Raises if the matrix has no unique
    pure saddle (the precondition of the structural result this checks).
    """
    A = _entries(A)
    check_reveal_time(t, rs.n - 1)
    check_cost(c)
    saddle = find_pure_saddle(A)
    if saddle is None or not saddle.unique:
        raise ValueError("no unique pure saddle")
    route = rs.routes[saddle.row]
    stay = float(A[saddle.row, saddle.col])
    unvisited = sorted(set(route) - set(route[:t]))
    checks = []
    for i_hat in unvisited:
        switch_payoff = float(A[saddle.row, i_hat - 1]) - c
        checks.append((i_hat, switch_payoff, stay, switch_payoff <= stay + SADDLE_TOL))
    return Lemma1Report(
        saddle=saddle,
        t_reveal=t,
        c=c,
        checks=tuple(checks),
        passed=all(ok for *_, ok in checks),
    )
