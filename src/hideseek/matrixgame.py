"""Zero-sum matrix game solving, certification, and saddle-point detection.

Throughout, the row player minimizes and the column player maximizes, so a
pure saddle point is a cell that is the maximum of its row and the minimum
of its column. Equilibria are computed by linear programming on the column
player (N variables, M constraints; these games are extremely tall) with the
row strategy recovered from the constraint duals. Solutions are certified by
best-response gaps rather than by trusting the solver.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linprog
from scipy.sparse import block_diag

GAP_TOL = 1e-6
SADDLE_TOL = 1e-9
# A batch of column LPs in game_values closes once it holds this many
# constraint rows: enough rows to spread scipy's per-call overhead over many
# tiny subgames, few enough that three 720 x 6 subgames (n = 8) fill one.
_BATCH_ROWS = 2000


class SolverError(RuntimeError):
    """The LP failed or produced an uncertifiable solution."""


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


def _row_lp(A: np.ndarray):
    """Minimize w subject to A^T y <= w, sum y = 1, y >= 0."""
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
    return float(res.x[-1]), res.x[:m]


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


def solve_zero_sum(A) -> GameSolution:
    """Equilibrium value and certified mixed strategies of a zero-sum game.

    The column player's LP is solved directly; the row strategy comes from
    the inequality duals. If the dual certificate is slack (degenerate
    bases occasionally produce one), the explicit row LP is solved instead.
    Raises SolverError if no solution certifies to GAP_TOL.
    """
    A = _entries(A)
    _validate_matrix(A)
    res = _col_lp([A])
    if res.status != 0:
        raise SolverError(f"column LP failed: {res.message}")
    value = float(res.x[-1])
    z = _clean(res.x[:-1])
    y = None
    if res.ineqlin.marginals is not None:
        try:
            y = _clean(-np.asarray(res.ineqlin.marginals))
        except SolverError:
            y = None
    if y is not None:
        row_gap, col_gap = _gaps(A, y, z, value)
        if max(row_gap, col_gap) <= GAP_TOL:
            return GameSolution(value, MixedStrategy(y), MixedStrategy(z), row_gap, col_gap)
    _, y = _row_lp(A)
    y = _clean(y)
    row_gap, col_gap = _gaps(A, y, z, value)
    if max(row_gap, col_gap) > GAP_TOL:
        raise SolverError(
            f"solution failed certification: row_gap={row_gap:.3e}, col_gap={col_gap:.3e}"
        )
    return GameSolution(value, MixedStrategy(y), MixedStrategy(z), row_gap, col_gap)


def _closed_form(A: np.ndarray) -> float | None:
    """Exact value of a pure-saddle, single-row, single-column or 2x2 game."""
    saddle = find_pure_saddle(A)
    if saddle is not None:
        return saddle.value
    m, n = A.shape
    if m == 1:
        return float(A.max())
    if n == 1:
        return float(A.min())
    if (m, n) == (2, 2):
        # with no saddle the mixed formula applies; a near-zero denominator
        # means a near-saddle the scan's tolerance missed, so use the LP
        den = A[0, 0] + A[1, 1] - A[0, 1] - A[1, 0]
        if abs(den) > 1e-9:
            return float((A[0, 0] * A[1, 1] - A[0, 1] * A[1, 0]) / den)
    return None


def _batch_values(blocks: list[np.ndarray]) -> list[float]:
    """Values of several games from one block-diagonal column LP.

    Each block is certified from its own slice of the solution and of the
    inequality duals. A block that does not certify to GAP_TOL, or every
    block when HiGHS fails on the batch, is solved alone by solve_zero_sum.
    """
    res = _col_lp(blocks)
    if res.status != 0:
        return [solve_zero_sum(A).value for A in blocks]
    values = []
    col = row = 0
    for A in blocks:
        m, n = A.shape
        x = res.x[col : col + n + 1]
        duals = res.ineqlin.marginals[row : row + m]
        col, row = col + n + 1, row + m
        value = float(x[-1])
        try:
            certified = max(_gaps(A, _clean(-duals), _clean(x[:n]), value)) <= GAP_TOL
        except SolverError:
            certified = False
        values.append(value if certified else solve_zero_sum(A).value)
    return values


def game_values(mats) -> list[float]:
    """Values of many games, taking closed-form shortcuts where they are exact.

    Pure-saddle, single-row, single-column, and 2x2 games are resolved
    without an LP. The rest are packed in order into block-diagonal column
    LPs of about _BATCH_ROWS constraint rows each, so scipy's per-call
    overhead is paid once per batch instead of once per game. Every value
    agrees with solve_zero_sum to far better than 1e-9, and a game that
    cannot be certified raises SolverError as solve_zero_sum does.
    """
    mats = [_entries(A) for A in mats]
    values: list[float | None] = []
    for A in mats:
        _validate_matrix(A)
        values.append(_closed_form(A))
    batch: list[int] = []
    rows = 0
    pending = [k for k, v in enumerate(values) if v is None]
    for k in pending:
        batch.append(k)
        rows += mats[k].shape[0]
        if rows >= _BATCH_ROWS or k == pending[-1]:
            for q, v in zip(batch, _batch_values([mats[q] for q in batch])):
                values[q] = v
            batch, rows = [], 0
    return values


def game_value(A) -> float:
    """Game value only: the single-game case of game_values."""
    return game_values([A])[0]


def best_response_gap(A, sol: GameSolution) -> tuple[float, float]:
    """Recompute certification gaps from scratch, independent of the solver."""
    A = _entries(A)
    y = sol.row_strategy.weights
    z = sol.col_strategy.weights
    if len(y) != A.shape[0] or len(z) != A.shape[1]:
        raise ValueError("strategy dimensions do not match the matrix")
    return _gaps(A, y, z, sol.value)


def find_pure_saddle(A, tol: float = SADDLE_TOL) -> PureSaddle | None:
    """Scan for a cell that is its row's maximum and its column's minimum.

    Returns the first such cell in row-major order, flagged unique when it
    is the only one (ties compared within tol).
    """
    A = _entries(A)
    _validate_matrix(A)
    row_max = A.max(axis=1, keepdims=True)
    col_min = A.min(axis=0, keepdims=True)
    mask = (A >= row_max - tol) & (A <= col_min + tol)
    cells = np.argwhere(mask)
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
    if not 1 <= t <= rs.n - 1:
        raise ValueError(f"reveal time {t} out of range 1..{rs.n - 1}")
    if not (np.isfinite(c) and c >= 0):
        raise ValueError(f"switching cost must be finite and >= 0, got {c}")
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
