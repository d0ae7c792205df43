import functools
import math
import pathlib
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hideseek as hs
import hideseek.matrixgame as mg
import hideseek.payoff as payoff
from hideseek import cli, experiments

import reference as ref
from conftest import random_instance
import oracles
from oracles import best_response_gap, col_lp_reference, full_lp_values, presolved_value

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "hsbench"))
import workloads  # noqa: E402

sys.path.remove(str(ROOT / "hsbench"))


def brute_force_saddles(A):
    """Independent scan: cells that top their row and floor their column."""
    found = []
    for j in range(A.shape[0]):
        for i in range(A.shape[1]):
            if A[j, i] >= A[j].max() - 1e-9 and A[j, i] <= A[:, i].min() + 1e-9:
                found.append((j, i))
    return found


def test_solve_three_site_base(base3):
    sol = hs.solve_zero_sum(base3)
    assert sol.value == pytest.approx(ref.VALUE_BASE_3, abs=1e-4)
    assert sol.row_gap <= 1e-6 and sol.col_gap <= 1e-6
    assert sol.row_strategy.sum() == pytest.approx(1.0, abs=1e-9)
    assert sol.col_strategy.sum() == pytest.approx(1.0, abs=1e-9)


def test_solve_one_by_one():
    sol = hs.solve_zero_sum(np.array([[4.25]]))
    assert sol.value == pytest.approx(4.25)
    assert sol.row_strategy[0] == pytest.approx(1.0)
    assert sol.col_strategy[0] == pytest.approx(1.0)


def test_solve_three_site_switch(base3, rs3):
    S = hs.switch_matrix(base3, rs3, hs.SwitchConfig(1, 1.0))
    sol = hs.solve_zero_sum(S)
    assert sol.value == pytest.approx(ref.VALUE_SWITCH_3_C1, abs=1e-4)
    assert max(sol.row_gap, sol.col_gap) <= 1e-6
    # equilibria are not unique; the mix only has to certify, but the
    # quoted one is optimal too and should achieve the value
    z_quoted = np.array([0.0920, 0.4540, 0.4540])
    z_quoted = z_quoted / z_quoted.sum()
    assert (S @ z_quoted).min() == pytest.approx(sol.value, abs=1e-3)


def test_solve_validation():
    with pytest.raises(ValueError, match="non-finite"):
        hs.solve_zero_sum(np.array([[1.0, np.nan]]))
    with pytest.raises(ValueError, match="degenerate"):
        hs.solve_zero_sum(np.zeros((0, 3)))


# best_response_gap is the tests' own recompute of a certificate (oracles)

def _recomputed_gaps(A, sol):
    return best_response_gap(A, sol.value, sol.row_strategy, sol.col_strategy)


def test_best_response_gap_pure_saddle():
    A = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert best_response_gap(A, 2.0, np.array([1.0, 0.0]), np.array([0.0, 1.0])) == (0.0, 0.0)


def test_best_response_gap_recomputes(base3):
    sol = hs.solve_zero_sum(base3)
    row_gap, col_gap = _recomputed_gaps(base3, sol)
    assert row_gap == pytest.approx(sol.row_gap, abs=1e-12)
    assert col_gap == pytest.approx(sol.col_gap, abs=1e-12)


def test_uniform_hider_mix_is_not_optimal(base3):
    sol = hs.solve_zero_sum(base3)
    _, col_gap = best_response_gap(base3, sol.value, sol.row_strategy, np.full(3, 1 / 3))
    direct = sol.value - (base3 @ np.full(3, 1 / 3)).min()
    assert col_gap == pytest.approx(direct, abs=1e-12)
    assert col_gap > 1e-3


def test_best_response_gap_dimension_check(base3):
    sol = hs.solve_zero_sum(base3)
    with pytest.raises(ValueError, match="dimensions"):
        _recomputed_gaps(np.eye(4), sol)


def test_find_pure_saddle_simple():
    saddle = oracles.find_pure_saddle(np.array([[1.0, 2.0], [3.0, 4.0]]))
    assert (saddle.row, saddle.col, saddle.value) == (0, 1, 2.0)
    assert saddle.unique


def test_find_pure_saddle_none_on_three_sites(base3):
    assert brute_force_saddles(base3) == []
    assert oracles.find_pure_saddle(base3) is None


def test_find_pure_saddle_collinear(collinear3):
    rs = hs.enumerate_routes(3)
    A = hs.base_matrix(collinear3, rs)
    cells = brute_force_saddles(A)
    assert cells == [(0, 2)]
    saddle = oracles.find_pure_saddle(A)
    assert (saddle.row, saddle.col) == (0, 2)
    assert saddle.value == pytest.approx(3.0)
    assert saddle.unique
    assert saddle.value == pytest.approx(hs.solve_zero_sum(A).value, abs=1e-8)


def test_find_pure_saddle_flags_ties():
    saddle = oracles.find_pure_saddle(np.array([[1.0, 1.0], [0.0, 0.0]]))
    assert saddle is not None and not saddle.unique


@pytest.mark.parametrize("name", ["three_sites", "six_sites", "collinear_three"])
def test_saddle_mask_finds_the_first_saddle_of_the_cell_by_cell_scan(name):
    # every reveal-stage subgame of the instance, scanned as feedback_matrix
    # scans them, a stack at a time, and alone as simulate scans one; at
    # c = 1e12 the switch cells dwarf the stay cells, whose ties must still
    # be told apart
    inst = hs.load_instance(ROOT / "instances" / f"{name}.json")
    rs = hs.enumerate_routes(inst.n)
    A = hs.base_matrix(inst, rs)
    found = {True: 0, False: 0}
    for t in range(1, inst.n):
        first = np.arange(0, rs.m, hs.prefix_block(rs, t))
        for i in range(1, inst.n + 1):
            h = np.flatnonzero(rs.position_matrix[first, i - 1] > t)
            for c in (0.0, 0.5, 1.0, 3.0, 1e12):
                S = hs.subgame_matrix(A, rs, t, h, i, c)
                for sub, cell in zip(S, mg._first_saddle(S)):
                    found[assert_first_saddle(sub, cell)] += 1
                    assert mg._first_saddle(sub) == cell
    assert found[True] and found[False]


def assert_first_saddle(A, cell):
    """Check a game's first saddle cell (row-major, -1 for none) against
    the cell-by-cell scan. Returns whether the game has a saddle."""
    saddle = oracles.find_pure_saddle(A)
    assert cell == (-1 if saddle is None else saddle.row * A.shape[1] + saddle.col)
    return saddle is not None


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(data=st.data(), shape=st.tuples(st.integers(1, 5), st.integers(1, 4), st.integers(1, 4)))
def test_saddle_mask_prefilter_drops_no_saddle(data, shape):
    # small integers make ties common; copies scaled by 1e-8 and 1e8 and a
    # huge-cost switch column move every bound off the unit scale. The
    # prefilter may rule out the random stack whole, and each game alone;
    # the mixed stack adds a game with every cell a saddle and, from 2 x 2
    # on, one with none
    G, m, k = shape
    entries = st.lists(st.integers(-3, 3), min_size=G * m * k, max_size=G * m * k)
    S = np.array(data.draw(entries, label="entries"), dtype=float).reshape(G, m, k)
    if data.draw(st.booleans(), label="switch column"):
        S[:, :, data.draw(st.integers(0, k - 1), label="column")] -= 1e12
    S = np.concatenate([S, S * 1e-8, S * 1e8])
    parity = np.add.outer(np.arange(m), np.arange(k)) % 2.0
    mixed = np.concatenate([S, np.zeros((1, m, k)), parity[None]])
    for stack in (S, mixed):
        for sub, cell in zip(stack, mg._first_saddle(stack)):
            assert_first_saddle(sub, cell)
            assert mg._first_saddle(sub) == cell


def test_check_lemma1_collinear(collinear3):
    rs = hs.enumerate_routes(3)
    A = hs.base_matrix(collinear3, rs)
    for c in (0.0, 1.0, 5.0):
        report = oracles.check_lemma1(A, rs, 1, c)
        assert report.passed
        assert report.saddle.value == pytest.approx(3.0)
        assert {i_hat for i_hat, *_ in report.checks} == {2, 3}
        for _, switch_payoff, stay_payoff, ok in report.checks:
            assert ok and switch_payoff <= stay_payoff + 1e-9


def test_check_lemma1_requires_unique_saddle(base3, rs3):
    with pytest.raises(ValueError, match="no unique pure saddle"):
        oracles.check_lemma1(base3, rs3, 1, 1.0)


@pytest.mark.parametrize("bad", [-1.0, float("nan"), float("inf"), float("-inf")])
def test_check_cost_names_the_first_bad_cost(bad):
    # a scalar keeps its message; an array names its first bad cost in
    # row-major order, alone or among good costs and later bad ones
    message = f"switching cost must be finite and >= 0, got {bad}$"
    with pytest.raises(ValueError, match=message):
        mg.check_cost(bad)
    for costs in ([bad], [0.0, 2.5, bad, 1.0], [0.5, bad, -2.0, float("nan")], [[1.0, 0.0], [bad, -3.0]]):
        with pytest.raises(ValueError, match=message):
            mg.check_cost(np.array(costs))
    with pytest.raises(ValueError, match="got -1$"):
        mg.check_cost(-1)
    mg.check_cost(np.array([0.0, 5e-324, 1e308]))
    mg.check_cost(np.array([]))


def test_check_lemma1_rejects_bad_costs(collinear3):
    rs = hs.enumerate_routes(3)
    A = hs.base_matrix(collinear3, rs)
    for c in (-1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="finite and >= 0"):
            oracles.check_lemma1(A, rs, 1, c)


def _assert_certified(mats, solutions):
    """Each (value, Seeker mix, Hider mix) certifies against its game to
    GAP_TOL, recomputed by the oracle."""
    for A, (v, y, z) in zip(mats, solutions):
        assert max(best_response_gap(A, v, y, z)) <= mg.GAP_TOL


def _solved(sols):
    """The (value, Seeker mix, Hider mix) of each GameSolution."""
    return [(sol.value, sol.row_strategy, sol.col_strategy) for sol in sols]


# solve_games, the stacked simplex. The tests named test_game_values_* keep
# the name its value-only predecessor had, so their history stays traceable.

def _solve_by_shape(mats):
    """Each game's (value, Seeker mix, Hider mix) from solve_games, one
    stack per shape, in the order of mats."""
    sols = [None] * len(mats)
    for shape in {A.shape for A in mats}:
        games = [g for g, A in enumerate(mats) if A.shape == shape]
        for g, sol in zip(games, zip(*mg.solve_games(np.stack([mats[g] for g in games])))):
            sols[g] = sol
    return sols


def test_solve_games_match_solve_zero_sum_on_small_randoms():
    rng = np.random.default_rng(31)
    mats = [
        rng.uniform(-4, 4, size=(int(rng.integers(1, 7)), int(rng.integers(1, 5))))
        for _ in range(60)
    ]
    sols = _solve_by_shape(mats)
    _assert_certified(mats, sols)
    for A, (v, _, _) in zip(mats, sols):
        assert v == pytest.approx(hs.solve_zero_sum(A).value, abs=1e-9)


def _mixed_shapes():
    rng = np.random.default_rng(61)
    shapes = [(1, 4), (5, 1), (2, 2), (6, 3), (120, 5), (720, 6), (720, 6), (720, 6), (6, 3)]
    mats = [rng.uniform(-4, 4, size=shape) for shape in shapes]
    mats.append(np.full((4, 3), 2.5))
    base = rng.uniform(-4, 4, size=(5, 4))
    mats.append(base[[0, 1, 1, 2, 3, 4, 4]][:, [0, 1, 1, 2, 3, 3]])
    mats.extend(_small_shapes())
    return mats


def _small_shapes():
    """One row, one column and a mixed 2x2 reveal-stage subgame."""
    return [
        np.array([[1.0, 5.0, 3.0]]),
        np.array([[1.0], [5.0], [3.0]]),
        np.array([[2.4142, 3.4142], [4.4142, 1.4142]]),
    ]


def test_game_value_fast_paths():
    mats = _small_shapes()
    for values in ([hs.solve_zero_sum(A).value for A in mats], [v for v, _, _ in _solve_by_shape(mats)]):
        assert values[0] == 5.0
        assert values[1] == 1.0
        assert values[2] == pytest.approx(2.9142, abs=1e-4)


def test_game_values_match_solve_zero_sum_on_mixed_shapes():
    mats = _mixed_shapes()
    sols = _solve_by_shape(mats)
    _assert_certified(mats, sols)
    for A, (v, _, _) in zip(mats, sols):
        assert abs(v - hs.solve_zero_sum(A).value) <= 1e-9 * np.abs(A).max()


def _highs_solution(A):
    """HiGHS's own solution of A, cleaned and certified as _solve cleans and
    certifies it: (value, Seeker mix, Hider mix)."""
    failure, x, duals = mg._col_lp(A)
    assert failure is None
    y, z = mg._certify(A[None], np.array([np.abs(A).max()]), x[-1:], -duals[None], x[None, :-1])[:2]
    return x[-1] + 0.0, y[0], z[0]


def _assert_solution(sol, expect):
    assert sol.value == expect[0]
    np.testing.assert_array_equal(sol.row_strategy, expect[1])
    np.testing.assert_array_equal(sol.col_strategy, expect[2])


def test_solve_zero_sum_sends_slack_and_unproven_games_to_highs(monkeypatch):
    # the simplex goes first; a slack simplex certificate sends the game to
    # HiGHS, and so does a certified game that the gate does not prove to
    # have one equilibrium; where HiGHS's certificate is then slack, the
    # simplex's certified solution stands
    unique = _mixed_shapes()[3]  # a random 6 x 3 game: its equilibrium is unique
    tied = _presolve_reducible()["duplicate_columns"]  # certified, but its Hider mixes form a set
    simplex = {name: [x[0] for x in mg.solve_games(A[None])] for name, A in (("unique", unique), ("tied", tied))}
    highs = {"unique": _highs_solution(unique), "tied": _highs_solution(tied)}
    _assert_certified([unique, tied, unique, tied], [*simplex.values(), *highs.values()])
    real_certify = mg._certify
    slack = []  # which certificates, in call order, are made slack

    def certify(S, scale, v, y, z, unique=False):
        y, z, row_gap, col_gap, ok = real_certify(S, scale, v, y, z, unique)
        if slack.pop(0):
            return y, z, row_gap + 1.0, col_gap, ok & False
        return y, z, row_gap, col_gap, ok

    monkeypatch.setattr(mg, "_certify", certify)
    reached = _spy_highs(monkeypatch)
    slack[:] = [False]
    _assert_solution(hs.solve_zero_sum(unique), simplex["unique"])
    assert reached == [] and slack == []
    slack[:] = [True, False]  # the simplex's certificate is slack
    sol = hs.solve_zero_sum(unique)
    assert len(reached) == 1 and np.array_equal(reached[0], unique) and slack == []
    _assert_solution(sol, highs["unique"])
    assert (sol.row_gap, sol.col_gap) == pytest.approx(_recomputed_gaps(unique, sol), abs=1e-15)

    slack[:] = [False, False]
    _assert_solution(hs.solve_zero_sum(tied), highs["tied"])
    assert len(reached) == 2 and np.array_equal(reached[1], tied) and slack == []
    slack[:] = [False, True]  # HiGHS's certificate is slack: the simplex's stands
    _assert_solution(hs.solve_zero_sum(tied), simplex["tied"])
    assert len(reached) == 3 and slack == []
    assert np.abs(simplex["tied"][2] - highs["tied"][2]).max() > 1e-3  # two vertices of the set


def test_solve_zero_sum_raises_when_both_solvers_are_slack(monkeypatch):
    # no certificate passes a negative tolerance, HiGHS's or the simplex's
    simplexed = []
    real_simplex = mg._simplex
    monkeypatch.setattr(mg, "_simplex", lambda S, scale: simplexed.append(S) or real_simplex(S, scale))
    monkeypatch.setattr(mg, "GAP_TOL", -1.0)
    with pytest.raises(hs.SolverError, match="certification"):
        hs.solve_zero_sum(_mixed_shapes()[3])
    assert len(simplexed) == 1


def test_solve_zero_sum_falls_back_when_the_column_lp_fails(monkeypatch):
    # HiGHS stops at its iteration limit, before an optimal basis: the game
    # goes on to the simplex, and solve_zero_sum returns what solve_games
    # returns; when the simplex fails too, the error names HiGHS's status
    A = _mixed_shapes()[5]
    expect = mg.solve_games(A[None])
    monkeypatch.setitem(mg._HIGHS_OPTIONS, "simplex_iteration_limit", 0)
    assert mg._col_lp(A) == ("Iteration limit reached", None, None)
    v, y, z, failures = mg._highs(A[None], np.array([np.abs(A).max()]))
    assert np.isnan(v).all() and not y.any() and not z.any() and failures == {0: "Iteration limit reached"}
    sol = hs.solve_zero_sum(A)
    assert sol.value == expect[0][0]
    np.testing.assert_array_equal(sol.row_strategy, expect[1][0])
    np.testing.assert_array_equal(sol.col_strategy, expect[2][0])
    _assert_certified([A], _solved([sol]))
    monkeypatch.setattr(mg, "_MAX_PIVOTS", 0)  # the simplex leaves every game open
    with pytest.raises(hs.SolverError, match="column LP failed: Iteration limit reached; solution failed"):
        hs.solve_zero_sum(A)


def test_the_column_lp_reports_a_model_highs_refuses():
    # HiGHS refuses matrix entries of 1e15 and more
    A = np.array([[1e300, 1.0], [0.5, 2.0]])
    assert mg._col_lp(A) == ("Model error", None, None)


# the uniqueness gate: solve_zero_sum keeps the simplex's solution, and
# makes no HiGHS LP, only where strict complementarity and a nonsingular
# support block prove the equilibrium unique

def _gate(A):
    """Whether the gate passes the simplex's certified solution of A."""
    S = A[None]
    scale = mg._scales(S)
    v, y, z, _ = mg._simplex(S, scale)
    return bool(mg._certify(S, scale, v, y, z, unique=True)[4][0])


def test_a_unique_mixed_equilibrium_makes_no_highs_lp(monkeypatch):
    made = _recorded_highs(monkeypatch)
    A = np.array([[2.4142, 3.4142], [4.4142, 1.4142]])
    sol = hs.solve_zero_sum(A)
    assert made == []
    den = A[0, 0] + A[1, 1] - A[0, 1] - A[1, 0]
    assert sol.value == pytest.approx((A[0, 0] * A[1, 1] - A[0, 1] * A[1, 0]) / den, abs=1e-12)
    np.testing.assert_allclose(sol.row_strategy, [(A[1, 1] - A[1, 0]) / den, (A[0, 0] - A[0, 1]) / den], atol=1e-12)
    np.testing.assert_allclose(sol.col_strategy, [(A[1, 1] - A[0, 1]) / den, (A[0, 0] - A[1, 0]) / den], atol=1e-12)


def test_duplicated_hider_columns_go_to_highs(monkeypatch):
    A = np.array([[2.4142, 3.4142, 3.4142], [4.4142, 1.4142, 1.4142]])
    expect = _highs_solution(A)
    calls = _spy_col_lp(monkeypatch)
    _assert_solution(hs.solve_zero_sum(A), expect)
    assert len(calls) == 1
    assert not _gate(A) and _gate(A[:, :2])


def test_an_off_support_row_inside_the_margin_goes_to_highs(monkeypatch):
    # the third row loses by 1e-12 against the Hider's (1/2, 1/2): the
    # equilibrium is unique, but the gate asks for a loss of 1e-9 max|A|
    near = np.array([[1.0, -1.0], [-1.0, 1.0], [1e-12, 1e-12]])
    far = np.array([[1.0, -1.0], [-1.0, 1.0], [1e-6, 1e-6]])
    calls = _spy_col_lp(monkeypatch)
    for A, highs in ((near, 1), (far, 0)):
        sol = hs.solve_zero_sum(A)
        assert len(calls) == highs and sol.value == pytest.approx(0.0, abs=1e-15)
        np.testing.assert_allclose(sol.col_strategy, [0.5, 0.5], atol=1e-12)
        calls.clear()


@pytest.mark.parametrize("a, b", [(1.0, 1.0), (1.559, 2.117)])
def test_a_singular_support_block_goes_to_highs(a, b, monkeypatch):
    # the game [[a, b, m], [b, a, m], [m, m, m]], m = (a + b) / 2, solved
    # with both mixes at (1/4, 1/4, 1/2): every strategy is in its support,
    # so strict complementarity holds, but the third row and column are the
    # means of the others, so the support block [S_RC, -1; 1^T, 0] is
    # singular and the optimal mixes form a set. At a = b the inverse
    # raises; at (1.559, 2.117) round-off leaves a pivot near 1e-16 and an
    # inverse with entries near 9e15, which does not give the mixes back
    m = (a + b) / 2
    A = np.array([[a, b, m], [b, a, m], [m, m, m]])
    S, scale, v = A[None], np.array([max(a, b)]), np.array([m])
    w = np.array([[0.25, 0.25, 0.5]])
    y, z, row_gap, col_gap, ok = mg._certify(S, scale, v, w.copy(), w.copy())
    assert ok[0] and max(row_gap[0], col_gap[0]) <= 1e-15
    assert not mg._unique(S, scale, v, y, z, y @ A, z @ A.T, ok)[0]
    expect = _highs_solution(A)
    monkeypatch.setattr(mg, "_simplex", lambda S, scale: (v.copy(), w.copy(), w.copy(), {}))
    calls = _spy_col_lp(monkeypatch)
    _assert_solution(hs.solve_zero_sum(A), expect)
    assert len(calls) == 1


def _tie_heavy_games(data):
    """A small integer game with repeated rows and columns, at a drawn scale."""
    m, k = data.draw(st.integers(1, 6)), data.draw(st.integers(1, 5))
    top = data.draw(st.sampled_from([1, 2, 4]))
    base = np.array(data.draw(st.lists(st.integers(-top, top), min_size=m * k, max_size=m * k)), dtype=float)
    rows = data.draw(st.lists(st.integers(0, m - 1), min_size=m, max_size=2 * m), label="rows")
    cols = data.draw(st.lists(st.integers(0, k - 1), min_size=k, max_size=2 * k), label="cols")
    return data.draw(st.sampled_from([1.0, 0.37, 1e-6, 1e5])) * base.reshape(m, k)[rows][:, cols]


def _assert_highs_agrees(A):
    """HiGHS's value within 1e-9 max|A| of the simplex's, and both of its
    mixes within 1e-9 of the simplex's."""
    v, y, z = (x[0] for x in mg.solve_games(A[None]))
    hv, hy, hz = _highs_solution(A)
    assert abs(hv - v) <= 1e-9 * np.abs(A).max()
    assert np.abs(hy - y).max() <= 1e-9 and np.abs(hz - z).max() <= 1e-9


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(data=st.data())
def test_where_the_gate_passes_highs_agrees(data):
    A = _tie_heavy_games(data)
    if _gate(A):
        _assert_highs_agrees(A)


def test_the_gate_passes_many_random_integer_games():
    # the hypothesis test above checks only the games that pass: here a
    # fixed draw of tie-heavy games, about two fifths of which pass
    rng = np.random.default_rng(97)
    passed = 0
    for _ in range(400):
        A = rng.integers(-2, 3, size=(rng.integers(1, 7), rng.integers(1, 6))).astype(float)
        if rng.random() < 0.3:  # a repeated column
            A = A[:, rng.integers(0, A.shape[1], size=A.shape[1] + 1)]
        if _gate(A):
            passed += 1
            _assert_highs_agrees(A)
    assert passed >= 120


def test_the_benchmark_game8_commands_make_one_highs_lp(tmp_path, capsys, monkeypatch):
    # seed-1 n = 8: the restricted t = 2, c = 1 game, solved by solve, voi
    # and simulate, has a unique equilibrium; the base game's mixes form a set
    path = tmp_path / "n8.json"
    workloads.write_instance(path, 8, 1)
    calls = _spy_col_lp(monkeypatch)
    for argv in workloads.workload("game8", str(path)).commands:
        assert cli.main(list(argv)) == 0
    capsys.readouterr()
    assert len(calls) == 1 and np.array_equal(calls[0], _seed1_8_games()["base"])
    assert _gate(_seed1_8_games()["switch"]) and _gate(_seed1_8_games()["feedback"])


@pytest.mark.parametrize("seed", [1, 2])
def test_c0_feedback_games_whose_mixes_form_a_set_go_to_highs(seed, monkeypatch):
    # at c = 0 a prefix row's unvisited cells tie, and on some games the
    # Hider's optimal mixes form a set, from which round-off picks HiGHS's
    # vertex; the gate sends each of those to HiGHS, so solve_zero_sum
    # prints HiGHS's vertex there, as it did before the simplex went first
    rs = hs.enumerate_routes(8)
    A = hs.base_matrix(hs.make_instance(**workloads.make_instance(8, seed)), rs)
    calls = _spy_col_lp(monkeypatch)
    sets = 0
    for t in range(1, 6):  # up to 6,720 prefixes
        for convention in ("total", "remaining"):
            F = hs.feedback_matrix(A, rs, hs.SwitchConfig(t, 0.0, convention))
            calls.clear()
            sol = hs.solve_zero_sum(F)
            if oracles.hider_mix_spread(F, sol.value) > 1e-6:
                sets += 1
                assert len(calls) == 1, (t, convention)
                _assert_solution(sol, _highs_solution(F))
            elif not calls:  # the gate passed: the Hider's mix is the one optimal mix
                assert oracles.hider_mix_spread(F, sol.value) <= 1e-6
    assert sets >= 3  # t = 1 and 2 under total and t = 5 under remaining


# _lp_columns builds _col_lp's LP one column at a time, with the arrays the
# dense build gave (oracles.col_lp_dense)

def _assert_lp_columns_match_the_dense_build(A):
    for got, want in zip(mg._lp_columns(A), oracles.col_lp_dense(A), strict=True):
        assert got.dtype == want.dtype and np.array_equal(got, want)


@pytest.mark.parametrize("name", ["three_sites", "six_sites", "collinear_three"])
def test_lp_columns_match_the_dense_build_on_bundled_games(name):
    inst = hs.load_instance(ROOT / "instances" / f"{name}.json")
    rs = hs.enumerate_routes(inst.n)
    A = hs.base_matrix(inst, rs)
    _assert_lp_columns_match_the_dense_build(A)
    for t in range(1, inst.n):
        for c in (0.0, 1.0):
            cfg = hs.SwitchConfig(t, c)
            _assert_lp_columns_match_the_dense_build(hs.switch_matrix(A, rs, cfg))
            _assert_lp_columns_match_the_dense_build(hs.feedback_matrix(A, rs, cfg))


def test_lp_columns_match_the_dense_build_on_seeded_and_zero_games():
    games = [*_seed1_8_games().values(), *_mixed_shapes(), *_presolve_reducible().values()]
    zeros = np.array([[0.0, -0.0, 2.0], [1.5, 0.0, -0.0], [-0.0, 0.0, 0.0], [3.0, -1.0, 0.0]])
    games += [zeros, zeros[:, 1:], np.zeros((3, 2))]
    for A in games:
        _assert_lp_columns_match_the_dense_build(A)
    for A in games[-3:-1]:
        _assert_col_lp_matches_linprog(A)


def _lp_bound_stacks(inst, t, c):
    """For each start location, the stack of its reveal-stage subgames (one
    per prefix) that no pure saddle closes: the games feedback_matrix leaves
    to solve_games."""
    rs = hs.enumerate_routes(inst.n)
    A = hs.base_matrix(inst, rs)
    first = np.arange(0, rs.m, hs.prefix_block(rs, t))
    for i in range(1, inst.n + 1):
        h = np.flatnonzero(rs.position_matrix[first, i - 1] > t)
        S = hs.subgame_matrix(A, rs, t, h, i, c)
        yield S[mg._first_saddle(S) < 0]


def _assert_values_match_full_lp(S):
    G, m, k = S.shape
    values, y, z = mg.solve_games(S)
    assert (values.shape, y.shape, z.shape) == ((G,), (G, m), (G, k))
    scale = np.abs(S).max(axis=(1, 2)) if len(S) else 0.0
    assert (np.abs(values - full_lp_values(S)) <= 1e-12 * scale).all()
    _assert_certified(S, zip(values, y, z))


@pytest.mark.parametrize("name", ["three_sites", "six_sites", "collinear_three"])
def test_game_values_match_full_lp_on_bundled_subgames(name):
    inst = hs.load_instance(ROOT / "instances" / f"{name}.json")
    for t in range(1, inst.n):
        for c in (0.0, 0.5, 1.0, 3.0):
            for S in _lp_bound_stacks(inst, t, c):
                _assert_values_match_full_lp(S)


@pytest.mark.parametrize("n, t", [(6, 1), (6, 2), (6, 3), (7, 1), (7, 2), (8, 1), (8, 2)])
def test_game_values_match_full_lp_on_seeded_instances(n, t):
    inst = random_instance(np.random.default_rng(3), n)
    for c in (0.5,) if n == 8 else (0.0, 1.0):
        for S in _lp_bound_stacks(inst, t, c):
            _assert_values_match_full_lp(S)


def test_game_values_of_short_stacks_are_the_full_lp_values():
    # the simplex reads each value off its own basis, not HiGHS's, so the
    # two agree to round-off rather than bit for bit
    rng = np.random.default_rng(71)
    for m in (1, 2, 17, 48):
        S = rng.uniform(-4, 4, size=(5, m, 4))
        tol = 1e-12 * np.abs(S).max(axis=(1, 2))
        assert (np.abs(mg.solve_games(S)[0] - full_lp_values(S)) <= tol).all()


def test_game_values_of_an_empty_stack():
    for G, m, k in ((0, 720, 6), (0, 3, 2)):
        values, y, z = mg.solve_games(np.empty((G, m, k)))
        assert (values.shape, y.shape, z.shape) == ((0,), (0, m), (0, k))
        assert values.dtype == y.dtype == z.dtype == float


def test_game_values_validate_the_stack():
    with pytest.raises(ValueError, match="stack"):
        mg.solve_games(np.zeros((3, 4)))
    with pytest.raises(ValueError, match="degenerate"):
        mg.solve_games(np.zeros((2, 0, 3)))
    S = np.zeros((2, 60, 3))
    S[1, 59, 2] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        mg.solve_games(S)


def _spy_highs(monkeypatch):
    """The games solve_games hands to HiGHS, one LP each."""
    real_highs = mg._highs
    alone = []

    def spy_highs(S, scale):
        alone.extend(S)
        return real_highs(S, scale)

    monkeypatch.setattr(mg, "_highs", spy_highs)
    return alone


def _spy_col_lp(monkeypatch):
    """The games handed to _col_lp, one HiGHS LP each."""
    real_col_lp = mg._col_lp
    calls = []

    def spy_col_lp(A):
        calls.append(A)
        return real_col_lp(A)

    monkeypatch.setattr(mg, "_col_lp", spy_col_lp)
    return calls


def test_game_values_certify_against_the_full_matrix(monkeypatch):
    S = next(S for S in _lp_bound_stacks(random_instance(np.random.default_rng(2), 7), 1, 1.0) if len(S))
    real_certify = mg._certify
    solution = {}  # game -> its latest (full matrix, y, z, v, row gap, col gap)

    def spy_certify(stack, scale, v, y, z):
        y, z, row_gap, col_gap, ok = real_certify(stack, scale, v, y, z)
        for g in range(len(stack)):
            solution[g] = (stack[g], y[g], z[g], v[g], row_gap[g], col_gap[g])
        return y, z, row_gap, col_gap, ok

    monkeypatch.setattr(mg, "_certify", spy_certify)
    values, ys, zs = mg.solve_games(S)
    # each game's certificate, the one it closed on, is the solution
    # returned, against the full matrix, within GAP_TOL both ways
    assert sorted(solution) == list(range(len(S)))
    for g, (A, y, z, v, row_gap, col_gap) in solution.items():
        assert A.shape == S.shape[1:] and np.array_equal(A, S[g])
        assert v == values[g] and max(row_gap, col_gap) <= mg.GAP_TOL
        assert np.array_equal(y, ys[g]) and np.array_equal(z, zs[g])
        assert max(best_response_gap(A, v, y, z)) <= mg.GAP_TOL


def test_game_values_raise_on_a_slack_full_certificate(monkeypatch):
    S = np.random.default_rng(73).uniform(-4, 4, size=(3, 300, 5))
    real_certify = mg._certify

    def slack_on_full_matrix(stack, scale, v, y, z):
        # every full-matrix column gap is slack, also once HiGHS has solved
        # the games again
        y, z, row_gap, col_gap, ok = real_certify(stack, scale, v, y, z)
        return y, z, row_gap, np.ones_like(col_gap), np.zeros_like(ok)

    monkeypatch.setattr(mg, "_certify", slack_on_full_matrix)
    alone = _spy_highs(monkeypatch)
    with pytest.raises(hs.SolverError, match="certification"):
        mg.solve_games(S)
    assert len(alone) == 3


def test_game_values_solve_a_slack_game_again_through_solve_games(monkeypatch):
    S = np.random.default_rng(83).uniform(-4, 4, size=(4, 300, 5))
    expect = mg.solve_games(S)[0]
    real_certify = mg._certify
    first = []

    def slack_first_game(stack, scale, v, y, z):
        y, z, row_gap, col_gap, ok = real_certify(stack, scale, v, y, z)
        if not first:
            first.append(len(stack))
            row_gap[0], ok[0] = 1.0, False  # game 0's first certificate is slack
        return y, z, row_gap, col_gap, ok

    monkeypatch.setattr(mg, "_certify", slack_first_game)
    alone = _spy_highs(monkeypatch)
    values = mg.solve_games(S)[0]
    assert first == [4]  # every game certified at once
    assert len(alone) == 1
    np.testing.assert_array_equal(alone[0], S[0])  # game 0, its full matrix
    np.testing.assert_allclose(values, expect, rtol=0, atol=1e-9 * np.abs(S).max())


def _spy_pivots(monkeypatch):
    """Each pivot round of _simplex, as the basis lists and inverses of the
    games it pivots, recorded once _pivot has updated them."""
    real_pivot = mg._pivot
    pivots = []

    def spy_pivot(inv, basis, D, p, q):
        real_pivot(inv, basis, D, p, q)
        pivots.append((basis.copy(), inv.copy()))

    monkeypatch.setattr(mg, "_pivot", spy_pivot)
    return pivots


def _basis_matrix(A, basis):
    """The basis matrix of A's Seeker LP, A divided by its max|A|, for the
    variables basis (rows 0..m-1, slacks m..m+k-1, w m+k), in _simplex's
    numbering."""
    m, k = A.shape
    lp = np.zeros((k + 1, m + k + 1))  # the LP's columns: [S^T / max|A|, I, -1; 1^T, 0, 0]
    lp[:k, :m], lp[k, :m] = A.T / np.abs(A).max(), 1.0
    lp[:k, m : m + k] = np.eye(k)
    lp[:k, m + k] = -1.0
    return lp[:, basis]


def _drift(A, basis, inv):
    """How far a maintained inverse is from a fresh inverse of its basis,
    relative to the fresh inverse's largest entry."""
    fresh = np.linalg.inv(_basis_matrix(A, basis))
    return np.abs(inv - fresh).max() / np.abs(fresh).max()


def test_game_values_solve_the_games_of_a_failed_batch_alone(monkeypatch):
    # one game whose inverse turns NaN in the stack fails its own game only
    S = np.random.default_rng(89).uniform(-4, 4, size=(6, 300, 5))
    expect = mg.solve_games(S)[0]
    real_pivot = mg._pivot
    broken = []

    def break_second_game(inv, basis, D, p, q):
        real_pivot(inv, basis, D, p, q)
        if not broken:
            broken.append(len(inv))
            inv[1] = np.nan

    monkeypatch.setattr(mg, "_pivot", break_second_game)
    alone = _spy_highs(monkeypatch)
    values = mg.solve_games(S)[0]
    assert broken == [6] and len(alone) == 1
    np.testing.assert_array_equal(alone[0], S[1])
    np.testing.assert_allclose(values, expect, rtol=0, atol=1e-9 * np.abs(S).max())


def test_pivot_updates_each_inverse_of_the_stack_alone():
    # the rank-one update gives the inverse of the new basis, game by game:
    # a game whose inverse is NaN leaves the others as they are
    rng = np.random.default_rng(7)
    B = rng.uniform(-1, 1, size=(3, 4, 4)) + 4 * np.eye(4)
    a = rng.uniform(-1, 1, size=(3, 4))
    inv = np.linalg.inv(B)
    inv[1] = np.nan
    basis = np.tile(np.arange(4), (3, 1))
    p, q = np.array([0, 2, 3]), np.array([7, 8, 9])
    mg._pivot(inv, basis, np.einsum("gij,gj->gi", inv, a), p, q)
    np.testing.assert_array_equal(basis, [[7, 1, 2, 3], [0, 1, 8, 3], [0, 1, 2, 9]])
    for g in (0, 2):
        B[g, :, p[g]] = a[g]
        np.testing.assert_allclose(inv[g], np.linalg.inv(B[g]), rtol=1e-12, atol=1e-12)
    assert np.isnan(inv[1]).all()


def test_game_values_never_re_add_active_rows(monkeypatch):
    # a basic row or slack never enters the basis again: every basis holds
    # k + 1 distinct variables, and the loop stops within the pivot cap
    S = np.random.default_rng(79).uniform(-4, 4, size=(4, 400, 5))
    pivots = _spy_pivots(monkeypatch)
    alone = _spy_highs(monkeypatch)
    values = mg.solve_games(S)[0]
    assert alone == [] and 0 < len(pivots) <= mg._MAX_PIVOTS
    for basis, _ in pivots:
        for b in basis:
            assert len(np.unique(b)) == len(b)
    np.testing.assert_allclose(values, full_lp_values(S), rtol=0, atol=1e-12 * np.abs(S).max())


def test_the_simplex_runs_one_lapack_inverse_per_stack(monkeypatch):
    # the start bases' inverses are written out, every pivot updates them
    # in place, and one LAPACK call inverts the optimal bases of the games
    # that closed, for their solutions
    S = np.random.default_rng(79).uniform(-4, 4, size=(4, 400, 5))
    real_inv, real_pivot = np.linalg.inv, mg._pivot
    inverted, starts = [], []
    monkeypatch.setattr(np.linalg, "inv", lambda B: inverted.append(B.shape) or real_inv(B))

    def spy_pivot(inv, basis, D, p, q):
        starts.append((basis.copy(), inv.copy()))
        real_pivot(inv, basis, D, p, q)

    monkeypatch.setattr(mg, "_pivot", spy_pivot)
    v = mg._simplex(S, mg._scales(S))[0]
    assert inverted == [(4, 6, 6)] and len(starts) > 5 and np.isfinite(v).all()
    basis, inv = starts[0]
    for g in range(4):
        fresh = real_inv(_basis_matrix(S[g], basis[g]))
        np.testing.assert_allclose(inv[g], fresh, rtol=0, atol=1e-15 * np.abs(fresh).max())


def test_game_values_send_games_past_the_pivot_cap_to_solve_games(monkeypatch):
    # games the simplex leaves open go to HiGHS, one at a time
    S = np.random.default_rng(97).uniform(-4, 4, size=(3, 200, 5))
    S[2] = np.arange(5.0)  # a constant-column game closes at its start
    monkeypatch.setattr(mg, "_MAX_PIVOTS", 1)
    alone = _spy_highs(monkeypatch)
    values = mg.solve_games(S)[0]
    assert len(alone) == 2
    np.testing.assert_array_equal(alone[0], S[0])
    np.testing.assert_array_equal(alone[1], S[1])
    np.testing.assert_allclose(values, full_lp_values(S), rtol=0, atol=1e-12 * np.abs(S).max())


def test_game_values_raise_when_solve_games_cannot_certify_either(monkeypatch):
    # no certificate passes a negative tolerance, the simplex's or HiGHS's
    S = np.random.default_rng(73).uniform(-4, 4, size=(3, 300, 5))
    monkeypatch.setattr(mg, "GAP_TOL", -1.0)
    alone = _spy_highs(monkeypatch)
    with pytest.raises(hs.SolverError, match="certification"):
        mg.solve_games(S)
    assert len(alone) == 3


# hsbench.workloads.make_instance(7, 2), whose LP-bound reveal-stage subgames
# at t = 2, c = 1 include a degenerate one that Bland's rule must close
CYCLING_7 = ((0.986, 2.46), [(1.931, 0.347), (1.787, 3.692), (4.585, 4.257), (2.287, 0.39),
                             (3.256, 3.218), (0.914, 3.032), (0.084, 1.383)])


def _feedback_stacks(inst, t, c, monkeypatch):
    """The stacks feedback_matrix hands to solve_games, in order."""
    real_solve_games = hs.payoff.solve_games
    stacks = []

    def spy_solve_games(S):
        stacks.append(S)
        return real_solve_games(S)

    monkeypatch.setattr(hs.payoff, "solve_games", spy_solve_games)
    rs = hs.enumerate_routes(inst.n)
    hs.feedback_matrix(hs.base_matrix(inst, rs), rs, hs.SwitchConfig(t, c))
    monkeypatch.undo()
    return stacks


def test_game_values_close_a_degenerate_game_by_blands_rule(monkeypatch):
    stall_pivots = mg._STALL_PIVOTS
    (stack,) = _feedback_stacks(hs.make_instance(*CYCLING_7), 2, 1.0, monkeypatch)
    A = stack[31]  # the 32nd LP-bound subgame
    assert A.shape == (120, 5)
    expect = hs.solve_zero_sum(A).value
    assert expect == pytest.approx(10.2974586, abs=1e-7)
    pivots = _spy_pivots(monkeypatch)
    monkeypatch.setattr(mg, "_STALL_PIVOTS", 0)  # Bland's rule from the first pivot
    v, y, z, failures = mg._simplex(A[None], np.array([np.abs(A).max()]))
    assert failures == {}
    assert np.isfinite(v).all() and len(pivots) == 41  # 41 pivots to the optimal basis
    # the inverse updated over the 41 pivots is a fresh inverse of the optimal basis
    basis, inv = pivots[-1]
    assert _drift(A, basis[0], inv[0]) <= 1e-12
    _, _, row_gap, col_gap, _ = mg._certify(A[None], np.array([np.abs(A).max()]), v, y, z)
    assert max(row_gap[0], col_gap[0]) <= 1e-14 * np.abs(A).max()
    assert abs(v[0] - expect) <= 1e-12 * np.abs(A).max()
    monkeypatch.setattr(mg, "_STALL_PIVOTS", stall_pivots)
    np.testing.assert_allclose(mg.solve_games(A[None])[0], [expect], rtol=0, atol=1e-12 * np.abs(A).max())


# switch games of default sweeps of hsbench.workloads.make_instance(n, seed),
# as (n, seed, t, index of the cost in sweep's 25-cost grid), that were still
# open after 500 pivots, and went to HiGHS, while a game kept Bland's rule for
# good after 16 zero-step pivots in a row; with the rule worked out afresh at
# each pivot but taken up after 16, the second took 643 pivots
SWEEP_GAMES = {"seed1_n8_t4_c8.585": (8, 1, 4, 7), "seed3_n7_t2_c12.339": (7, 3, 2, 12)}


def _sweep_switch_game(name):
    """The switch game SWEEP_GAMES names."""
    n, seed, t, index = SWEEP_GAMES[name]
    inst = hs.make_instance(**workloads.make_instance(n, seed))
    rs = hs.enumerate_routes(n)
    A = hs.base_matrix(inst, rs)
    c = np.linspace(0.0, 1.2 * hs.cstar_global(hs.cstar(A, rs, 1, "route")), 25)[index]
    return hs.switch_matrix(A, rs, hs.SwitchConfig(t, float(c)))


@pytest.mark.parametrize("name", sorted(SWEEP_GAMES))
def test_sweep_switch_games_close_by_the_simplex_alone(name, monkeypatch):
    S = _sweep_switch_game(name)[None]
    pivots = _spy_pivots(monkeypatch)
    alone = _spy_highs(monkeypatch)
    v = mg.solve_games(S)[0]
    assert alone == [] and len(pivots) <= 100
    np.testing.assert_allclose(v, [hs.solve_zero_sum(S[0]).value], rtol=1e-9, atol=0)


def test_the_updated_inverse_holds_up_to_the_pivot_cap(monkeypatch):
    # under Bland's rule from the first pivot, the seed-3 n = 7 switch game
    # is still open at the cap, beside a random game that closes early: after
    # _MAX_PIVOTS rank-one updates its inverse is within 1e-8 (relative to
    # its largest entry) of a fresh inverse of its basis, about 2e-10 here
    late = _sweep_switch_game("seed3_n7_t2_c12.339")
    S = np.stack([np.random.default_rng(3).uniform(-4, 4, size=late.shape), late])
    pivots = _spy_pivots(monkeypatch)
    monkeypatch.setattr(mg, "_STALL_PIVOTS", 0)
    v = mg._simplex(S, mg._scales(S))[0]
    assert np.isfinite(v[0]) and np.isnan(v[1]) and len(pivots) == mg._MAX_PIVOTS
    basis, inv = pivots[-1]
    assert len(basis) == 1 and _drift(late, basis[0], inv[0]) <= 1e-8


def test_games_that_close_or_leave_at_different_pivots_raise_no_warning(monkeypatch):
    # a game closed at its start basis, one closed after a few pivots and
    # one left open by the cap: the games that close or leave are dropped
    # before the update, so none divides by a zero pivot element
    late = _sweep_switch_game("seed3_n7_t2_c12.339")
    closed = np.add.outer(np.arange(late.shape[0], dtype=float), np.arange(late.shape[1], dtype=float))
    S = np.stack([closed, np.random.default_rng(3).uniform(-4, 4, size=late.shape), late])
    alone = [mg._simplex(S[g : g + 1], mg._scales(S[g : g + 1])) for g in range(2)]
    pivots = _spy_pivots(monkeypatch)
    monkeypatch.setattr(mg, "_MAX_PIVOTS", 30)  # the late game takes 39
    with np.errstate(divide="raise", invalid="raise", over="raise"):
        v, y, z, _ = mg._simplex(S, mg._scales(S))
    counts = [len(basis) for basis, _ in pivots]
    assert len(counts) == 30 and counts[0] == 2 and counts[-1] == 1
    assert np.isnan(v[2]) and not y[2].any()
    for g in range(2):
        for got, want in zip((v, y, z), alone[g]):
            assert np.array_equal(got[g], want[0])


def _pivot_counts(S, monkeypatch):
    """The pivot rounds _simplex makes while it solves the stack S."""
    pivots = _spy_pivots(monkeypatch)
    mg.solve_games(S)
    monkeypatch.undo()
    return len(pivots)


def test_solve_games_gives_each_game_the_same_bits_in_any_stack(monkeypatch):
    # sweep and feedback_matrix stack games by shape and size, not by cell:
    # a game's value and mixes must not depend on the games beside it, its
    # place in the stack, a neighbour's Bland run or one closed at pivot 0
    n, seed, t, index = SWEEP_GAMES["seed3_n7_t2_c12.339"]
    inst = hs.make_instance(**workloads.make_instance(n, seed))
    rs = hs.enumerate_routes(n)
    A = hs.base_matrix(inst, rs)
    grid = np.linspace(0.0, 1.2 * hs.cstar_global(hs.cstar(A, rs, 1, "route")), 25)
    bland = hs.switch_matrix(A, rs, hs.SwitchConfig(t, float(grid[index])))
    # a saddle at (0, k-1), on the start basis: the row of least row maximum
    closed = np.add.outer(np.arange(rs.m, dtype=float), np.arange(n, dtype=float))
    assert _pivot_counts(closed[None], monkeypatch) == 0
    assert _pivot_counts(bland[None], monkeypatch) > 32  # past _STALL_PIVOTS zero-step pivots
    games = [A, bland, closed] + [
        hs.switch_matrix(A, rs, hs.SwitchConfig(t, float(c), convention))
        for t, c, convention in [(1, grid[3], "total"), (3, grid[8], "remaining"), (5, grid[20], "total")]
    ]
    alone = [mg.solve_games(S[None]) for S in games]
    stacks = {
        "stack": (np.stack(games), range(len(games))),
        "reversed": (np.stack(games[::-1]), range(len(games) - 1, -1, -1)),
    }
    for g, S in enumerate(games):
        stacks[f"{g} next to the Bland run"] = (np.stack([S, bland]), [g, None])
        stacks[f"{g} next to pivot 0"] = (np.stack([closed, S]), [None, g])
    # more than half of the stack closes at pivot 0, and the open games, each
    # twice and one in each pair, are priced from copies of a few of them,
    # in three chunks or more
    late = [g for g in range(len(games)) if g != 2] * 2
    order = [g for pair in zip(late, [None] * len(late)) for g in pair] + [None]
    shifts = iter(range(len(order)))
    stacks["most closed at pivot 0"] = (np.stack([closed + next(shifts) if g is None else games[g] for g in order]), order)
    assert len(late) > 2 * (mg._PRICE_BYTES // closed.nbytes) and 2 * len(late) < len(order)
    for case, (S, order) in stacks.items():
        solution = mg.solve_games(S)
        for j, g in enumerate(order):
            if g is not None:
                for got, want in zip(solution, alone[g]):
                    assert np.array_equal(got[j], want[0]), (case, g)


def test_solve_games_copies_no_more_of_a_stack_than_its_price_cap():
    # the playout's 336 x 720 x 6 Hider-major stack, more than half of whose
    # games close at pivot 0: the open ones are priced from copies of at most
    # _PRICE_BYTES, and beside it the simplex and the certificate hold a few
    # arrays of one float per game and row, where a copy of every open game
    # took 5.5 MiB
    n, t = 8, 2
    inst = hs.make_instance(**workloads.make_instance(n, 1))
    rs = hs.enumerate_routes(n)
    A = hs.base_matrix(inst, rs)
    h, i = np.nonzero(rs.position_matrix[:: hs.prefix_block(rs, t)] > t)
    G, m, k, late = len(h), math.factorial(n - t), n - t, len(h) // 2 - 1
    S = payoff._game_stack(G, m, k)
    S[:late] = hs.subgame_matrix(A, rs, t, h[:late], i[:late] + 1, 1.0)
    S[late:] = np.add.outer(np.arange(m, dtype=float), np.arange(k, dtype=float))
    tracemalloc.start()
    try:
        v = mg.solve_games(S)[0]
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert G == 336 and (v[late:] == k - 1).all()
    assert peak <= mg._PRICE_BYTES + 4 * G * m * 8, peak


def test_a_shared_stack_gives_each_game_the_same_bits_in_any_stack(monkeypatch):
    # the LP-bound subgames of a state share its block: each gets the same
    # value and mixes alone, beside every other, in reverse, in its own
    # cost's stack, and through feedback_matrix split into stacks of one
    inst = hs.make_instance(*CYCLING_7)
    rs = hs.enumerate_routes(inst.n)
    A = hs.base_matrix(inst, rs)
    t, costs = 2, np.array([0.0, 1.0, 2.5])
    _, rep = payoff._states(rs, t)
    games, cell = payoff._subgames(A, rs, t, rep, costs)
    lp = np.flatnonzero(cell < 0)
    assert len(lp) > 100 and len(np.unique(games.block[lp])) < len(lp) // 2
    alone = [mg.solve_games(games.take(lp[j : j + 1])) for j in range(len(lp))]
    cost = games.cost[lp]
    splits = {
        "together": [np.arange(len(lp))],
        "reversed": [np.arange(len(lp))[::-1]],
        "per cost": [np.flatnonzero(cost == c) for c in costs],
    }
    for case, parts in splits.items():
        for part in parts:
            solution = mg.solve_games(games.take(lp[part]))
            for at, j in enumerate(part):
                for got, want in zip(solution, alone[j]):
                    assert np.array_equal(got[at], want[0]), (case, j)
    cfgs = [hs.SwitchConfig(t, float(c)) for c in costs]
    F = hs.feedback_matrix(A, rs, cfgs)
    monkeypatch.setattr(payoff, "_STACK_BYTES", 1)
    assert hs.feedback_matrix(A, rs, cfgs).tobytes() == F.tobytes()
    for k, cfg in enumerate(cfgs):
        assert hs.feedback_matrix(A, rs, cfg).tobytes() == np.ascontiguousarray(F[k]).tobytes()


def _hider_major(S):
    """Whether every game of the stack S keeps each column contiguous."""
    return all(np.swapaxes(S, -1, -2)[g].flags.c_contiguous for g in range(len(S)))


def test_package_stacks_are_hider_major_and_give_each_game_the_same_bits(monkeypatch):
    # every stack of games the package builds is stored Hider-major, and in
    # that layout too a game's bits do not depend on the stack around it
    seen = []
    real_solve_games = mg.solve_games

    def spy_solve_games(S):
        seen.append(S)
        return real_solve_games(S)

    monkeypatch.setattr(payoff, "solve_games", spy_solve_games)
    monkeypatch.setattr(experiments, "solve_games", spy_solve_games)
    inst = random_instance(np.random.default_rng(26), 5)
    rs = hs.enumerate_routes(5)
    A = hs.base_matrix(inst, rs)
    costs = [0.0, 0.5, 2.0]
    for mode in payoff.FEEDBACK_MODES:
        hs.sweep(inst, c_grid=costs, feedback_mode=mode)
        for t in range(1, 5):
            F = hs.feedback_matrix(A, rs, [hs.SwitchConfig(t, c, feedback_mode=mode) for c in costs])
            assert _hider_major(F), (mode, t)
    assert len(seen) > 10 and all(_hider_major(S) for S in seen)
    h, i = np.nonzero(rs.position_matrix[:: hs.prefix_block(rs, 2)] > 2)
    assert _hider_major(hs.subgame_matrix(A, rs, 2, h, i + 1, 0.5))
    assert _hider_major(hs.subgame_matrix(A, rs, 2, h[3], i[3] + 1, 0.5)[None])
    monkeypatch.undo()

    n, seed, t, index = SWEEP_GAMES["seed3_n7_t2_c12.339"]
    inst = hs.make_instance(**workloads.make_instance(n, seed))
    rs = hs.enumerate_routes(n)
    A = hs.base_matrix(inst, rs)
    grid = np.linspace(0.0, 1.2 * hs.cstar_global(hs.cstar(A, rs, 1, "route")), 25)
    bland = hs.switch_matrix(A, rs, hs.SwitchConfig(t, float(grid[index])))
    closed = np.add.outer(np.arange(rs.m, dtype=float), np.arange(n, dtype=float))
    games = [A, bland, closed, hs.switch_matrix(A, rs, hs.SwitchConfig(3, float(grid[8]), "remaining"))]

    def stack(*gs):
        S = payoff._game_stack(len(gs), rs.m, n)
        S[:] = gs
        assert _hider_major(S)
        return S

    assert _pivot_counts(stack(bland), monkeypatch) > 32  # a Bland run
    alone = [mg.solve_games(stack(S)) for S in games]
    stacks = {
        "stack": (stack(*games), range(len(games))),
        "reversed": (stack(*games[::-1]), range(len(games) - 1, -1, -1)),
    }
    for g, S in enumerate(games):
        stacks[f"{g} next to the Bland run"] = (stack(S, bland), [g, None])
    for case, (S, order) in stacks.items():
        solution = mg.solve_games(S)
        for j, g in enumerate(order):
            if g is not None:
                for got, want in zip(solution, alone[g]):
                    assert np.array_equal(got[j], want[0]), (case, g)


@pytest.mark.parametrize("factor", [1e-9, 2.0**-20, 1e-6, 0.37, 3.0, 1e6, 2.0**20, 1e9])
def test_game_values_scale_with_the_matrix(factor, monkeypatch):
    # the simplex works on each game divided by its max|A|, and certifies
    # to GAP_TOL times it: no game leaves it for HiGHS at any scale, and a
    # power of two changes no pivot and no bit of the values
    inst = random_instance(np.random.default_rng(4), 6)
    pivots = _spy_pivots(monkeypatch)
    alone = _spy_highs(monkeypatch)
    exact = np.log2(factor).is_integer()
    for t in (1, 2, 3):
        for S in _lp_bound_stacks(inst, t, 0.5):
            pivots.clear()
            values = mg.solve_games(S)[0]
            bases = [basis.tolist() for basis, _ in pivots]
            pivots.clear()
            scaled = mg.solve_games(factor * S)[0]
            np.testing.assert_allclose(scaled, factor * values, rtol=0 if exact else 1e-12, atol=0)
            assert [basis.tolist() for basis, _ in pivots] == bases or not exact
    assert alone == []


# hsbench.workloads.make_instance(8, 1), the eight-site benchmark instance
SEED1_8 = ((1.374, 3.352), [(4.826, 0.816), (3.775, 0.43), (4.341, 1.71), (1.163, 1.288),
                            (1.756, 3.184), (0.323, 2.826), (0.535, 0.944), (1.581, 3.6)])


@functools.cache
def _seed1_8_games():
    """The seed-1 eight-site base game, its t=2, c=1 switch game and its
    t=2, c=1 feedback prefix game."""
    rs = hs.enumerate_routes(8)
    A = hs.base_matrix(hs.make_instance(*SEED1_8), rs)
    cfg = hs.SwitchConfig(2, 1.0)
    return {"base": A, "switch": hs.switch_matrix(A, rs, cfg), "feedback": hs.feedback_matrix(A, rs, cfg)}


def test_feedback_matrix_needs_no_lp_when_every_game_certifies(monkeypatch):
    rs = hs.enumerate_routes(8)
    A = _seed1_8_games()["base"]
    calls = _spy_col_lp(monkeypatch)
    F = hs.feedback_matrix(A, rs, hs.SwitchConfig(2, 1.0))
    assert F.shape == (56, 8) and np.isfinite(F).all()
    assert calls == []


# HiGHS runs without presolve: every call says so, and the games presolve
# could shrink still certify and keep the values presolved HiGHS gives

def _recorded_highs(monkeypatch):
    """Every HiGHS object made, one per LP."""
    made = []

    class RecordingHighs(mg._highspy._Highs):
        def __init__(self):
            super().__init__()
            made.append(self)

    monkeypatch.setattr(mg._highspy, "_Highs", RecordingHighs)
    return made


def test_every_lp_runs_without_presolve(monkeypatch):
    made = _recorded_highs(monkeypatch)
    reached = _spy_highs(monkeypatch)  # the games that reach HiGHS
    for A in _mixed_shapes():
        mg.solve_zero_sum(A)
    assert len(reached) >= 2  # the constant game and the one of duplicate rows and columns
    monkeypatch.setattr(mg, "_MAX_PIVOTS", 1)  # games left open go to HiGHS
    mg.solve_games(np.random.default_rng(5).uniform(0, 4, size=(3, 200, 5)))
    assert len(made) == len(reached) >= 5
    for highs in made:
        assert highs.getOptionValue("presolve")[1] == "off"
        assert highs.getOptionValue("simplex_strategy")[1] == 1  # dual
        assert highs.getModelStatus() == mg._highspy.HighsModelStatus.kOptimal


# _col_lp hands HiGHS the LP and options linprog did: its primal
# and duals are linprog's to the bit

def _assert_col_lp_matches_linprog(A):
    failure, x, duals = mg._col_lp(A)
    res = col_lp_reference(A)
    assert failure is None and res.status == 0, res.message
    assert np.array_equal(x, res.x)
    assert np.array_equal(duals, res.ineqlin.marginals)


@pytest.mark.parametrize("games", ["mixed_shapes", "presolve_reducible", "seed1_8"])
def test_col_lp_matches_linprog_to_the_bit(games):
    stack = {
        "mixed_shapes": _mixed_shapes,
        "presolve_reducible": lambda: list(_presolve_reducible().values()),
        "seed1_8": lambda: list(_seed1_8_games().values()),
    }[games]()
    for A in stack:
        _assert_col_lp_matches_linprog(A)


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(data=st.data(), shape=st.tuples(st.integers(1, 12), st.integers(1, 5)))
def test_col_lp_matches_linprog_on_tall_games_with_duplicates(data, shape):
    # a small integer game, its rows and columns drawn with repetition into
    # a game up to eight times as tall: ties and degenerate bases
    m, k = shape
    base = np.array(data.draw(st.lists(st.integers(0, 2), min_size=m * k, max_size=m * k)), dtype=float)
    rows = data.draw(st.lists(st.integers(0, m - 1), min_size=m, max_size=8 * m), label="rows")
    cols = data.draw(st.lists(st.integers(0, k - 1), min_size=k, max_size=2 * k), label="cols")
    _assert_col_lp_matches_linprog(base.reshape(m, k)[rows][:, cols])


def _presolve_reducible():
    """Games HiGHS's presolve can shrink, tall enough that solve_games'
    simplex pivots rows in: duplicate rows, duplicate columns, both, and a
    constant matrix."""
    base = np.random.default_rng(83).uniform(0, 4, size=(60, 4))
    return {
        "duplicate_rows": np.repeat(base, 3, axis=0),
        "duplicate_columns": base[:, [0, 1, 1, 2, 3, 3]],
        "duplicate_rows_and_columns": np.repeat(base[:, [0, 0, 1, 2, 3]], 2, axis=0),
        "constant": np.full((90, 5), 2.5),
    }


def _assert_values_certify(S):
    """solve_zero_sum and solve_games certify every game of the stack S to
    GAP_TOL, and agree with presolved HiGHS on its value."""
    expect = [presolved_value(A) for A in S]
    tol = 1e-9 * np.abs(S).max()
    for sols in (_solved(mg.solve_zero_sum(A) for A in S), _solve_by_shape(list(S))):
        _assert_certified(S, sols)
        np.testing.assert_allclose([v for v, _, _ in sols], expect, rtol=0, atol=tol)


@pytest.mark.parametrize("name", sorted(_presolve_reducible()))
def test_games_presolve_can_reduce_still_certify(name):
    A = _presolve_reducible()[name]
    _assert_values_certify(np.stack([A, A + 1.0, 2.0 * A]))


@pytest.mark.parametrize("name", ["three_sites", "six_sites", "collinear_three"])
@pytest.mark.parametrize("convention", ["total", "remaining"])
def test_restricted_games_at_zero_cost_certify(name, convention):
    # at c = 0 presolve removed rows (220 of 721 on six_sites at t = 1)
    inst = hs.load_instance(ROOT / "instances" / f"{name}.json")
    rs = hs.enumerate_routes(inst.n)
    A = hs.base_matrix(inst, rs)
    for t in range(1, inst.n):
        S = hs.switch_matrix(A, rs, hs.SwitchConfig(t, 0.0, convention))
        _assert_values_certify(S[None])


def test_mixed_strategy_validation():
    # simplex_weights is the one check of a mix: negative weights, a sum off
    # 1 and non-finite weights fail it; round-off below 0 is clipped
    for bad in ([-0.2, 1.2, 0.0], [0.4, 0.4, 0.0], [np.nan, 0.5, 0.5], [np.inf, 0.5, 0.5]):
        with pytest.raises(ValueError, match="z is not on the probability simplex"):
            mg.simplex_weights(np.array(bad), 3, "z")
    with pytest.raises(ValueError, match=r"shape \(2,\), expected \(3,\)"):
        mg.simplex_weights([0.5, 0.5], 3, "z")
    w = mg.simplex_weights([0.5, 0.5 + 1e-13, -1e-13], 3, "z")
    assert (w >= 0).all() and w[2] == 0.0


def test_value_sandwich_and_certification():
    rng = np.random.default_rng(41)
    for _ in range(40):
        m = int(rng.integers(1, 30))
        n = int(rng.integers(1, 8))
        A = rng.uniform(-5, 5, size=(m, n))
        sol = hs.solve_zero_sum(A)
        assert max(sol.row_gap, sol.col_gap) <= 1e-6
        # pure guarantees bracket the value: best column floor from below,
        # best row ceiling from above
        assert A.min(axis=0).max() - 1e-9 <= sol.value <= A.max(axis=1).min() + 1e-9


def test_scale_shift_equivariance():
    rng = np.random.default_rng(43)
    for _ in range(15):
        A = rng.uniform(-3, 3, size=(rng.integers(2, 12), rng.integers(2, 6)))
        alpha = float(rng.uniform(0.2, 3.0))
        beta = float(rng.uniform(-2.0, 2.0))
        v = hs.solve_zero_sum(A).value
        v2 = hs.solve_zero_sum(alpha * A + beta).value
        assert v2 == pytest.approx(alpha * v + beta, abs=1e-8)


def test_transposition_duality():
    rng = np.random.default_rng(47)
    for _ in range(15):
        A = rng.uniform(-3, 3, size=(rng.integers(2, 12), rng.integers(2, 6)))
        v = hs.solve_zero_sum(A).value
        assert hs.solve_zero_sum(-A.T).value == pytest.approx(-v, abs=1e-8)


def test_saddle_value_matches_lp_when_present():
    rng = np.random.default_rng(53)
    found = 0
    for _ in range(80):
        A = rng.integers(0, 4, size=(3, 3)).astype(float)
        saddle = oracles.find_pure_saddle(A)
        if saddle is not None:
            found += 1
            assert saddle.value == pytest.approx(hs.solve_zero_sum(A).value, abs=1e-8)
    assert found > 5  # integer matrices produce saddles often enough to matter
