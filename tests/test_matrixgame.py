import numpy as np
import pytest

import hideseek as hs
import hideseek.matrixgame as mg

import reference as ref


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
    assert sol.row_strategy.weights.sum() == pytest.approx(1.0, abs=1e-9)
    assert sol.col_strategy.weights.sum() == pytest.approx(1.0, abs=1e-9)


def test_solve_one_by_one():
    sol = hs.solve_zero_sum(np.array([[4.25]]))
    assert sol.value == pytest.approx(4.25)
    assert sol.row_strategy.weights[0] == pytest.approx(1.0)
    assert sol.col_strategy.weights[0] == pytest.approx(1.0)


def test_solve_three_site_switch(base3, rs3):
    S = hs.switch_matrix(base3, rs3, hs.SwitchConfig(1, 1.0))
    sol = hs.solve_zero_sum(S)
    assert sol.value == pytest.approx(ref.VALUE_SWITCH_3_C1, abs=1e-4)
    assert max(sol.row_gap, sol.col_gap) <= 1e-6
    # equilibria are not unique; the mix only has to certify, but the
    # quoted one is optimal too and should achieve the value
    z_quoted = np.array([0.0920, 0.4540, 0.4540])
    z_quoted = z_quoted / z_quoted.sum()
    assert (S.entries @ z_quoted).min() == pytest.approx(sol.value, abs=1e-3)


def test_solve_validation():
    with pytest.raises(ValueError, match="non-finite"):
        hs.solve_zero_sum(np.array([[1.0, np.nan]]))
    with pytest.raises(ValueError, match="degenerate"):
        hs.solve_zero_sum(np.zeros((0, 3)))


def test_best_response_gap_pure_saddle():
    A = np.array([[1.0, 2.0], [3.0, 4.0]])
    sol = hs.GameSolution(
        value=2.0,
        row_strategy=hs.MixedStrategy(np.array([1.0, 0.0])),
        col_strategy=hs.MixedStrategy(np.array([0.0, 1.0])),
        row_gap=0.0,
        col_gap=0.0,
    )
    assert hs.best_response_gap(A, sol) == (0.0, 0.0)


def test_best_response_gap_recomputes(base3):
    sol = hs.solve_zero_sum(base3)
    row_gap, col_gap = hs.best_response_gap(base3, sol)
    assert row_gap == pytest.approx(sol.row_gap, abs=1e-12)
    assert col_gap == pytest.approx(sol.col_gap, abs=1e-12)


def test_uniform_hider_mix_is_not_optimal(base3):
    sol = hs.solve_zero_sum(base3)
    uniform = hs.GameSolution(
        value=sol.value,
        row_strategy=sol.row_strategy,
        col_strategy=hs.MixedStrategy(np.full(3, 1 / 3)),
        row_gap=0.0,
        col_gap=0.0,
    )
    _, col_gap = hs.best_response_gap(base3, uniform)
    direct = sol.value - (base3.entries @ np.full(3, 1 / 3)).min()
    assert col_gap == pytest.approx(direct, abs=1e-12)
    assert col_gap > 1e-3


def test_best_response_gap_dimension_check(base3):
    sol = hs.solve_zero_sum(base3)
    with pytest.raises(ValueError, match="dimensions"):
        hs.best_response_gap(np.eye(4), sol)


def test_find_pure_saddle_simple():
    saddle = hs.find_pure_saddle(np.array([[1.0, 2.0], [3.0, 4.0]]))
    assert (saddle.row, saddle.col, saddle.value) == (0, 1, 2.0)
    assert saddle.unique


def test_find_pure_saddle_none_on_three_sites(base3):
    assert brute_force_saddles(base3.entries) == []
    assert hs.find_pure_saddle(base3) is None


def test_find_pure_saddle_collinear(collinear3):
    rs = hs.enumerate_routes(3)
    A = hs.base_matrix(collinear3, rs)
    cells = brute_force_saddles(A.entries)
    assert cells == [(0, 2)]
    saddle = hs.find_pure_saddle(A)
    assert (saddle.row, saddle.col) == (0, 2)
    assert saddle.value == pytest.approx(3.0)
    assert saddle.unique
    assert saddle.value == pytest.approx(hs.solve_zero_sum(A).value, abs=1e-8)


def test_find_pure_saddle_flags_ties():
    saddle = hs.find_pure_saddle(np.array([[1.0, 1.0], [0.0, 0.0]]))
    assert saddle is not None and not saddle.unique


def test_check_lemma1_collinear(collinear3):
    rs = hs.enumerate_routes(3)
    A = hs.base_matrix(collinear3, rs)
    for c in (0.0, 1.0, 5.0):
        report = hs.check_lemma1(A, rs, 1, c)
        assert report.passed
        assert report.saddle.value == pytest.approx(3.0)
        assert {i_hat for i_hat, *_ in report.checks} == {2, 3}
        for _, switch_payoff, stay_payoff, ok in report.checks:
            assert ok and switch_payoff <= stay_payoff + 1e-9


def test_check_lemma1_requires_unique_saddle(base3, rs3):
    with pytest.raises(ValueError, match="no unique pure saddle"):
        hs.check_lemma1(base3, rs3, 1, 1.0)


def test_check_lemma1_rejects_bad_costs(collinear3):
    rs = hs.enumerate_routes(3)
    A = hs.base_matrix(collinear3, rs)
    for c in (-1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="finite and >= 0"):
            hs.check_lemma1(A, rs, 1, c)


def _assert_certified(mats, sols):
    for A, sol in zip(mats, sols):
        assert max(hs.best_response_gap(A, sol)) <= mg.GAP_TOL


def _bits(sol):
    """Everything a GameSolution holds, comparable with ==."""
    return (
        sol.value,
        sol.row_strategy.weights.tobytes(),
        sol.col_strategy.weights.tobytes(),
        sol.row_gap,
        sol.col_gap,
    )


def test_solve_games_match_solve_zero_sum_on_small_randoms():
    rng = np.random.default_rng(31)
    mats = [
        rng.uniform(-4, 4, size=(int(rng.integers(1, 7)), int(rng.integers(1, 5))))
        for _ in range(60)
    ]
    sols = mg.solve_games(mats)
    _assert_certified(mats, sols)
    for A, sol in zip(mats, sols):
        assert sol.value == pytest.approx(hs.solve_zero_sum(A).value, abs=1e-9)


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
    for values in ([hs.solve_zero_sum(A).value for A in mats], [s.value for s in mg.solve_games(mats)]):
        assert values[0] == 5.0
        assert values[1] == 1.0
        assert values[2] == pytest.approx(2.9142, abs=1e-4)


def test_game_values_match_solve_zero_sum_on_mixed_shapes(monkeypatch):
    mats = _mixed_shapes()
    calls = []
    real_linprog = mg.linprog

    def counting_linprog(*args, **kwargs):
        calls.append(1)
        return real_linprog(*args, **kwargs)

    monkeypatch.setattr(mg, "linprog", counting_linprog)
    sols = mg.solve_games(mats)
    assert 1 < len(calls) < len(mats)  # more than one batch, several games per batch
    _assert_certified(mats, sols)
    for A, sol in zip(mats, sols):
        assert abs(sol.value - hs.solve_zero_sum(A).value) <= 1e-9 * np.abs(A).max()
    assert mg.solve_games([]) == []


def test_solve_games_fall_back_per_block(monkeypatch):
    mats = _mixed_shapes()
    batched = mg.solve_games(mats)
    target = mats[6]
    assert hs.find_pure_saddle(target) is None
    real_gaps, real_solve = mg._gaps, mg.solve_zero_sum
    failed, solved = [], []

    def failing_gaps(A, y, z, value):
        if A is target and not failed:
            failed.append(A)
            return 1.0, 1.0
        return real_gaps(A, y, z, value)

    def spy_solve(A):
        solved.append(A)
        return real_solve(A)

    monkeypatch.setattr(mg, "_gaps", failing_gaps)
    monkeypatch.setattr(mg, "solve_zero_sum", spy_solve)
    sols = mg.solve_games(mats)
    assert len(solved) == 1 and solved[0] is target
    assert _bits(sols[6]) == _bits(real_solve(target))
    assert [_bits(s) for s in sols[:6] + sols[7:]] == [_bits(s) for s in batched[:6] + batched[7:]]
    _assert_certified(mats, sols)


def test_solve_games_fall_back_when_a_batch_fails(monkeypatch):
    mats = _mixed_shapes()
    real_col_lp, real_solve = mg._col_lp, mg.solve_zero_sum
    solved = []

    def failing_col_lp(blocks):
        res = real_col_lp(blocks)
        if len(blocks) > 1:
            res.status = 4
        return res

    def spy_solve(A):
        solved.append(A)
        return real_solve(A)

    monkeypatch.setattr(mg, "_col_lp", failing_col_lp)
    monkeypatch.setattr(mg, "solve_zero_sum", spy_solve)
    sols = mg.solve_games(mats)
    assert len(solved) == len(mats)
    assert all(A is B for A, B in zip(solved, mats))
    _assert_certified(mats, sols)
    for A, sol in zip(mats, sols):
        assert abs(sol.value - real_solve(A).value) <= 1e-9 * np.abs(A).max()


def test_solve_zero_sum_falls_back_to_row_lp(monkeypatch):
    A = _mixed_shapes()[3]
    expect = hs.solve_zero_sum(A)
    real_gaps, real_row_lp = mg._gaps, mg._row_lp
    failed, row_lps = [], []

    def failing_gaps(A, y, z, value):
        if not failed:
            failed.append(A)
            return 1.0, 1.0
        return real_gaps(A, y, z, value)

    def spy_row_lp(A):
        row_lps.append(A)
        return real_row_lp(A)

    monkeypatch.setattr(mg, "_gaps", failing_gaps)
    monkeypatch.setattr(mg, "_row_lp", spy_row_lp)
    sol = hs.solve_zero_sum(A)
    assert len(row_lps) == 1
    assert sol.value == expect.value
    np.testing.assert_array_equal(sol.col_strategy.weights, expect.col_strategy.weights)
    _assert_certified([A], [sol])


def test_mixed_strategy_validation():
    with pytest.raises(ValueError, match="negative"):
        hs.MixedStrategy(np.array([-0.2, 1.2]))
    with pytest.raises(ValueError, match="sum"):
        hs.MixedStrategy(np.array([0.4, 0.4]))
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="finite"):
            hs.MixedStrategy(np.array([bad, 0.5, 0.5]))
        with pytest.raises(ValueError, match="simplex"):
            mg.simplex_weights(np.array([bad, 0.5, 0.5]), 3, "z")
    w = hs.MixedStrategy(np.array([0.5, 0.5 - 1e-13, 1e-13]))
    assert (w.weights >= 0).all()


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
        saddle = hs.find_pure_saddle(A)
        if saddle is not None:
            found += 1
            assert saddle.value == pytest.approx(hs.solve_zero_sum(A).value, abs=1e-8)
    assert found > 5  # integer matrices produce saddles often enough to matter
