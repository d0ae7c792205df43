"""Cross-module stress properties: degenerate geometry, value identities,
off-equilibrium playout means, and fast-path agreement on real subgames and
on degenerate tall games."""

import dataclasses
import math
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hideseek as hs
from hideseek.cli import _fixed_rows
from hideseek.payoff import _csv_rows

from conftest import random_instance
import oracles
from oracles import csv_cell, fixed_cell, full_lp_values, game_value, lift, prefixes, unvisited_after

INSTANCES = pathlib.Path(__file__).resolve().parents[1] / "instances"


def degenerate_instance(rng, n):
    """Coincident points and zero-length legs are legal geometry."""
    k = max(1, n // 2)
    base = rng.uniform(0, 3, size=(k + 1, 2))
    rows = [base[0]] + [base[1 + rng.integers(0, k)] for _ in range(n)]
    return hs.make_instance(rows[0], rows[1:])


def full_stack(inst, t, c, convention="total", mode="mixed_subgame"):
    rs = hs.enumerate_routes(inst.n)
    A = hs.base_matrix(inst, rs)
    cfg = hs.SwitchConfig(t, c, convention=convention, feedback_mode=mode)
    S = hs.switch_matrix(A, rs, cfg)
    F = hs.feedback_matrix(A, rs, cfg)
    return rs, A, S, F, lift(F)


def test_degenerate_geometry_keeps_all_invariants():
    rng = np.random.default_rng(211)
    for _ in range(6):
        n = int(rng.integers(2, 6))
        inst = degenerate_instance(rng, n)
        t = int(rng.integers(1, n))
        c = float(rng.choice([0.0, 0.4, 2.0]))
        rs, A, S, F, L = full_stack(inst, t, c)
        assert np.isfinite(S).all() and np.isfinite(F).all()
        assert (S >= A - 1e-12).all()
        assert (L <= S + 1e-9).all()
        v_base = hs.solve_zero_sum(A).value
        v_switch = hs.solve_zero_sum(S).value
        v_fb = hs.solve_zero_sum(F).value
        _, delta, _ = hs.entrywise_gap(S, L)
        assert v_base <= v_switch + 1e-8
        assert v_fb <= v_switch + 1e-8 <= v_fb + delta + 2e-8
        V = hs.voi_matrix(S, rs, t)
        assert (V >= -1e-12).all()


def test_zero_distance_table_everything_zero():
    n = 3
    table = np.zeros((n + 1, n + 1))
    inst = hs.make_instance((0, 0), [(0, 0)] * n, table)
    rs = hs.enumerate_routes(n)
    A = hs.base_matrix(inst, rs)
    assert (A == 0).all()
    S = hs.switch_matrix(A, rs, hs.SwitchConfig(1, 0.0))
    assert (S == 0).all()
    sol = hs.solve_zero_sum(A)
    assert sol.value == 0.0
    saddle = oracles.find_pure_saddle(A)
    assert saddle is not None and not saddle.unique  # every cell ties


def test_feedback_value_equals_lifted_value():
    rng = np.random.default_rng(223)
    for _ in range(6):
        n = int(rng.integers(2, 6))
        inst = random_instance(rng, n)
        t = int(rng.integers(1, n))
        c = float(rng.uniform(0, 2))
        _, _, _, F, L = full_stack(inst, t, c)
        v_prefix = hs.solve_zero_sum(F).value
        v_lifted = hs.solve_zero_sum(L).value
        assert v_prefix == pytest.approx(v_lifted, abs=1e-8)


def _three_values(inst, t, c):
    _, A, S, F, _ = full_stack(inst, t, c)
    return np.array([hs.solve_zero_sum(M).value for M in (A, S, F)]), np.abs(A).max()


@settings(max_examples=25, deadline=None, database=None, derandomize=True)
@given(data=st.data(), n=st.integers(3, 5), seed=st.integers(0, 2**32 - 1))
def test_values_invariant_under_relabelling(data, n, seed):
    # numbering the locations differently permutes rows and columns of every game
    coords = np.random.default_rng(seed).uniform(0.0, 5.0, size=(n + 1, 2))
    perm = data.draw(st.permutations(range(n)), label="perm")
    t = data.draw(st.integers(1, n - 1), label="t")
    c = data.draw(st.floats(0.0, 3.0), label="c")
    values, scale = _three_values(hs.make_instance(coords[0], coords[1:]), t, c)
    relabelled, _ = _three_values(hs.make_instance(coords[0], coords[1:][list(perm)]), t, c)
    np.testing.assert_allclose(relabelled, values, rtol=0, atol=1e-9 * scale)



@settings(max_examples=25, deadline=None, database=None, derandomize=True)
@given(data=st.data(), n=st.integers(3, 5), seed=st.integers(0, 2**32 - 1))
def test_games_nonincreasing_in_cost(data, n, seed):
    # a dearer relocation never pays the Hider more, cell by cell and in value
    inst = random_instance(np.random.default_rng(seed), n)
    t = data.draw(st.integers(1, n - 1), label="t")
    c1 = data.draw(st.floats(0.0, 3.0), label="c1")
    c2 = data.draw(st.floats(c1, 4.0), label="c2")
    convention = data.draw(st.sampled_from(["total", "remaining"]), label="convention")
    rs = hs.enumerate_routes(n)
    A = hs.base_matrix(inst, rs)
    tol = 1e-9 * np.abs(A).max()
    for build, mode in (
        (hs.switch_matrix, "mixed_subgame"),
        (hs.feedback_matrix, "mixed_subgame"),
        (hs.feedback_matrix, "pure_min"),
    ):
        cheap, dear = (
            build(A, rs, hs.SwitchConfig(t, c, convention=convention, feedback_mode=mode))
            for c in (c1, c2)
        )
        assert (dear <= cheap + tol).all(), (build.__name__, mode)
        assert hs.solve_zero_sum(dear).value <= hs.solve_zero_sum(cheap).value + tol, (
            build.__name__, mode
        )


def _scaled(inst, lam):
    """inst with every coordinate multiplied by lam."""
    return hs.make_instance(
        (lam * inst.origin.x, lam * inst.origin.y), [(lam * p.x, lam * p.y) for p in inst.locations]
    )


@pytest.mark.parametrize("name", ["three_sites", "six_sites", "collinear_three"])
@pytest.mark.parametrize("convention", ["total", "remaining"])
def test_sweep_switch_values_scale_with_the_instance(name, convention):
    # the games are solved, and their saddles found, relative to each game's
    # max|A|, so a tiny or a huge unit of length leaves the values exact
    inst = hs.load_instance(INSTANCES / f"{name}.json")
    rows = hs.sweep(inst, convention=convention)
    for lam in (1e-8, 1e8):
        costs = [lam * r.c for r in rows if r.t_reveal == rows[0].t_reveal]
        scaled = hs.sweep(_scaled(inst, lam), c_grid=costs, convention=convention)
        for field in ("v_switch", "v_fb", "delta"):
            expect = np.array([lam * getattr(r, field) for r in rows])
            got = np.array([getattr(r, field) for r in scaled])
            assert (np.abs(got - expect) <= 1e-12 * np.abs(expect)).all(), (lam, field)


@pytest.mark.parametrize("lam", [1e-12, 1e8])
def test_verify_bounds_tolerances_scale_with_the_rows(demo6, lam):
    # tol and the one-instance test are relative to the rows' largest value:
    # absolute, a tiny unit let every fault through and a huge one flagged
    # round-off
    inst, costs = _scaled(demo6, lam), [lam * c for c in (0.0, 0.5, 2.0)]
    rows = hs.sweep(inst, t_list=[1, 2], c_grid=costs)
    assert hs.verify_bounds(rows, inst=inst).passed
    alien = hs.sweep(_scaled(demo6, 1.001 * lam), t_list=[1], c_grid=costs[:1])
    with pytest.raises(ValueError, match="mixed instances"):
        hs.verify_bounds(rows + alien)
    bad = dataclasses.replace(rows[0], v_fb=2 * rows[0].v_switch)
    report = hs.verify_bounds([bad, *rows[1:]], inst=inst)
    assert [c.name for c in report.checks if not c.passed] == ["feedback_below_switch"]
    # a relative round-off above v_switch is no fault at any scale
    close = dataclasses.replace(rows[0], v_fb=rows[0].v_switch * (1 + 1e-12))
    assert hs.verify_bounds([close, *rows[1:]], inst=inst).passed


def test_solve_zero_sum_values_scale_with_a_tiny_instance():
    # HiGHS's feasibility tolerances are absolute: in units of 1e-8 its
    # solution of this game is 7.2e-3 off, and certifying relative to max|A|
    # sends the game to the simplex instead
    lam, c = 1e-8, 1.5
    inst = hs.load_instance(INSTANCES / "three_sites.json")
    rs = hs.enumerate_routes(inst.n)

    def value(inst, c):
        S = hs.switch_matrix(hs.base_matrix(inst, rs), rs, hs.SwitchConfig(1, c, "remaining"))
        return hs.solve_zero_sum(S).value

    expect = lam * value(inst, c)
    assert abs(value(_scaled(inst, lam), lam * c) - expect) <= 1e-12 * abs(expect)


@pytest.mark.parametrize("name", ["three_sites", "six_sites", "collinear_three"])
@pytest.mark.parametrize("convention", ["total", "remaining"])
def test_model_values_scale_with_the_instance(name, convention):
    # value(lam * inst, lam * c) = lam * value(inst, c) for every model
    inst = hs.load_instance(INSTANCES / f"{name}.json")
    rs = hs.enumerate_routes(inst.n)

    def values(inst, c):
        A = hs.base_matrix(inst, rs)
        games = [A]
        for t in range(1, inst.n):
            cfg = hs.SwitchConfig(t, c, convention)
            games += [hs.switch_matrix(A, rs, cfg), hs.feedback_matrix(A, rs, cfg)]
        return np.array([hs.solve_zero_sum(M).value for M in games])

    expect = values(inst, 1.0)
    for lam in (1e-8, 1e8):
        got = values(_scaled(inst, lam), lam * 1.0)
        assert (np.abs(got - lam * expect) <= 1e-9 * np.abs(lam * expect)).all(), lam


def test_feedback_matrix_scales_with_a_huge_instance():
    # the subgames of max|A| ~ 3e10 certify with round-off gaps of up to
    # 5e-4, within GAP_TOL times max|A|
    lam, c = 1e9, 0.5
    inst = random_instance(np.random.default_rng(4), 6)
    rs = hs.enumerate_routes(inst.n)

    def feedback(inst, c):
        return hs.feedback_matrix(hs.base_matrix(inst, rs), rs, hs.SwitchConfig(2, c))

    np.testing.assert_allclose(feedback(_scaled(inst, lam), lam * c), lam * feedback(inst, c), rtol=1e-12, atol=0)


def test_switch_equals_base_at_last_reveal():
    rng = np.random.default_rng(227)
    for _ in range(5):
        n = int(rng.integers(2, 6))
        inst = random_instance(rng, n)
        rs = hs.enumerate_routes(n)
        A = hs.base_matrix(inst, rs)
        S = hs.switch_matrix(A, rs, hs.SwitchConfig(n - 1, 0.3))
        np.testing.assert_allclose(S, A)  # lone target = stay


# The feedback game solves each reveal-stage subgame with the start known to
# both players, so past every threshold the Seeker goes straight to it

@pytest.mark.parametrize("name", ["three_sites", "six_sites", "collinear_three"])
def test_feedback_matrix_past_cstar_route_is_the_prefix_minimum(name):
    # for c >= c*_route(t) relocating never pays: the stay column dominates
    # every subgame, whose value is then its least stay payoff
    inst = hs.load_instance(INSTANCES / f"{name}.json")
    rs = hs.enumerate_routes(inst.n)
    A = hs.base_matrix(inst, rs)
    for t in range(1, inst.n):
        prefix_min = A.reshape(-1, hs.prefix_block(rs, t), inst.n).min(axis=1)
        for c in (hs.cstar_global(hs.cstar(A, rs, t, "route")), 1e9):
            F = hs.feedback_matrix(A, rs, hs.SwitchConfig(t, c))
            np.testing.assert_allclose(F, prefix_min, rtol=0, atol=1e-9 * np.abs(A).max())
            # pure_min is the prefix minimum of switch_matrix, which is A here
            F = hs.feedback_matrix(A, rs, hs.SwitchConfig(t, c, feedback_mode="pure_min"))
            assert np.array_equal(F, prefix_min), (t, c)


@pytest.mark.parametrize("name", ["three_sites", "six_sites", "collinear_three"])
def test_feedback_value_is_the_base_value_at_the_last_reveal(name):
    # at t = n-1 each subgame has one target, the stay: F is A itself
    inst = hs.load_instance(INSTANCES / f"{name}.json")
    rs = hs.enumerate_routes(inst.n)
    A = hs.base_matrix(inst, rs)
    v_base = hs.solve_zero_sum(A).value
    for c in (0.0, 0.5, 2.0):
        F = hs.feedback_matrix(A, rs, hs.SwitchConfig(inst.n - 1, c))
        assert abs(hs.solve_zero_sum(F).value - v_base) <= 1e-9 * np.abs(A).max(), c


@settings(max_examples=25, deadline=None, database=None, derandomize=True)
@given(n=st.integers(3, 5), seed=st.integers(0, 2**32 - 1), c=st.floats(0.0, 4.0))
def test_switch_matrix_nonincreasing_in_reveal_time(n, seed, c):
    # a later reveal leaves the Hider fewer targets and more cells already
    # paid at their baseline cost: no cell rises (total convention)
    inst = random_instance(np.random.default_rng(seed), n)
    rs = hs.enumerate_routes(n)
    A = hs.base_matrix(inst, rs)
    S = [hs.switch_matrix(A, rs, hs.SwitchConfig(t, c)) for t in range(1, n)]
    for t, (early, late) in enumerate(zip(S, S[1:]), start=1):
        assert (late <= early).all(), t


def test_game_value_fast_path_on_real_subgames():
    """The oracle's saddle and 2x2 shortcuts agree with the LP on real subgames."""
    rng = np.random.default_rng(229)
    checked = 0
    for _ in range(8):
        n = int(rng.integers(3, 6))
        inst = random_instance(rng, n)
        rs = hs.enumerate_routes(n)
        A = hs.base_matrix(inst, rs)
        for t in range(1, n):
            heads = prefixes(rs, t)
            h = int(rng.integers(0, len(heads)))
            c = float(rng.uniform(0, 2))
            for i in unvisited_after(rs, heads[h]):
                sub = hs.subgame_matrix(A, rs, t, h, i, c)
                assert game_value(sub) == pytest.approx(
                    hs.solve_zero_sum(sub).value, abs=1e-9
                )
                checked += 1
    assert checked >= 20


def test_simulate_feedback_mean_is_lifted_bilinear(rs3, base3):
    rng = np.random.default_rng(233)
    y = rng.dirichlet(np.ones(6))
    z = rng.dirichlet(np.ones(3))
    L = lift(hs.feedback_matrix(base3, rs3, hs.SwitchConfig(1, 1.0)))
    target = float(y @ L @ z)
    # the playout draws a prefix: each prefix carries its two routes' weight
    y_prefix = y.reshape(3, 2).sum(axis=1)
    res = hs.simulate(base3, rs3, "feedback", y_prefix, z, t=1, c=1.0, trials=400_000, seed=19)
    assert abs(res.mean_payoff - target) <= 4 * res.payoff_stderr


def test_remaining_convention_sweep_bounds(demo3):
    rows = hs.sweep(demo3, t_list=[1, 2], c_grid=[0.0, 1.0], convention="remaining")
    report = hs.verify_bounds(rows, inst=demo3, convention="remaining")
    assert report.passed
    assert "base_below_switch" not in {c.name for c in report.checks}
    # the sandwich still binds under the remaining convention
    for r in rows:
        assert r.v_fb <= r.v_switch + 1e-8 <= r.v_fb + r.delta + 2e-8


def test_five_site_pipeline_sanity():
    rng = np.random.default_rng(239)
    inst = random_instance(rng, 5)
    rs, A, S, F, L = full_stack(inst, 2, 0.8)
    assert S.shape == (120, 5)
    assert F.shape == (20, 5)
    v_base = hs.solve_zero_sum(A).value
    v_switch = hs.solve_zero_sum(S).value
    v_fb = hs.solve_zero_sum(F).value
    _, delta, _ = hs.entrywise_gap(S, L)
    assert v_base <= v_switch + 1e-8
    assert v_fb <= v_switch + 1e-8 <= v_fb + delta + 2e-8
    term = oracles.termination_probability(
        rs, np.full(rs.m, 1 / rs.m), np.full(5, 0.2), 2
    )
    assert term == pytest.approx(2 / 5, abs=1e-9)


CELLS = st.one_of(
    st.sampled_from([
        math.nan, 0.0, -0.0, math.inf, -math.inf, 5e-324, -5e-324, 1e-310, -1e-310, 1e308, -1e308,
    ]),
    st.floats(),
)


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(data=st.data(), rows=st.integers(0, 4), cols=st.integers(1, 5))
def test_csv_rows_matches_cell_by_cell_formatting(data, rows, cols):
    # labels pass through untouched, even when they read "nan" or end in a comma
    label = st.text(alphabet="an,r1", max_size=5)
    labels = data.draw(st.lists(label, min_size=rows, max_size=rows), label="labels")
    row = st.lists(CELLS, min_size=cols, max_size=cols)
    values = data.draw(st.lists(row, min_size=rows, max_size=rows), label="values")
    expect = "".join(
        f"{lb}," + ",".join(csv_cell(v) for v in vals) + "\n"
        for lb, vals in zip(labels, values)
    )
    assert _csv_rows(labels, values) == expect


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(data=st.data(), cols=st.integers(1, 5))
def test_csv_rows_formats_repeated_rows_like_the_cell_by_cell_printer(data, cols):
    # _csv_rows formats each distinct row once: rows that repeat, rows of
    # NaN (whatever their sign), and rows that differ only in a zero's sign
    row = st.lists(CELLS, min_size=cols, max_size=cols)
    distinct = data.draw(st.lists(row, min_size=1, max_size=4), label="distinct")
    distinct += [[-v if v == 0 else v for v in r] for r in distinct]
    distinct += [[math.nan] * cols, [-math.nan] * cols]
    picks = data.draw(st.lists(st.integers(0, len(distinct) - 1), min_size=1, max_size=16), label="picks")
    values = [distinct[k] for k in picks]
    labels = [f"r{j}," for j in range(len(values))]
    expect = "".join(
        f"{lb}," + ",".join(csv_cell(v) for v in vals) + "\n"
        for lb, vals in zip(labels, values)
    )
    assert _csv_rows(labels, values) == expect


def test_csv_rows_tell_signed_zeros_apart_and_match_nan_rows():
    values = [[0.0, math.nan], [-0.0, math.nan], [0.0, -math.nan], [-0.0, -0.0], [0.0, math.nan]]
    assert _csv_rows(list("abcde"), values) == "a,0,--\nb,-0,--\nc,0,--\nd,-0,-0\ne,0,--\n"


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(data=st.data(), rows=st.integers(0, 4), cols=st.integers(1, 5), prec=st.integers(0, 100))
def test_fixed_rows_matches_cell_by_cell_formatting(data, rows, cols, prec):
    # width 0 for the bare scalar lines, p + 3 for the cstar table, or any
    # other; labels pass through untouched, even when they read "nan"
    width = data.draw(st.one_of(st.sampled_from([0, prec + 3]), st.integers(3, 110)), label="width")
    label = st.text(alphabet="an: r1", max_size=6)
    labels = data.draw(st.lists(label, min_size=rows, max_size=rows), label="labels")
    row = st.lists(CELLS, min_size=cols, max_size=cols)
    values = data.draw(st.lists(row, min_size=rows, max_size=rows), label="values")
    expect = "".join(
        f"{lb} " + " ".join(fixed_cell(v, prec, width) for v in vals) + "\n"
        for lb, vals in zip(labels, values)
    )
    assert _fixed_rows(labels, values, prec, width) == expect


def test_fixed_rows_format_repeated_nan_and_signed_zero_rows():
    # _fixed_rows formats each distinct row once, keyed after -0 became 0:
    # -0 prints as 0, and a NaN of either sign as --
    values = [[0.0, math.nan], [-0.0, math.nan], [1.5, -0.0], [0.0, -math.nan], [1.5, 0.0], [-0.0, -0.0], [0.0, math.nan]]
    labels = list("abcdefg")
    assert _fixed_rows(labels, values, 2, 6) == (
        "a   0.00     --\nb   0.00     --\nc   1.50   0.00\nd   0.00     --\n"
        "e   1.50   0.00\nf   0.00   0.00\ng   0.00     --\n"
    )
    assert _fixed_rows(labels, values, 1) == "a 0.0 --\nb 0.0 --\nc 1.5 0.0\nd 0.0 --\ne 1.5 0.0\nf 0.0 0.0\ng 0.0 --\n"


@settings(max_examples=150, deadline=None, database=None, derandomize=True)
@given(
    data=st.data(),
    games=st.integers(0, 4),
    m=st.integers(1, 200),
    k=st.integers(1, 6),
    seed=st.integers(0, 2**32 - 1),
)
def test_game_values_match_the_full_lp_on_degenerate_tall_games(data, games, m, k, seed):
    # few distinct entries make exact ties, a small row pool makes duplicate
    # rows, and a constant column makes a weakly dominant Hider action
    rng = np.random.default_rng(seed)
    levels = data.draw(st.integers(1, 40), label="levels")
    pool_rows = data.draw(st.integers(1, m), label="pool rows")
    scale = data.draw(st.sampled_from([1e-3, 1.0, 1e4]), label="scale")
    pool = rng.integers(0, levels, size=(games, pool_rows, k)) * scale
    S = pool[:, rng.integers(0, pool_rows, size=m)]
    if data.draw(st.booleans(), label="constant column"):
        S[:, :, rng.integers(k)] = float(rng.integers(0, levels)) * scale
    values = hs.solve_games(S)[0]
    assert values.shape == (games,)
    tol = 1e-12 * np.abs(S).max(axis=(1, 2)) if games else 0.0
    assert (np.abs(values - full_lp_values(S)) <= tol).all()
