"""Cross-module stress properties: degenerate geometry, value identities,
off-equilibrium playout means, and fast-path agreement on real subgames."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hideseek as hs

from conftest import random_instance
from oracles import game_value, prefixes, unvisited_after


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
    L = hs.lift_feedback(F)
    return rs, A, S, F, L


def test_degenerate_geometry_keeps_all_invariants():
    rng = np.random.default_rng(211)
    for _ in range(6):
        n = int(rng.integers(2, 6))
        inst = degenerate_instance(rng, n)
        t = int(rng.integers(1, n))
        c = float(rng.choice([0.0, 0.4, 2.0]))
        rs, A, S, F, L = full_stack(inst, t, c)
        assert np.isfinite(S.entries).all() and np.isfinite(F.entries).all()
        assert (S.entries >= A.entries - 1e-12).all()
        assert (L.entries <= S.entries + 1e-9).all()
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
    assert (A.entries == 0).all()
    S = hs.switch_matrix(A, rs, hs.SwitchConfig(1, 0.0))
    assert (S.entries == 0).all()
    sol = hs.solve_zero_sum(A)
    assert sol.value == 0.0
    saddle = hs.find_pure_saddle(A)
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
    return np.array([hs.solve_zero_sum(M).value for M in (A, S, F)]), np.abs(A.entries).max()


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
    tol = 1e-9 * np.abs(A.entries).max()
    for build, mode in (
        (hs.switch_matrix, "mixed_subgame"),
        (hs.feedback_matrix, "mixed_subgame"),
        (hs.feedback_matrix, "pure_min"),
    ):
        cheap, dear = (
            build(A, rs, hs.SwitchConfig(t, c, convention=convention, feedback_mode=mode))
            for c in (c1, c2)
        )
        assert (dear.entries <= cheap.entries + tol).all(), (build.__name__, mode)
        assert hs.solve_zero_sum(dear).value <= hs.solve_zero_sum(cheap).value + tol, (
            build.__name__, mode
        )

def test_switch_equals_base_at_last_reveal():
    rng = np.random.default_rng(227)
    for _ in range(5):
        n = int(rng.integers(2, 6))
        inst = random_instance(rng, n)
        rs = hs.enumerate_routes(n)
        A = hs.base_matrix(inst, rs)
        S = hs.switch_matrix(A, rs, hs.SwitchConfig(n - 1, 0.3))
        np.testing.assert_allclose(S.entries, A.entries)  # lone target = stay


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
                sub = hs.subgame_matrix(A, rs, t, h, i, c).entries
                assert game_value(sub) == pytest.approx(
                    hs.solve_zero_sum(sub).value, abs=1e-9
                )
                checked += 1
    assert checked >= 20


def test_simulate_feedback_mean_is_lifted_bilinear(demo3, rs3, base3):
    rng = np.random.default_rng(233)
    y = rng.dirichlet(np.ones(6))
    z = rng.dirichlet(np.ones(3))
    L = hs.lift_feedback(hs.feedback_matrix(base3, rs3, hs.SwitchConfig(1, 1.0))).entries
    target = float(y @ L @ z)
    res = hs.simulate(demo3, rs3, "feedback", y, z, t=1, c=1.0, trials=400_000, seed=19)
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
    assert S.entries.shape == (120, 5)
    assert F.entries.shape == (20, 5)
    v_base = hs.solve_zero_sum(A).value
    v_switch = hs.solve_zero_sum(S).value
    v_fb = hs.solve_zero_sum(F).value
    _, delta, _ = hs.entrywise_gap(S, L)
    assert v_base <= v_switch + 1e-8
    assert v_fb <= v_switch + 1e-8 <= v_fb + delta + 2e-8
    term = hs.termination_probability(
        rs, np.full(rs.m, 1 / rs.m), np.full(5, 0.2), 2
    )
    assert term == pytest.approx(2 / 5, abs=1e-9)
