import dataclasses
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hideseek as hs
from hideseek import experiments

import reference as ref


def mc_tolerance(p: float, trials: int, k: float = 4.0) -> float:
    return k * math.sqrt(max(p * (1 - p), 1e-12) / trials)


# --------------------------------------------------------------------- sweep

def test_sweep_three_sites_c1(demo3):
    (row,) = hs.sweep(demo3, t_list=[1], c_grid=[1.0])
    assert row.v_base == pytest.approx(ref.VALUE_BASE_3, abs=1e-4)
    assert row.v_switch == pytest.approx(ref.VALUE_SWITCH_3_C1, abs=1e-4)
    assert row.v_fb == pytest.approx(ref.VALUE_FEEDBACK_3_C1, abs=1e-4)
    assert row.delta == pytest.approx(ref.DELTA_3_C1, abs=1e-4)
    assert row.expected_voi == 0.0
    assert row.theorem1_bound == pytest.approx(1.0, abs=1e-9)
    assert row.cstar_global_route == pytest.approx(2.0, abs=1e-9)
    assert row.cstar_global_infoset == pytest.approx(0.5858, abs=1e-4)


def test_sweep_three_sites_large_cost(demo3):
    (row,) = hs.sweep(demo3, t_list=[1], c_grid=[100.0])
    assert row.v_switch == pytest.approx(row.v_base, abs=1e-8)
    assert row.v_base == pytest.approx(3.3251, abs=1e-4)
    assert row.v_fb == pytest.approx(ref.VALUE_FEEDBACK_3_C100, abs=1e-4)
    assert row.delta == pytest.approx(ref.DELTA_3_C100, abs=1e-4)


def test_sweep_six_sites_remaining_convention(demo6):
    (row,) = hs.sweep(demo6, t_list=[1], c_grid=[1.0], convention="remaining")
    assert row.v_base == pytest.approx(ref.VALUE_BASE_6, abs=1e-2)
    assert row.v_switch == pytest.approx(ref.VALUE_SWITCH_6_C1_REMAINING, abs=1e-2)


def test_sweep_ordering_and_monotonicity(demo3):
    rows = hs.sweep(demo3, t_list=[2, 1], c_grid=[1.5, 0.0, 0.75])
    keys = [(r.t_reveal, r.c) for r in rows]
    assert keys == sorted(keys)
    by_t = {}
    for r in rows:
        by_t.setdefault(r.t_reveal, []).append(r.v_switch)
    for vals in by_t.values():
        assert all(a >= b - 1e-9 for a, b in zip(vals, vals[1:]))


def test_sweep_rejects_empty_grid(demo3):
    with pytest.raises(ValueError, match="empty cost grid"):
        hs.sweep(demo3, t_list=[1], c_grid=[])


def test_default_cost_grid(demo3):
    grid = hs.default_cost_grid(demo3)
    assert len(grid) == 25
    assert grid[0] == 0.0
    assert grid[-1] == pytest.approx(2.4, abs=1e-9)  # 1.2x the route threshold


def test_sweep_to_csv(demo3):
    rows = hs.sweep(demo3, t_list=[1, 2], c_grid=[0.0, 1.0])
    text = hs.sweep_to_csv(rows)
    lines = text.strip().splitlines()
    assert lines[0] == (
        "t_reveal,c,v_base,v_switch,v_fb,expected_voi,"
        "theorem1_bound,delta,cstar_route,cstar_infoset"
    )
    assert len(lines) == 5
    first = lines[1].split(",")
    assert first[0] == "1" and float(first[2]) == pytest.approx(3.3251, abs=1e-3)


# ------------------------------------------------------------- verify_bounds

def test_verify_bounds_three_sites(demo3):
    rows = hs.sweep(demo3, t_list=[1, 2], c_grid=[0.0, 0.5, 1.0, 2.5, 100.0])
    report = hs.verify_bounds(rows, inst=demo3)
    assert report.passed
    names = {c.name for c in report.checks}
    assert names == {
        "base_below_switch",
        "feedback_below_switch",
        "switch_within_delta_of_feedback",
        "expected_voi_within_bound",
        "expected_voi_monotone_in_c",
        "fixed_mix_voi_monotone_in_t",
    }
    c1 = next(r for r in rows if r.t_reveal == 1 and r.c == 1.0)
    assert c1.v_fb <= c1.v_switch <= c1.v_fb + c1.delta
    assert c1.v_fb + c1.delta == pytest.approx(4.6213, abs=1e-3)


def test_verify_bounds_single_row(demo3):
    rows = hs.sweep(demo3, t_list=[1], c_grid=[1.0])
    report = hs.verify_bounds(rows)
    assert report.passed  # cross-row monotonicity passes vacuously


def test_verify_bounds_detects_violations(demo3):
    rows = hs.sweep(demo3, t_list=[1], c_grid=[1.0])
    bad = dataclasses.replace(rows[0], expected_voi=rows[0].theorem1_bound + 1.0)
    report = hs.verify_bounds([bad])
    assert not report.passed
    failing = [c for c in report.checks if not c.passed]
    assert [c.name for c in failing] == ["expected_voi_within_bound"]


def test_verify_bounds_rejects_mixed_instances(demo3):
    rows = hs.sweep(demo3, t_list=[1], c_grid=[1.0])
    alien = dataclasses.replace(rows[0], v_base=rows[0].v_base + 0.5)
    with pytest.raises(ValueError, match="mixed instances"):
        hs.verify_bounds(rows + [alien])


def test_verify_bounds_empty():
    assert hs.verify_bounds([]).passed


# ------------------------------------------------------------------ simulate

def test_simulate_base_converges(demo3, rs3, base3):
    sol = hs.solve_zero_sum(base3)
    res = hs.simulate(
        demo3, rs3, "base", sol.row_strategy, sol.col_strategy,
        t=1, c=0.0, trials=1_000_000, seed=101,
    )
    assert abs(res.mean_payoff - sol.value) <= 4 * res.payoff_stderr
    closed = hs.termination_probability(rs3, sol.row_strategy, sol.col_strategy, 1)
    assert abs(res.empirical_end_by_t - closed) <= mc_tolerance(closed, res.trials, k=3.0)


def test_simulate_restricted_converges(demo3, rs3, base3):
    S = hs.switch_matrix(base3, rs3, hs.SwitchConfig(1, 1.0))
    sol = hs.solve_zero_sum(S)
    res = hs.simulate(
        demo3, rs3, "restricted", sol.row_strategy, sol.col_strategy,
        t=1, c=1.0, trials=1_000_000, seed=103,
    )
    assert abs(res.mean_payoff - sol.value) <= 4 * res.payoff_stderr
    assert res.model == "restricted"


def test_simulate_feedback_converges(demo3, rs3, base3):
    cfg = hs.SwitchConfig(1, 1.0)
    lifted = hs.lift_feedback(hs.feedback_matrix(base3, rs3, cfg))
    sol = hs.solve_zero_sum(lifted)
    res = hs.simulate(
        demo3, rs3, "feedback", sol.row_strategy, sol.col_strategy,
        t=1, c=1.0, trials=400_000, seed=107,
    )
    assert abs(res.mean_payoff - sol.value) <= 4 * res.payoff_stderr
    assert res.mean_payoff == pytest.approx(ref.VALUE_FEEDBACK_3_C1, abs=0.02)


def test_simulate_full_horizon_always_ends(demo3, rs3):
    y = np.full(6, 1 / 6)
    z = np.full(3, 1 / 3)
    for model in ("base", "restricted", "feedback"):
        res = hs.simulate(demo3, rs3, model, y, z, t=3, c=1.0, trials=500, seed=5)
        assert res.empirical_end_by_t == 1.0


def test_simulate_reproducible_and_seed_sensitive(demo3, rs3):
    y = np.full(6, 1 / 6)
    z = np.array([0.5, 0.25, 0.25])
    a = hs.simulate(demo3, rs3, "restricted", y, z, t=1, c=1.0, trials=20_000, seed=42)
    b = hs.simulate(demo3, rs3, "restricted", y, z, t=1, c=1.0, trials=20_000, seed=42)
    assert a == b
    c = hs.simulate(demo3, rs3, "restricted", y, z, t=1, c=1.0, trials=20_000, seed=43)
    assert c.mean_payoff != a.mean_payoff


@settings(max_examples=30, deadline=None, database=None, derandomize=True)
@given(
    data=st.data(),
    trials=st.integers(1, 3_000),
    seed=st.integers(0, 2**32 - 1),
    model=st.sampled_from(["restricted", "feedback"]),
)
def test_simulate_block_invariance(demo3, rs3, data, trials, seed, model):
    # the cell histogram makes every result exact for any block size
    y = np.array([0.1, 0.2, 0.05, 0.3, 0.15, 0.2])
    z = np.array([0.2, 0.45, 0.35])
    block = data.draw(st.integers(1, trials + 1), label="block")
    run = lambda: hs.simulate(demo3, rs3, model, y, z, t=1, c=0.8, trials=trials, seed=seed)
    whole = run()
    with mock.patch.object(experiments, "_BLOCK", block):
        assert run() == whole


@pytest.mark.parametrize("model", ["restricted", "feedback"])
def test_simulate_memory_is_bounded(demo3, rs3, model):
    y = np.full(6, 1 / 6)
    z = np.array([0.2, 0.45, 0.35])
    tracemalloc.start()
    try:
        hs.simulate(demo3, rs3, model, y, z, t=1, c=0.8, trials=1_000_000, seed=9)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_simulate_empirical_end_matches_closed_form(demo3, rs3):
    rng = np.random.default_rng(113)
    for _ in range(5):
        y = rng.dirichlet(np.ones(6))
        z = rng.dirichlet(np.ones(3))
        t = int(rng.integers(1, 4))
        res = hs.simulate(demo3, rs3, "base", y, z, t=t, c=0.0, trials=100_000, seed=11)
        closed = hs.termination_probability(rs3, y, z, t)
        assert abs(res.empirical_end_by_t - closed) <= mc_tolerance(closed, res.trials)


def test_simulate_validation(demo3, rs3):
    y = np.full(6, 1 / 6)
    z = np.full(3, 1 / 3)
    with pytest.raises(ValueError, match="model"):
        hs.simulate(demo3, rs3, "other", y, z, t=1, c=1.0, trials=10, seed=0)
    with pytest.raises(ValueError, match="trials"):
        hs.simulate(demo3, rs3, "base", y, z, t=1, c=1.0, trials=0, seed=0)
    with pytest.raises(ValueError, match="simplex"):
        hs.simulate(demo3, rs3, "base", y * 1.1, z, t=1, c=1.0, trials=10, seed=0)
    with pytest.raises(ValueError, match="out of range"):
        hs.simulate(demo3, rs3, "base", y, z, t=4, c=1.0, trials=10, seed=0)
    for c in (-1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="finite and >= 0"):
            hs.simulate(demo3, rs3, "feedback", y, z, t=1, c=c, trials=10, seed=0)


def test_simulate_single_trial(demo3, rs3):
    y = np.full(6, 1 / 6)
    z = np.full(3, 1 / 3)
    res = hs.simulate(demo3, rs3, "base", y, z, t=1, c=0.0, trials=1, seed=0)
    assert res.payoff_stderr == 0.0
    assert res.empirical_end_by_t in (0.0, 1.0)


def test_simulate_restricted_mean_is_switch_bilinear(demo3, rs3, base3):
    # off-equilibrium strategies: the playout mean estimates y' A_switch z
    rng = np.random.default_rng(127)
    y = rng.dirichlet(np.ones(6))
    z = rng.dirichlet(np.ones(3))
    S = hs.switch_matrix(base3, rs3, hs.SwitchConfig(1, 1.0)).entries
    target = float(y @ S @ z)
    res = hs.simulate(demo3, rs3, "restricted", y, z, t=1, c=1.0, trials=400_000, seed=17)
    assert abs(res.mean_payoff - target) <= 4 * res.payoff_stderr
