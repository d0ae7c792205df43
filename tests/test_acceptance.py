"""Acceptance suite: every release gate in one module.

Each test prints one `[acceptance] ... PASS/FAIL` line (run pytest with -s
to see them live). Tolerances are pinned here and nowhere else: matrix
regressions against the four-decimal references use 1e-3, LP certification
gaps 1e-6, solver identities 1e-8, and Monte Carlo agreement four standard
errors.
"""

import json
import math
import time
from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest

import hideseek as hs
from hideseek import experiments
from hideseek.cli import main as cli_main

import reference as ref
from conftest import random_instance


@contextmanager
def criterion(num, name):
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {num:02d} {name}: FAIL")
        raise
    print(f"[acceptance] criterion {num:02d} {name}: PASS")


def test_c01_base_matrix_regression(demo3, rs3, base3):
    with criterion(1, "base matrix regression"):
        np.testing.assert_allclose(base3.entries, ref.BASE_3, atol=1e-3)


def test_c02_base_value(base3):
    with criterion(2, "base game value"):
        sol = hs.solve_zero_sum(base3)
        assert abs(sol.value - ref.VALUE_BASE_3) <= 1e-3
        assert sol.row_gap <= 1e-6 and sol.col_gap <= 1e-6
        recomputed = hs.best_response_gap(base3, sol)
        assert max(recomputed) <= 1e-6


def test_c03_switch_matrix_and_value(base3, rs3):
    with criterion(3, "switch matrix and value"):
        S = hs.switch_matrix(base3, rs3, hs.SwitchConfig(1, 1.0, convention="total"))
        np.testing.assert_allclose(S.entries, ref.SWITCH_3_C1, atol=1e-3)
        sol = hs.solve_zero_sum(S)
        assert abs(sol.value - ref.VALUE_SWITCH_3_C1) <= 1e-3
        assert max(sol.row_gap, sol.col_gap) <= 1e-6


def test_c04_threshold_table(base3, rs3):
    with criterion(4, "switching-cost threshold table"):
        C = hs.cstar(base3, rs3, 1, "infoset")
        np.testing.assert_allclose(C, ref.CSTAR_INFOSET_3, atol=1e-3, equal_nan=True)
        assert np.isnan(C).sum() == 6  # one visited marker per row
        assert abs(hs.cstar_global(C) - ref.CSTAR_GLOBAL_INFOSET_3) <= 1e-3


def test_c05_expected_and_route_averaged_voi(demo3, rs3):
    with criterion(5, "expected and route-averaged VOI"):
        report = hs.build_voi_report(demo3, rs3, hs.SwitchConfig(1, 1.0))
        assert report.expected_voi == 0.0
        assert report.route_averaged_voi > 0.0


def test_c06_feedback_matrices_and_value(base3, rs3):
    with criterion(6, "feedback matrices and value"):
        cfg = hs.SwitchConfig(1, 1.0, feedback_mode="mixed_subgame")
        F = hs.feedback_matrix(base3, rs3, cfg)
        np.testing.assert_allclose(F.entries, ref.FEEDBACK_3_C1, atol=1e-3)
        L = hs.lift_feedback(F)
        np.testing.assert_allclose(L.entries, ref.LIFTED_3_C1, atol=1e-3)
        sol = hs.solve_zero_sum(F)
        assert abs(sol.value - ref.VALUE_FEEDBACK_3_C1) <= 1e-3
        assert max(sol.row_gap, sol.col_gap) <= 1e-6
        # informational: committing to the first prefix class caps the payoff
        # at the value, i.e. that pure row is one optimal Seeker strategy
        assert F.entries[0].max() == pytest.approx(sol.value, abs=1e-6)


def test_c07_awareness_gap_sandwich(base3, rs3):
    with criterion(7, "seeker-awareness gap sandwich"):
        cfg = hs.SwitchConfig(1, 1.0)
        S = hs.switch_matrix(base3, rs3, cfg)
        L = hs.lift_feedback(hs.feedback_matrix(base3, rs3, cfg))
        G, delta, cells = hs.entrywise_gap(S, L)
        np.testing.assert_allclose(G.entries, ref.GAP_3_C1, atol=1e-3)
        assert abs(delta - ref.DELTA_3_C1) <= 1e-3
        assert set(cells) == ref.DELTA_CELLS_3_C1
        v_switch = hs.solve_zero_sum(S).value
        v_fb = hs.solve_zero_sum(L).value
        assert v_fb <= v_switch <= v_fb + delta + 1e-9
        assert v_fb + delta == pytest.approx(4.6213, abs=1e-3)


def test_c08_large_cost_case(base3, rs3):
    with criterion(8, "large switching cost"):
        cfg = hs.SwitchConfig(1, 100.0)
        S = hs.switch_matrix(base3, rs3, cfg)
        v_switch = hs.solve_zero_sum(S).value
        v_base = hs.solve_zero_sum(base3).value
        assert abs(v_switch - v_base) <= 1e-9
        assert abs(v_switch - ref.VALUE_SWITCH_3_C100) <= 1e-3
        F = hs.feedback_matrix(base3, rs3, cfg)
        assert abs(hs.solve_zero_sum(F).value - ref.VALUE_FEEDBACK_3_C100) <= 1e-3
        _, delta, _ = hs.entrywise_gap(S, hs.lift_feedback(F))
        assert abs(delta - ref.DELTA_3_C100) <= 1e-3


def test_c09_six_site_values_within_budget(demo6):
    with criterion(9, "six-site values inside 10s"):
        start = time.perf_counter()
        rs = hs.enumerate_routes(6)
        A = hs.base_matrix(demo6, rs)
        v_base = hs.solve_zero_sum(A).value
        # the six-site switch value is quoted under the remaining convention
        S = hs.switch_matrix(A, rs, hs.SwitchConfig(1, 1.0, convention="remaining"))
        v_switch = hs.solve_zero_sum(S).value
        elapsed = time.perf_counter() - start
        assert abs(v_base - ref.VALUE_BASE_6) <= 1e-2
        assert abs(v_switch - ref.VALUE_SWITCH_6_C1_REMAINING) <= 1e-2
        assert elapsed <= 10.0


def test_c10_six_site_sweep_voi_profile(demo6):
    with criterion(10, "six-site VOI-vs-cost profile"):
        rows = hs.sweep(demo6)  # default grid: t = 1..5, 25 costs
        by_t = {}
        for r in rows:
            by_t.setdefault(r.t_reveal, []).append(r)
        assert sorted(by_t) == [1, 2, 3, 4, 5]
        t1 = sorted(by_t[1], key=lambda r: r.c)
        for a, b in zip(t1, t1[1:]):
            assert b.expected_voi <= a.expected_voi + 1e-8
        assert t1[-1].expected_voi <= 1e-8  # zero by the end of the grid
        for t in (3, 4, 5):
            assert all(abs(r.expected_voi) <= 1e-8 for r in by_t[t])


def test_c11_worst_case_voi_bound_suite():
    with criterion(11, "worst-case VOI bound suite"):
        rng = np.random.default_rng(2024)
        for _ in range(50):
            n = int(rng.choice([3, 4, 5]))
            inst = random_instance(rng, n)
            rs = hs.enumerate_routes(n)
            A = hs.base_matrix(inst, rs)
            cg1 = hs.cstar_global(hs.cstar(A, rs, 1, "route"))
            costs = [0.0, float(rng.uniform(0, 1.5 * cg1 + 0.1)), cg1]
            for c in costs:
                previous = None
                for t in range(1, n):
                    S = hs.switch_matrix(A, rs, hs.SwitchConfig(t, c))
                    bar = hs.worst_case_voi(hs.voi_matrix(S, rs, t))
                    cg_t = hs.cstar_global(hs.cstar(A, rs, t, "route"))
                    assert (bar <= hs.theorem1_bound(cg_t, c) + 1e-8).all()
                    if previous is not None:
                        assert (bar <= previous + 1e-8).all()
                    previous = bar


def test_c12_termination_probability_oracle(demo3):
    with criterion(12, "termination probability vs Monte Carlo"):
        rng = np.random.default_rng(321)
        instances = [demo3, random_instance(rng, 4)]
        for inst in instances:
            rs = hs.enumerate_routes(inst.n)
            for trial in range(20):
                y = rng.dirichlet(np.ones(rs.m))
                z = rng.dirichlet(np.ones(rs.n))
                t = int(rng.integers(1, rs.n + 1))
                closed = hs.termination_probability(rs, y, z, t)
                sim = hs.simulate(
                    inst, rs, "base", y, z, t=t, c=0.0,
                    trials=100_000, seed=1000 + trial,
                )
                se = math.sqrt(max(closed * (1 - closed), 1e-12) / sim.trials)
                assert abs(sim.empirical_end_by_t - closed) <= 4 * se + 1e-12
            uniform = np.full(rs.m, 1.0 / rs.m)
            z = rng.dirichlet(np.ones(rs.n))
            for t in range(1, rs.n + 1):
                got = hs.termination_probability(rs, uniform, z, t)
                assert abs(got - t / rs.n) <= 1e-9


def test_c13_pure_saddle_and_no_switch_incentive(collinear3):
    with criterion(13, "collinear pure saddle and stay-dominance"):
        rs = hs.enumerate_routes(3)
        A = hs.base_matrix(collinear3, rs)
        scan = [
            (j, i)
            for j in range(rs.m)
            for i in range(rs.n)
            if A.entries[j, i] >= A.entries[j].max() - 1e-9
            and A.entries[j, i] <= A.entries[:, i].min() + 1e-9
        ]
        assert scan == [(0, 2)]  # route (1,2,3), location 3
        saddle = hs.find_pure_saddle(A)
        assert saddle.unique and (saddle.row, saddle.col) == (0, 2)
        assert saddle.value == pytest.approx(3.0, abs=1e-12)
        assert abs(saddle.value - hs.solve_zero_sum(A).value) <= 1e-8
        for c in (0.0, 1.0, 5.0):
            assert hs.check_lemma1(A, rs, 1, c).passed


def test_c14_solver_property_suite():
    with criterion(14, "solver property suite"):
        rng = np.random.default_rng(777)
        for _ in range(100):
            m = int(rng.integers(1, 51))
            n = int(rng.integers(1, 9))
            A = rng.uniform(-10, 10, size=(m, n))
            sol = hs.solve_zero_sum(A)
            assert max(sol.row_gap, sol.col_gap) <= 1e-6
            assert A.min(axis=0).max() - 1e-9 <= sol.value <= A.max(axis=1).min() + 1e-9
            alpha = float(rng.uniform(0.5, 2.0))
            beta = float(rng.uniform(-3.0, 3.0))
            scaled = hs.solve_zero_sum(alpha * A + beta)
            assert abs(scaled.value - (alpha * sol.value + beta)) <= 1e-8
            assert max(scaled.row_gap, scaled.col_gap) <= 1e-6
            swapped = hs.solve_zero_sum(-A.T)
            assert abs(swapped.value + sol.value) <= 1e-8
            assert max(swapped.row_gap, swapped.col_gap) <= 1e-6


def test_c15_determinism(tmp_path, capsys, demo3, rs3):
    with criterion(15, "deterministic output"):
        path = tmp_path / "three.json"
        path.write_text(
            json.dumps({"origin": [0, 0], "locations": [[1, 0], [2, 1], [2, -1]]}),
            encoding="utf-8",
        )
        argv = [
            "simulate", str(path), "--model", "feedback",
            "--t-reveal", "1", "--cost", "1", "--trials", "50000", "--seed", "11",
        ]
        assert cli_main(list(argv)) == 0
        first = capsys.readouterr().out
        assert cli_main(list(argv)) == 0
        second = capsys.readouterr().out
        assert first.encode() == second.encode()

        y = np.full(6, 1 / 6)
        z = np.array([0.3, 0.4, 0.3])
        runs = []
        for block in (30_000, 4_096, 7):
            with mock.patch.object(experiments, "_BLOCK", block):
                runs.append(hs.simulate(demo3, rs3, "restricted", y, z, t=1, c=1.0,
                                        trials=30_000, seed=3))
        assert runs[0] == runs[1] == runs[2]
