import pathlib

import numpy as np
import pytest

import hideseek as hs

import reference as ref
from conftest import random_instance
import oracles
from oracles import cstar_infoset_per_prefix, report_to_csv_cells, routes

INSTANCES = pathlib.Path(__file__).resolve().parents[1] / "instances"

VOI_3_C1 = np.array(
    [
        [0.0, 0.0, 1.0],
        [0.0, 1.0, 0.0],
        [0.0, 0.0, 1.0],
        [1.0, 0.0, 0.0],
        [0.0, 1.0, 0.0],
        [1.0, 0.0, 0.0],
    ]
)


@pytest.fixture(scope="module")
def switch3(base3, rs3):
    return hs.switch_matrix(base3, rs3, hs.SwitchConfig(1, 1.0))


def test_voi_matrix_three_sites(switch3, rs3):
    V = hs.voi_matrix(switch3, rs3, 1)
    np.testing.assert_allclose(V, VOI_3_C1, atol=1e-9)
    # route (1,2,3), treasure at 2: its switch payoff is the row minimum
    assert V[0, 1] == 0.0
    assert (V[:, 0][[0, 1]] == 0).all()  # visited cells are zero


def test_voi_matrix_zero_at_last_reveal(base3, rs3):
    S = hs.switch_matrix(base3, rs3, hs.SwitchConfig(2, 1.0))
    np.testing.assert_array_equal(hs.voi_matrix(S, rs3, 2), np.zeros((6, 3)))


def test_voi_matrix_convention_invariant():
    rng = np.random.default_rng(61)
    for _ in range(8):
        n = int(rng.integers(2, 6))
        inst = random_instance(rng, n)
        rs = hs.enumerate_routes(n)
        A = hs.base_matrix(inst, rs)
        t = int(rng.integers(1, n))
        c = float(rng.uniform(0, 2))
        V_total = hs.voi_matrix(hs.switch_matrix(A, rs, hs.SwitchConfig(t, c)), rs, t)
        V_rem = hs.voi_matrix(
            hs.switch_matrix(A, rs, hs.SwitchConfig(t, c, convention="remaining")), rs, t
        )
        np.testing.assert_allclose(V_total, V_rem, atol=1e-12)


def test_voi_matrix_nonincreasing_in_reveal_time():
    rng = np.random.default_rng(67)
    for _ in range(8):
        n = int(rng.integers(3, 6))
        inst = random_instance(rng, n)
        rs = hs.enumerate_routes(n)
        A = hs.base_matrix(inst, rs)
        c = float(rng.uniform(0, 2))
        previous = None
        for t in range(1, n):
            V = hs.voi_matrix(hs.switch_matrix(A, rs, hs.SwitchConfig(t, c)), rs, t)
            assert (V >= -1e-12).all()
            if previous is not None:
                assert (V <= previous + 1e-9).all()
            previous = V


def test_worst_case_voi(switch3, rs3):
    V = hs.voi_matrix(switch3, rs3, 1)
    np.testing.assert_allclose(hs.worst_case_voi(V), [0.0, 0.0, 0.0], atol=1e-12)
    np.testing.assert_array_equal(hs.worst_case_voi(np.zeros((4, 3))), np.zeros(3))
    np.testing.assert_array_equal(hs.worst_case_voi(np.array([[1.0, 2.0, 0.5]])), [1.0, 2.0, 0.5])


def test_expected_voi(switch3, rs3):
    V = hs.voi_matrix(switch3, rs3, 1)
    bar = hs.worst_case_voi(V)
    sol = hs.solve_zero_sum(switch3)
    assert hs.expected_voi(bar, sol.col_strategy) == 0.0
    assert hs.expected_voi(bar, np.array([0.2, 0.5, 0.3])) == 0.0
    assert hs.expected_voi(np.array([1.0, 2, 3]), np.array([0.0, 0, 1])) == pytest.approx(3.0)
    assert hs.expected_voi(np.array([1.0, 2, 3]), np.full(3, 1 / 3)) == pytest.approx(2.0)
    with pytest.raises(ValueError, match="shape"):
        hs.expected_voi(bar, np.array([0.5, 0.5]))


def test_route_averaged_voi(switch3, rs3):
    V = hs.voi_matrix(switch3, rs3, 1)
    sol = hs.solve_zero_sum(switch3)
    assert hs.route_averaged_voi(V, sol.row_strategy, sol.col_strategy) > 0.01
    point_y = np.zeros(6)
    point_y[0] = 1.0
    point_z = np.array([1.0, 0.0, 0.0])  # VOI(r1, 1) = 0
    assert hs.route_averaged_voi(V, point_y, point_z) == 0.0
    assert hs.route_averaged_voi(np.zeros((6, 3)), sol.row_strategy, sol.col_strategy) == 0.0


def test_cstar_infoset_matches_thresholds(base3, rs3):
    C = hs.cstar(base3, rs3, 1, "infoset")
    np.testing.assert_allclose(C, ref.CSTAR_INFOSET_3, atol=1e-3)
    assert np.isnan(C[0, 0]) and np.isnan(C[2, 1])  # visited markers
    assert hs.cstar_global(C) == pytest.approx(0.5858, abs=1e-4)



@pytest.mark.parametrize("n", [4, 5, 6])
def test_cstar_infoset_matches_per_prefix_oracle(n):
    # bit for bit: the table takes each prefix's minimum before it takes
    # off the reveal node's cost, the oracle after
    inst = random_instance(np.random.default_rng(53 + n), n)
    rs = hs.enumerate_routes(n)
    A = hs.base_matrix(inst, rs)
    for t in range(1, n):
        assert hs.cstar(A, rs, t, "infoset").tobytes() == cstar_infoset_per_prefix(A, rs, t).tobytes(), t

def test_cstar_route_brute_force(base3, rs3):
    C = hs.cstar(base3, rs3, 1, "route")
    A = base3
    for j, route in enumerate(routes(rs3.n)):
        unvisited = route[1:]
        for i in range(1, 4):
            if i not in unvisited:
                assert np.isnan(C[j, i - 1])
                continue
            brute = max(A[j, ih - 1] - A[j, i - 1] for ih in unvisited)
            assert C[j, i - 1] == pytest.approx(brute, abs=1e-12)
            # closed form: the row's last stop dominates the unvisited set
            assert C[j, i - 1] == pytest.approx(
                A[j, route[-1] - 1] - A[j, i - 1], abs=1e-12
            )
    assert C[0, 1] == pytest.approx(2.0, abs=1e-9)
    # staying at the final stop already collects the row maximum
    for j, route in enumerate(routes(rs3.n)):
        assert C[j, route[-1] - 1] == pytest.approx(0.0, abs=1e-12)
    assert hs.cstar_global(C) == pytest.approx(2.0, abs=1e-9)


def test_cstar_validation(base3, rs3):
    with pytest.raises(ValueError, match="variant"):
        hs.cstar(base3, rs3, 1, "other")
    with pytest.raises(ValueError, match="out of range"):
        hs.cstar(base3, rs3, 3, "route")
    with pytest.raises(ValueError, match="undefined"):
        hs.cstar_global(np.full((2, 2), np.nan))
    assert hs.cstar_global(np.zeros((2, 2))) == 0.0


def test_cstar_globals_route_dominates_on_three_sites(base3, rs3):
    # entrywise domination fails (route gives 0 where the last stop is the
    # treasure, infoset can stay positive there), but the global maximum is
    # what the cost bound uses and it dominates
    route_g = hs.cstar_global(hs.cstar(base3, rs3, 1, "route"))
    info_g = hs.cstar_global(hs.cstar(base3, rs3, 1, "infoset"))
    assert route_g >= info_g - 1e-12


def test_theorem1_bound():
    assert hs.theorem1_bound(2.0, 1.0) == pytest.approx(1.0)
    assert hs.theorem1_bound(2.0, 2.5) == 0.0
    assert hs.theorem1_bound(2.0, 0.0) == pytest.approx(2.0)
    for c in (-0.1, float("nan"), float("inf")):
        with pytest.raises(ValueError, match=">= 0"):
            hs.theorem1_bound(2.0, c)


def test_worst_case_voi_respects_route_bound():
    rng = np.random.default_rng(71)
    for _ in range(10):
        n = int(rng.integers(3, 6))
        inst = random_instance(rng, n)
        rs = hs.enumerate_routes(n)
        A = hs.base_matrix(inst, rs)
        for t in range(1, n):
            cg = hs.cstar_global(hs.cstar(A, rs, t, "route"))
            for c in (0.0, 0.5, cg, 2 * cg + 1):
                S = hs.switch_matrix(A, rs, hs.SwitchConfig(t, c))
                bar = hs.worst_case_voi(hs.voi_matrix(S, rs, t))
                assert (bar <= hs.theorem1_bound(cg, c) + 1e-8).all()


def test_termination_probability_full_route(rs3):
    y = np.full(6, 1 / 6)
    z = np.array([0.2, 0.3, 0.5])
    assert oracles.termination_probability(rs3, y, z, 3) == pytest.approx(1.0, abs=1e-12)


def test_termination_probability_uniform_routes():
    rng = np.random.default_rng(73)
    for n in (2, 3, 4, 5):
        rs = hs.enumerate_routes(n)
        y = np.full(rs.m, 1.0 / rs.m)
        z = rng.dirichlet(np.ones(n))
        for t in range(1, n + 1):
            assert oracles.termination_probability(rs, y, z, t) == pytest.approx(t / n, abs=1e-9)


def test_termination_probability_brute_force(rs3):
    rng = np.random.default_rng(79)
    for _ in range(10):
        y = rng.dirichlet(np.ones(6))
        z = rng.dirichlet(np.ones(3))
        for t in (1, 2, 3):
            # direct triple-sum of the closed form
            brute = sum(
                z[i - 1] * sum(y[j] for j, r in enumerate(routes(rs3.n)) if i in r[:t])
                for i in range(1, 4)
            )
            got = oracles.termination_probability(rs3, y, z, t)
            assert got == pytest.approx(brute, abs=1e-12)
            assert 0.0 <= got <= 1.0 + 1e-12


def test_termination_probability_affine(rs3):
    rng = np.random.default_rng(83)
    y1, y2 = rng.dirichlet(np.ones(6)), rng.dirichlet(np.ones(6))
    z1, z2 = rng.dirichlet(np.ones(3)), rng.dirichlet(np.ones(3))
    for alpha in (0.0, 0.3, 0.8, 1.0):
        mix_z = alpha * z1 + (1 - alpha) * z2
        lhs = oracles.termination_probability(rs3, y1, mix_z, 2)
        rhs = alpha * oracles.termination_probability(rs3, y1, z1, 2) + (1 - alpha) * (
            oracles.termination_probability(rs3, y1, z2, 2)
        )
        assert lhs == pytest.approx(rhs, abs=1e-12)
        mix_y = alpha * y1 + (1 - alpha) * y2
        lhs = oracles.termination_probability(rs3, mix_y, z1, 2)
        rhs = alpha * oracles.termination_probability(rs3, y1, z1, 2) + (1 - alpha) * (
            oracles.termination_probability(rs3, y2, z1, 2)
        )
        assert lhs == pytest.approx(rhs, abs=1e-12)


def test_termination_probability_validation(rs3):
    y = np.full(6, 1 / 6)
    z = np.full(3, 1 / 3)
    with pytest.raises(ValueError, match="out of range"):
        oracles.termination_probability(rs3, y, z, 0)
    with pytest.raises(ValueError, match="out of range"):
        oracles.termination_probability(rs3, y, z, 4)
    with pytest.raises(ValueError, match="simplex"):
        oracles.termination_probability(rs3, y * 2, z, 1)


def test_build_voi_report(demo3, rs3):
    cfg = hs.SwitchConfig(1, 1.0)
    report = hs.build_voi_report(demo3, rs3, cfg)
    assert report.expected_voi == 0.0
    assert report.route_averaged_voi > 0.01
    assert report.cstar_global == pytest.approx(0.5858, abs=1e-4)
    assert report.bound == pytest.approx(1.0, abs=1e-9)  # route threshold 2 minus c 1
    assert report.variant == "infoset"
    np.testing.assert_allclose(report.bar_voi, np.zeros(3), atol=1e-12)
    assert (report.voi_matrix >= 0).all()
    assert report.expected_voi <= report.bar_voi.max() + 1e-12


def test_build_voi_report_with_override(demo3, rs3):
    z = np.array([0.5, 0.25, 0.25])
    cfg = hs.SwitchConfig(1, 1.0)
    report = hs.build_voi_report(demo3, rs3, cfg, z=z)
    y = hs.solve_zero_sum(hs.switch_matrix(hs.base_matrix(demo3, rs3), rs3, cfg)).row_strategy
    assert report.route_averaged_voi == hs.route_averaged_voi(report.voi_matrix, y, z)
    assert report.expected_voi == 0.0


def test_report_to_csv(demo3, rs3):
    report = hs.build_voi_report(demo3, rs3, hs.SwitchConfig(1, 1.0))
    text = hs.report_to_csv(report)
    lines = text.strip().splitlines()
    assert lines[0].startswith("# t_reveal=1,c=1,convention=total,variant=infoset")
    assert any(line.startswith("cstar,r1,--") for line in lines)
    assert "expected_voi,,0" in text
    assert "cstar_global,,0.585786" in text


@pytest.mark.parametrize("name", ["three_sites", "six_sites", "collinear_three"])
def test_report_to_csv_matches_cell_by_cell_oracle(name):
    inst = hs.load_instance(INSTANCES / f"{name}.json")
    rs = hs.enumerate_routes(inst.n)
    for t in range(1, inst.n):
        for variant in ("route", "infoset"):
            report = hs.build_voi_report(inst, rs, hs.SwitchConfig(t, 0.5), variant=variant)
            assert np.isnan(report.cstar_matrix).any()
            assert hs.report_to_csv(report) == report_to_csv_cells(report), (t, variant)
