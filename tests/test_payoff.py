import math
import pathlib
import tracemalloc

import numpy as np
import pytest

import hideseek as hs
import hideseek.matrixgame as mg
import hideseek.payoff as payoff
import hideseek.routes as route_module

import reference as ref
from conftest import random_instance
from oracles import (
    best_relocations,
    dump_matrix_cells,
    feedback_matrices_per_prefix,
    feedback_matrix_dense,
    information_set,
    lift,
    prefixes,
    reduced_payoff,
    routes,
    subgame,
    unvisited_after,
)

INSTANCES = pathlib.Path(__file__).resolve().parents[1] / "instances"


def collinear_base():
    # origin 0, locations at x = 1, 2, 3: leg lengths are 1 except the
    # return hops, summed by hand per permutation
    inst = hs.make_instance((0, 0), [(1, 0), (2, 0), (3, 0)])
    return inst, hs.enumerate_routes(3)


# ---------------------------------------------------------------- base matrix

def test_base_matrix_three_sites(base3):
    np.testing.assert_allclose(base3, ref.BASE_3, atol=1e-3)
    assert base3[2, 0] == pytest.approx(3.6503, abs=1e-4)
    assert base3[3, 1] == pytest.approx(2.2361, abs=1e-4)
    assert base3[5, 0] == pytest.approx(5.6503, abs=1e-4)


def test_base_matrix_single_location():
    inst = hs.make_instance((0, 0), [(3, 4)])
    A = hs.base_matrix(inst, hs.enumerate_routes(1))
    np.testing.assert_allclose(A, [[5.0]])


def test_base_matrix_collinear_hand_sums():
    inst, rs = collinear_base()
    A = hs.base_matrix(inst, rs)
    np.testing.assert_allclose(A[0], [1.0, 2.0, 3.0])  # route (1,2,3)
    np.testing.assert_allclose(A[3], [5.0, 2.0, 3.0])  # route (2,3,1)


def test_base_matrix_rejects_mismatched_sizes(demo3):
    with pytest.raises(ValueError, match="n="):
        hs.base_matrix(demo3, hs.enumerate_routes(4))


def test_base_rows_nondecreasing_in_visit_order():
    rng = np.random.default_rng(5)
    for _ in range(10):
        n = int(rng.integers(2, 6))
        inst = random_instance(rng, n)
        rs = hs.enumerate_routes(n)
        A = hs.base_matrix(inst, rs)
        for j, route in enumerate(routes(rs.n)):
            along = A[j, np.array(route) - 1]
            assert (np.diff(along) >= -1e-12).all()


# ------------------------------------------------------------- reduced payoff

def switch_by_oracle(A, rs, cfg):
    """switch_matrix rebuilt cell by cell as the best reduced payoff."""
    S = A.copy()
    for j, route in enumerate(routes(rs.n)):
        unvisited = route[cfg.t_reveal :]
        for i in unvisited:
            S[j, i - 1] = max(reduced_payoff(A, rs, j, cfg, i, h) for h in unvisited)
    return S


def test_reduced_payoff_total(base3, rs3):
    cfg = hs.SwitchConfig(1, 1.0)
    # route (1,2,3), treasure at 2: stay, or pay 1 to move to 3
    assert reduced_payoff(base3, rs3, 0, cfg, 2, 3) == pytest.approx(3.4142, abs=1e-4)
    assert reduced_payoff(base3, rs3, 0, cfg, 2, 2) == pytest.approx(2.4142, abs=1e-4)
    for t in (1, 2):
        for c in (0.0, 0.6, 1.0, 2.5):
            cfg = hs.SwitchConfig(t, c)
            S = hs.switch_matrix(base3, rs3, cfg)
            np.testing.assert_array_equal(S, switch_by_oracle(base3, rs3, cfg))


def test_reduced_payoff_remaining(base3, rs3):
    cfg = hs.SwitchConfig(1, 1.0, convention="remaining")
    # total value minus the cumulative distance to the reveal node (1.0)
    assert reduced_payoff(base3, rs3, 0, cfg, 2, 3) == pytest.approx(2.4142, abs=1e-4)
    for t in (1, 2):
        for c in (0.0, 0.6, 1.0, 2.5):
            cfg = hs.SwitchConfig(t, c, convention="remaining")
            S = hs.switch_matrix(base3, rs3, cfg)
            np.testing.assert_allclose(S, switch_by_oracle(base3, rs3, cfg), rtol=0, atol=1e-12)


def test_reduced_payoff_rejects_visited(base3, rs3):
    cfg = hs.SwitchConfig(1, 1.0)
    with pytest.raises(ValueError, match="unvisited"):
        reduced_payoff(base3, rs3, 0, cfg, 1, 2)
    with pytest.raises(ValueError, match="unvisited"):
        reduced_payoff(base3, rs3, 0, cfg, 2, 1)
    with pytest.raises(ValueError, match="route index"):
        reduced_payoff(base3, rs3, 6, cfg, 2, 3)


# --------------------------------------------------------------- switch matrix

def test_switch_matrix_three_sites(base3, rs3):
    S = hs.switch_matrix(base3, rs3, hs.SwitchConfig(1, 1.0))
    np.testing.assert_allclose(S, ref.SWITCH_3_C1, atol=1e-3)
    assert S[0, 1] == pytest.approx(3.4142, abs=1e-4)
    assert S[3, 2] == pytest.approx(4.6503, abs=1e-4)
    assert S[4, 0] == pytest.approx(4.0645, abs=1e-4)


def test_switch_matrix_free_switching_hits_row_max(base3, rs3):
    S = hs.switch_matrix(base3, rs3, hs.SwitchConfig(1, 0.0))
    for j, route in enumerate(routes(rs3.n)):
        last = route[-1]
        for i in route[1:]:
            assert S[j, i - 1] == pytest.approx(base3[j, last - 1])


def test_switch_matrix_collapses_for_large_cost(base3, rs3):
    # the largest residual gain on this instance is 2.0, so c=100 kills
    # every switch
    A = base3
    residual = max(
        A[j, route[-1] - 1] - A[j, i - 1]
        for j, route in enumerate(routes(rs3.n))
        for i in route[1:]
    )
    assert residual == pytest.approx(2.0, abs=1e-9)
    S = hs.switch_matrix(base3, rs3, hs.SwitchConfig(1, 100.0))
    np.testing.assert_allclose(S, A)
    S2 = hs.switch_matrix(base3, rs3, hs.SwitchConfig(1, residual))
    np.testing.assert_allclose(S2, A)


def test_switch_matrix_remaining_is_total_minus_reveal_cost(base3, rs3):
    for t in (1, 2):
        cfg_t = hs.SwitchConfig(t, 0.7)
        cfg_r = hs.SwitchConfig(t, 0.7, convention="remaining")
        total = hs.switch_matrix(base3, rs3, cfg_t)
        remaining = hs.switch_matrix(base3, rs3, cfg_r)
        for j, route in enumerate(routes(rs3.n)):
            offset = base3[j, route[t - 1] - 1]
            for i in range(1, 4):
                if i in route[:t]:
                    assert remaining[j, i - 1] == total[j, i - 1]
                else:
                    assert remaining[j, i - 1] == pytest.approx(total[j, i - 1] - offset)


def test_switch_dominates_base_total_convention():
    rng = np.random.default_rng(17)
    for _ in range(8):
        n = int(rng.integers(2, 6))
        inst = random_instance(rng, n)
        rs = hs.enumerate_routes(n)
        A = hs.base_matrix(inst, rs)
        for t in range(1, n):
            c = float(rng.uniform(0, 3))
            S = hs.switch_matrix(A, rs, hs.SwitchConfig(t, c))
            assert (S >= A - 1e-12).all()


def test_switch_matrix_t_range(base3, rs3):
    with pytest.raises(ValueError, match="out of range"):
        hs.switch_matrix(base3, rs3, hs.SwitchConfig(3, 1.0))


@pytest.mark.parametrize("model", ["base", "restricted", "feedback"])
def test_model_matrix_at_the_last_reveal_is_the_base_game(base3, rs3, model):
    # revealing after the last visit reveals nothing
    assert payoff._model_matrix(base3, rs3, model, 3, 1.0, "total", "mixed_subgame") is base3


def test_switch_config_validation():
    for c in (-0.5, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="finite and >= 0"):
            hs.SwitchConfig(1, c)
    with pytest.raises(ValueError, match="convention"):
        hs.SwitchConfig(1, 1.0, convention="other")
    with pytest.raises(ValueError, match="feedback_mode"):
        hs.SwitchConfig(1, 1.0, feedback_mode="other")
    for c in ([1.0], [0.5, 2.0]):
        with pytest.raises(TypeError, match="one cost"):
            hs.SwitchConfig(1, np.array(c))


# ------------------------------------------------------------ best relocations

def test_best_relocations_match_switch_values(base3, rs3):
    cfg = hs.SwitchConfig(1, 1.0)
    S = hs.switch_matrix(base3, rs3, cfg)
    targets = best_relocations(base3, rs3, cfg)
    for j, route in enumerate(routes(rs3.n)):
        for i in route[1:]:
            hat = targets[j, i - 1]
            got = base3[j, hat - 1] - (1.0 if hat != i else 0.0)
            assert got == pytest.approx(S[j, i - 1])
        assert targets[j, route[0] - 1] == 0  # visited marker


def test_best_relocations_tie_breaks_low_index():
    # a zero-length leg between locations 2 and 3 makes their cumulative
    # costs tie along route (1,2,3); the lower location index must win
    table = np.array(
        [
            [0.0, 1.0, 2.0, 2.0],
            [1.0, 0.0, 1.0, 1.0],
            [2.0, 1.0, 0.0, 0.0],
            [2.0, 1.0, 0.0, 0.0],
        ]
    )
    inst = hs.make_instance((0, 0), [(0, 0)] * 3, table)
    rs = hs.enumerate_routes(3)
    A = hs.base_matrix(inst, rs)
    targets = best_relocations(A, rs, hs.SwitchConfig(1, 0.0))
    j = routes(rs.n).index((1, 2, 3))
    assert A[j, 1] == A[j, 2]
    assert targets[j, 1] == 2 and targets[j, 2] == 2


def test_best_relocations_convention_invariant(base3, rs3):
    for t in (1, 2):
        for c in (0.0, 0.6, 2.5):
            t_total = best_relocations(base3, rs3, hs.SwitchConfig(t, c))
            t_rem = best_relocations(
                base3, rs3, hs.SwitchConfig(t, c, convention="remaining")
            )
            np.testing.assert_array_equal(t_total, t_rem)


# --------------------------------------------------------------- subgame matrix

def test_subgame_three_sites(base3, rs3):
    sub = hs.subgame_matrix(base3, rs3, 1, prefixes(rs3, 1).index((1,)), 2, 1.0)
    np.testing.assert_allclose(sub, [[2.4142, 3.4142], [4.4142, 1.4142]], atol=1e-3)


def test_subgame_derived_from_base_entries(base3, rs3):
    sub = hs.subgame_matrix(base3, rs3, 1, prefixes(rs3, 1).index((2,)), 1, 1.0)
    A = base3
    expect = [[A[2, 0], A[2, 2] - 1.0], [A[3, 0], A[3, 2] - 1.0]]
    np.testing.assert_allclose(sub, expect)
    np.testing.assert_allclose(sub, [[3.6503, 4.0645], [5.6503, 3.2361]], atol=1e-3)


def test_subgame_singleton_unvisited(base3, rs3):
    sub = hs.subgame_matrix(base3, rs3, 2, prefixes(rs3, 2).index((1, 2)), 3, 5.0)
    assert sub.shape == (1, 1)
    assert sub[0, 0] == pytest.approx(base3[0, 2])


def test_subgame_rejects_visited(base3, rs3):
    with pytest.raises(ValueError, match="visited"):
        hs.subgame_matrix(base3, rs3, 1, 0, 1, 1.0)
    with pytest.raises(ValueError, match="visited"):
        hs.subgame_matrix(base3, rs3, 1, [0, 1], 1, 1.0)  # prefix (2,) leaves 1 open
    for h in (-1, 3):
        with pytest.raises(ValueError, match="prefix index out of range"):
            hs.subgame_matrix(base3, rs3, 1, h, 2, 1.0)


def test_subgame_rejects_bad_costs(base3, rs3):
    for c in (-1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="finite and >= 0"):
            hs.subgame_matrix(base3, rs3, 1, 0, 2, c)
        # a stack's costs are checked together, and the first bad one is named
        with pytest.raises(ValueError, match=f"got {c}$"):
            hs.subgame_matrix(base3, rs3, 1, [0, 0, 0], [2, 3, 2], [0.5, c, -2.0])


@pytest.mark.parametrize("t", [1, 2, 3])
def test_subgame_stack_matches_per_prefix_oracle(t):
    # a stack of prefixes, with one start location each, equals the
    # subgames built entry by entry from the brute-force information sets
    inst = random_instance(np.random.default_rng(41), 4)
    rs = hs.enumerate_routes(4)
    A = hs.base_matrix(inst, rs)
    h, i = [], []
    for hi, nodes in enumerate(prefixes(rs, t)):
        for start in unvisited_after(rs, nodes):
            h.append(hi)
            i.append(start)
    stack = hs.subgame_matrix(A, rs, t, np.array(h), np.array(i), 0.7)
    assert stack.shape == (len(h), math.factorial(4 - t), 4 - t)
    heads = prefixes(rs, t)
    for k, (hi, start) in enumerate(zip(h, i)):
        nodes = heads[hi]
        expect = subgame(A, information_set(rs, nodes), unvisited_after(rs, nodes), start, 0.7)
        np.testing.assert_array_equal(stack[k], expect)
        np.testing.assert_array_equal(hs.subgame_matrix(A, rs, t, hi, start, 0.7), expect)


# -------------------------------------------------------------- feedback matrix

def test_feedback_three_sites(base3, rs3):
    F = hs.feedback_matrix(base3, rs3, hs.SwitchConfig(1, 1.0))
    np.testing.assert_allclose(F, ref.FEEDBACK_3_C1, atol=1e-3)
    assert F.shape == (3, 3)  # one row per prefix
    assert F[0, 0] == pytest.approx(1.0)  # visited before reveal


def test_feedback_pure_min_mode(base3, rs3):
    F = hs.feedback_matrix(
        base3, rs3, hs.SwitchConfig(1, 1.0, feedback_mode="pure_min")
    )
    # literal min over routes of the per-route best reply: for prefix (1),
    # treasure at 2, min(max(2.4142, 3.4142), max(4.4142, 1.4142))
    assert F[0, 1] == pytest.approx(3.4142, abs=1e-4)
    mixed = hs.feedback_matrix(base3, rs3, hs.SwitchConfig(1, 1.0))
    assert (F >= mixed - 1e-9).all()


@pytest.mark.parametrize("convention", ["total", "remaining"])
def test_prefix_min_of_the_sweeps_switch_games_is_pure_min_feedback(convention):
    # sweep takes each pure_min matrix as the prefix minimum of the switch
    # matrix its chunk already holds: the same bits as feedback_matrix, and
    # as the per-prefix oracle's least row maximum of every subgame
    from hideseek.experiments import _switch_games

    rng = np.random.default_rng(31)
    for n in (3, 5, 6):
        inst = random_instance(rng, n)
        rs = hs.enumerate_routes(n)
        A = hs.base_matrix(inst, rs)
        for t in range(1, n):
            cfgs = [hs.SwitchConfig(t, c, convention, "pure_min") for c in (0.0, 0.4, 2.5, 40.0)]
            ((_, As, _),) = _switch_games(A, rs, cfgs)
            F = payoff._prefix_min(As, hs.prefix_block(rs, t))
            assert np.array_equal(F, hs.feedback_matrix(A, rs, cfgs)), (n, t)
            for cfg, Fc in zip(cfgs, F):
                oracle, _ = feedback_matrices_per_prefix(A, rs, t, cfg.c, "pure_min")
                assert np.array_equal(Fc, oracle[convention]), (n, t, cfg.c)


def test_feedback_remaining_shifts_unvisited_cells(base3, rs3):
    cfg_t = hs.SwitchConfig(1, 1.0)
    cfg_r = hs.SwitchConfig(1, 1.0, convention="remaining")
    total = hs.feedback_matrix(base3, rs3, cfg_t)
    remaining = hs.feedback_matrix(base3, rs3, cfg_r)
    for hi, nodes in enumerate(prefixes(rs3, 1)):
        offset = base3[information_set(rs3, nodes)[0], nodes[-1] - 1]
        for i in range(1, 4):
            if i in nodes:
                assert remaining[hi, i - 1] == total[hi, i - 1]
            else:
                assert remaining[hi, i - 1] == pytest.approx(total[hi, i - 1] - offset)


def test_lift_feedback_three_sites(base3, rs3):
    F = hs.feedback_matrix(base3, rs3, hs.SwitchConfig(1, 1.0))
    L = lift(F)
    np.testing.assert_allclose(L, ref.LIFTED_3_C1, atol=1e-3)
    assert L[3, 0] == pytest.approx(3.9432, abs=1e-4)
    np.testing.assert_array_equal(L[0], L[1])
    np.testing.assert_array_equal(L[2], L[3])
    np.testing.assert_array_equal(L[4], L[5])


def test_lift_feedback_last_reveal_keeps_stay_payoffs(base3, rs3):
    # at t = n-1 each class is a singleton and the lone unvisited cell
    # can only stay
    F = hs.feedback_matrix(base3, rs3, hs.SwitchConfig(2, 1.0))
    L = lift(F)
    for j, route in enumerate(routes(rs3.n)):
        i = route[-1]
        assert L[j, i - 1] == pytest.approx(base3[j, i - 1])


def test_lifted_feedback_below_switch_everywhere():
    rng = np.random.default_rng(23)
    for _ in range(6):
        n = int(rng.integers(2, 6))
        inst = random_instance(rng, n)
        rs = hs.enumerate_routes(n)
        A = hs.base_matrix(inst, rs)
        for mode in ("mixed_subgame", "pure_min"):
            t = int(rng.integers(1, n))
            c = float(rng.uniform(0, 2))
            cfg = hs.SwitchConfig(t, c, feedback_mode=mode)
            S = hs.switch_matrix(A, rs, cfg)
            L = lift(hs.feedback_matrix(A, rs, cfg))
            assert (L <= S + 1e-9).all()


def test_feedback_scans_each_subgame_once(demo6, rs6, monkeypatch):
    # one gather per Held-Karp state, C(n,t)*t of them, and one saddle
    # screen per state and start location, each of the n-t unvisited ones;
    # only the subgames the screen leaves open are scanned cell by cell
    gathers, screens, scans = [], [], []
    real_subgame_matrix, real_screen, real_scan = payoff.subgame_matrix, payoff._saddle_possible, payoff._first_saddle

    def gather(A, rs, t, h, i, c):
        gathers.append(np.size(h))
        return real_subgame_matrix(A, rs, t, h, i, c)

    def screen(S):
        possible = real_screen(S)
        screens.append((len(S), int(possible.sum())))
        return possible

    monkeypatch.setattr(payoff, "subgame_matrix", gather)
    monkeypatch.setattr(payoff, "_saddle_possible", screen)
    monkeypatch.setattr(payoff, "_first_saddle", lambda S: scans.append(len(S)) or real_scan(S))
    A = hs.base_matrix(demo6, rs6)
    for t in range(1, 6):
        for lists in (gathers, screens, scans):
            lists.clear()
        cfg = hs.SwitchConfig(t, 0.5)
        F = hs.feedback_matrix(A, rs6, cfg)
        states = math.comb(6, t) * t
        assert gathers == [states], t
        assert len(screens) == 1 and screens[0][0] == states * (6 - t), t
        assert sum(scans) == screens[0][1], t
        E, saddle = feedback_matrix_dense(A, rs6, [cfg])
        exact = saddle[0] | (rs6.position_matrix[:: hs.prefix_block(rs6, t)] <= t)
        assert F[exact].tobytes() == E[0][exact].tobytes(), t
        assert np.abs(F - E[0]).max() <= 1e-12 * np.abs(A).max(), t


def _screen_instances():
    yield "integer5", hs.make_instance([0, 0], [[1, 0], [0, 1], [2, 1], [1, 2], [2, 2]])
    # two pairs of duplicated points: zero legs, and whole columns that tie
    yield "duplicated", hs.make_instance([0, 0], [[1, 2], [3, 1], [1, 2], [2, 2], [3, 1]])
    yield "six_sites", hs.load_instance(INSTANCES / "six_sites.json")


@pytest.mark.parametrize("name,inst", list(_screen_instances()))
def test_the_saddle_screen_gives_first_saddles_cell(name, inst):
    # at c = 0, at c*_route(t), one ulp either side of it and between: the
    # screen from the blocks' row maxima and column minima, and the scan of
    # the subgames it leaves open, give every subgame _first_saddle's cell
    # on its own matrix, which the shared stack materialises bit for bit
    rs = hs.enumerate_routes(inst.n)
    A = hs.base_matrix(inst, rs)
    closed = set()  # whether a subgame has a saddle: both kinds turn up
    for t in range(1, inst.n):
        cstar = hs.cstar_global(hs.cstar(A, rs, t, "route"))
        costs = np.array([0.0, 0.5 * cstar, np.nextafter(cstar, 0.0), cstar, np.nextafter(cstar, np.inf), 2 * cstar])
        state, rep = payoff._states(rs, t)
        games, cell = payoff._subgames(A, rs, t, rep, costs)
        k = rs.n - t
        c, s, j = np.indices((len(costs), len(rep), k)).reshape(3, -1)
        starts = np.nonzero(rs.position_matrix[rep * hs.prefix_block(rs, t)] > t)[1].reshape(len(rep), k)
        S = hs.subgame_matrix(A, rs, t, rep[s], starts[s, j] + 1, costs[c])
        assert np.asarray(games).tobytes() == S.tobytes(), (name, t)
        np.testing.assert_array_equal(cell, mg._first_saddle(S), err_msg=f"{name} t={t}")
        closed.update((cell >= 0).tolist())
    assert closed == {False, True}


@pytest.mark.parametrize("name", ["three_sites", "six_sites", "collinear_three", "random_6"])
def test_feedback_matrix_stack_matches_per_cost_calls(name, monkeypatch):
    # one build over several costs, its subgames of every cost scanned and
    # solved together, gives each cost's feedback_matrix bit for bit, also
    # when the subgames are split into stacks of one
    if name == "random_6":
        inst = random_instance(np.random.default_rng(1), 6)
    else:
        inst = hs.load_instance(INSTANCES / f"{name}.json")
    rs = hs.enumerate_routes(inst.n)
    A = hs.base_matrix(inst, rs)
    costs = (0.0, 0.5, 1.0, 3.0, 0.5)
    for t in range(1, rs.n):
        for convention in ("total", "remaining"):
            for mode in ("mixed_subgame", "pure_min"):
                cfgs = [hs.SwitchConfig(t, c, convention, mode) for c in costs]
                expect = [hs.feedback_matrix(A, rs, cfg) for cfg in cfgs]
                Fs = hs.feedback_matrix(A, rs, cfgs)
                assert Fs.shape == (len(costs), len(expect[0]), rs.n)
                for F, E in zip(Fs, expect):
                    assert np.array_equal(F, E), (t, convention, mode)
    monkeypatch.setattr(payoff, "_STACK_BYTES", 1)
    cfgs = [hs.SwitchConfig(1, c) for c in costs]
    for F, cfg in zip(hs.feedback_matrix(A, rs, cfgs), cfgs):
        assert np.array_equal(F, hs.feedback_matrix(A, rs, cfg))


@pytest.mark.parametrize("n", [5, 6, 7])
def test_feedback_matrix_matches_its_c_layout_recomputation(n):
    # the shared-block build moves no visited or saddle cell, and an LP cell
    # by round-off at most, against the dense oracle that gathers every
    # (cost, prefix, start) subgame and solves it in stacks stored row by
    # row, and against the same oracle on Hider-major stacks
    inst = random_instance(np.random.default_rng(n), n)
    rs = hs.enumerate_routes(n)
    A = hs.base_matrix(inst, rs)
    tol = 1e-12 * np.abs(A).max()
    lp_cells = 0
    for t in range(1, n):
        block = hs.prefix_block(rs, t)
        visited = np.broadcast_to(rs.position_matrix[::block] <= t, (4, rs.m // block, n))
        for convention in ("total", "remaining"):
            cfgs = [hs.SwitchConfig(t, c, convention) for c in (0.0, 0.5, 2.0, 8.0)]
            F = hs.feedback_matrix(A, rs, cfgs)
            assert np.swapaxes(F, 1, 2)[0].flags.c_contiguous
            for layout in ("rows", "hider"):
                E, saddle = feedback_matrix_dense(A, rs, cfgs, layout)
                exact = visited | saddle
                assert F[exact].tobytes() == E[exact].tobytes(), (t, convention, layout)
                assert (np.abs(F - E)[~exact] <= tol).all(), (t, convention, layout)
            lp_cells += np.count_nonzero(~exact)
    assert lp_cells > 0


def test_feedback_matrix_stack_validation(base3, rs3):
    with pytest.raises(ValueError, match="no switch configs"):
        hs.feedback_matrix(base3, rs3, [])
    for other in (
        hs.SwitchConfig(2, 1.0),
        hs.SwitchConfig(1, 1.0, convention="remaining"),
        hs.SwitchConfig(1, 1.0, feedback_mode="pure_min"),
    ):
        with pytest.raises(ValueError, match="share the reveal time"):
            hs.feedback_matrix(base3, rs3, [hs.SwitchConfig(1, 0.5), other])


def test_subgame_stack_takes_a_cost_per_subgame(base3, rs3):
    h, i, c = np.array([0, 0, 1]), np.array([2, 3, 3]), np.array([0.5, 1.0, 2.0])
    stack = hs.subgame_matrix(base3, rs3, 1, h, i, c)
    for k in range(3):
        np.testing.assert_array_equal(stack[k], hs.subgame_matrix(base3, rs3, 1, h[k], i[k], c[k]))
    with pytest.raises(ValueError, match="finite and >= 0"):
        hs.subgame_matrix(base3, rs3, 1, h, i, np.array([0.5, -1.0, 2.0]))


# ----------------------------------------------------------------- gap matrix

def test_entrywise_gap_three_sites(base3, rs3):
    cfg = hs.SwitchConfig(1, 1.0)
    S = hs.switch_matrix(base3, rs3, cfg)
    G, delta, cells = hs.entrywise_gap(S, hs.feedback_matrix(base3, rs3, cfg))
    np.testing.assert_allclose(G, ref.GAP_3_C1, atol=1e-3)
    assert delta == pytest.approx(ref.DELTA_3_C1, abs=1e-4)
    assert set(cells) == ref.DELTA_CELLS_3_C1


@pytest.mark.parametrize("lam", [1e-12, 1.0, 1e8])
def test_entrywise_gap_lists_the_same_cells_at_any_scale(demo3, rs3, lam):
    # the argmax cut is relative to max|As|: absolute, it let all 18 cells
    # through in units of 1e-12
    inst = hs.make_instance(
        (lam * demo3.origin.x, lam * demo3.origin.y), [(lam * p.x, lam * p.y) for p in demo3.locations]
    )
    A = hs.base_matrix(inst, rs3)
    cfg = hs.SwitchConfig(1, lam * 1.0)
    _, _, cells = hs.entrywise_gap(hs.switch_matrix(A, rs3, cfg), hs.feedback_matrix(A, rs3, cfg))
    assert set(cells) == ref.DELTA_CELLS_3_C1


def test_entrywise_gap_identical_and_large_cost(base3, rs3):
    S = hs.switch_matrix(base3, rs3, hs.SwitchConfig(1, 1.0))
    _, delta, _ = hs.entrywise_gap(S, S)
    assert delta == 0.0

    cfg = hs.SwitchConfig(1, 100.0)
    S100 = hs.switch_matrix(base3, rs3, cfg)
    F100 = hs.feedback_matrix(base3, rs3, cfg)
    _, delta100, _ = hs.entrywise_gap(S100, F100)
    assert delta100 == pytest.approx(2.0, abs=1e-4)


def test_entrywise_gap_validation(base3, rs3):
    F = hs.feedback_matrix(base3, rs3, hs.SwitchConfig(1, 1.0))
    # rows of F that do not evenly cover the routes, a row count no reveal
    # time gives (2 prefixes of 3 routes), As without n! rows, or other columns
    bad = ((base3, F[[0, 1, 2, 0]]), (base3, F[:2]), (F, base3), (base3[:3], F), (base3, F[:, :2]), (base3, F[:0]))
    for As, F_bad in bad:
        with pytest.raises(ValueError, match="shape mismatch"):
            hs.entrywise_gap(As, F_bad)
    for t in (1, 2):  # every reveal time's prefix count is accepted
        hs.entrywise_gap(base3, hs.feedback_matrix(base3, rs3, hs.SwitchConfig(t, 1.0)))


@pytest.mark.parametrize("name", ["three_sites", "six_sites", "collinear_three"])
def test_entrywise_gap_matches_the_route_lift(name):
    # comparing each prefix row with its block of routes is bit for bit the
    # route-level gap against the lifted feedback matrix
    inst = hs.load_instance(INSTANCES / f"{name}.json")
    rs = hs.enumerate_routes(inst.n)
    A = hs.base_matrix(inst, rs)
    for t in range(1, rs.n):
        for convention in ("total", "remaining"):
            cfg = hs.SwitchConfig(t, 0.5, convention=convention)
            S, F = hs.switch_matrix(A, rs, cfg), hs.feedback_matrix(A, rs, cfg)
            G, delta, cells = hs.entrywise_gap(S, F)
            expect = np.abs(S - lift(F))
            np.testing.assert_array_equal(G, expect)
            assert delta == expect.max()
            assert cells == [tuple(c) for c in np.argwhere(expect >= delta - 1e-9).tolist()]


# ------------------------------------------------------------------ matrix dump

def test_dump_matrix_roundtrip(base3):
    text = hs.dump_matrix(base3)
    lines = text.strip().splitlines()
    assert lines[0] == "row,1,2,3"
    assert len(lines) == 7
    first = lines[1].split(",")
    assert first[0] == "r1"
    np.testing.assert_allclose([float(v) for v in first[1:]], base3[0], rtol=1e-9)


def test_dump_matrix_matches_cell_by_cell_oracle(base3, rs3, demo6, rs6):
    F = hs.feedback_matrix(hs.base_matrix(demo6, rs6), rs6, hs.SwitchConfig(2, 0.5))
    for A in (base3, F, -base3):
        assert hs.dump_matrix(A) == dump_matrix_cells(A)
    labels = [f"route {j}" for j in range(len(base3))]
    assert hs.dump_matrix(base3, labels) == dump_matrix_cells(base3, labels)


@pytest.mark.parametrize("count", [2, 7], ids=["short", "long"])
def test_dump_matrix_rejects_wrong_label_count(base3, count):
    with pytest.raises(ValueError, match=f"got {count} labels for 6 rows"):
        hs.dump_matrix(base3, labels=[f"x{j}" for j in range(count)])


# ------------------------------------------- per-state versus per-prefix solve

def _equivalence_instances():
    yield "seeded6", random_instance(np.random.default_rng(606), 6)
    for name in ("three_sites", "six_sites", "collinear_three"):
        yield name, hs.load_instance(INSTANCES / f"{name}.json")
    # integer coordinates, mirror-image sites: distances, and so payoffs, tie exactly
    yield "integer5", hs.make_instance([0, 0], [[1, 0], [0, 1], [2, 1], [1, 2], [2, 2]])


@pytest.mark.parametrize("name,inst", list(_equivalence_instances()))
def test_feedback_matches_per_prefix_oracle(name, inst):
    rs = hs.enumerate_routes(inst.n)
    A = hs.base_matrix(inst, rs)
    scale = np.abs(A).max()
    past = 1.0 + max(
        hs.cstar_global(hs.cstar(A, rs, t, variant))
        for t in range(1, rs.n)
        for variant in ("route", "infoset")
    )
    for t in range(1, rs.n):
        # c*_route(t) itself: the least cost at which switch_matrix is A
        cstar_route = hs.cstar_global(hs.cstar(A, rs, t, "route"))
        for c in (0.0, 0.5, 2.0, cstar_route, past):
            for mode in ("mixed_subgame", "pure_min"):
                expect, closed = feedback_matrices_per_prefix(A, rs, t, c, mode)
                if t == rs.n - 1:
                    assert closed.all()
                for convention in ("total", "remaining"):
                    cfg = hs.SwitchConfig(t, c, convention=convention, feedback_mode=mode)
                    F = hs.feedback_matrix(A, rs, cfg)
                    where = f"{name} t={t} c={c} {convention} {mode}"
                    assert np.abs(F - expect[convention]).max() <= 1e-12 * scale, where
                    np.testing.assert_array_equal(
                        F[closed], expect[convention][closed], err_msg=where
                    )


def _traced_peak(build):
    """build()'s result and the peak of the memory traced while it ran."""
    tracemalloc.start()
    try:
        out = build()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, peak


# The slack the n = 8 memory bounds leave over what a step keeps: six
# route-length float columns, 1.8 MiB, where the int64 route tables and the
# full-size temporaries they replace took 3 to 12 MiB over it.
SLACK_COLUMNS = 6


def test_routes_and_base_matrix_peak_near_what_they_keep():
    inst = random_instance(np.random.default_rng(8), 8)

    def build():
        rs = hs.enumerate_routes(8)
        return rs, hs.base_matrix(inst, rs)

    (rs, A), peak = _traced_peak(build)
    kept = A.nbytes + rs.route_array.nbytes + rs.position_matrix.nbytes
    assert peak <= kept + SLACK_COLUMNS * rs.m * 8, (peak, kept)


@pytest.mark.parametrize("convention", payoff.CONVENTIONS)
def test_switch_matrix_holds_about_one_output_array(convention):
    rs = hs.enumerate_routes(8)
    A = hs.base_matrix(random_instance(np.random.default_rng(8), 8), rs)
    S, peak = _traced_peak(lambda: hs.switch_matrix(A, rs, hs.SwitchConfig(2, 1.0, convention)))
    assert peak <= S.nbytes + SLACK_COLUMNS * rs.m * 8, peak


def test_state_keys_keep_location_nine(monkeypatch):
    # feedback_matrix numbers the Held-Karp states of the prefixes by a key
    # whose quotient by n + 1 is the bitmask of the visited set. The route
    # tables are uint8, where location 9's bit, 1 << 8, wraps to 0, so the key
    # is built in np.intp. A wrapped bit merges no two states of one reveal
    # time, whose visited sets all have t locations, so F alone cannot show
    # it: the key is read as feedback_matrix hands it to np.unique.
    monkeypatch.setattr(route_module, "MAX_LOCATIONS", 9)
    rs = hs.enumerate_routes(9)
    assert rs.route_array.dtype == rs.position_matrix.dtype == np.uint8
    positions = np.take_along_axis(rs.position_matrix, rs.route_array - 1, axis=1)
    assert (positions == np.arange(1, 10)).all()
    A = hs.base_matrix(random_instance(np.random.default_rng(9), 9), rs)
    keys, real_unique = [], np.unique
    monkeypatch.setattr(np, "unique", lambda a, **kw: keys.append(a) or real_unique(a, **kw))
    F = hs.feedback_matrix(A, rs, hs.SwitchConfig(8, 1.0))
    monkeypatch.undo()
    assert np.array_equal(F, A)  # at t = n-1 every subgame is its stay cell
    nodes = rs.route_array[:, :8].astype(np.int64)
    assert np.array_equal(keys[0] // 10, (1 << (nodes - 1)).sum(axis=1))
