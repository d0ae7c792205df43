import math
import pathlib

import numpy as np
import pytest

import hideseek as hs
import hideseek.matrixgame as mg
import hideseek.payoff as payoff

import reference as ref
from conftest import random_instance
from oracles import (
    best_relocations,
    feedback_matrices_per_prefix,
    information_set,
    prefixes,
    reduced_payoff,
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
    np.testing.assert_allclose(base3.entries, ref.BASE_3, atol=1e-3)
    assert base3.entries[2, 0] == pytest.approx(3.6503, abs=1e-4)
    assert base3.entries[3, 1] == pytest.approx(2.2361, abs=1e-4)
    assert base3.entries[5, 0] == pytest.approx(5.6503, abs=1e-4)
    assert base3.row_kind == "route"


def test_base_matrix_single_location():
    inst = hs.make_instance((0, 0), [(3, 4)])
    A = hs.base_matrix(inst, hs.enumerate_routes(1))
    np.testing.assert_allclose(A.entries, [[5.0]])


def test_base_matrix_collinear_hand_sums():
    inst, rs = collinear_base()
    A = hs.base_matrix(inst, rs).entries
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
        A = hs.base_matrix(inst, rs).entries
        for j, route in enumerate(rs.routes):
            along = A[j, np.array(route) - 1]
            assert (np.diff(along) >= -1e-12).all()


# ------------------------------------------------------------- reduced payoff

def switch_by_oracle(A, rs, cfg):
    """switch_matrix rebuilt cell by cell as the best reduced payoff."""
    S = A.entries.copy()
    for j, route in enumerate(rs.routes):
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
            S = hs.switch_matrix(base3, rs3, cfg).entries
            np.testing.assert_array_equal(S, switch_by_oracle(base3, rs3, cfg))


def test_reduced_payoff_remaining(base3, rs3):
    cfg = hs.SwitchConfig(1, 1.0, convention="remaining")
    # total value minus the cumulative distance to the reveal node (1.0)
    assert reduced_payoff(base3, rs3, 0, cfg, 2, 3) == pytest.approx(2.4142, abs=1e-4)
    for t in (1, 2):
        for c in (0.0, 0.6, 1.0, 2.5):
            cfg = hs.SwitchConfig(t, c, convention="remaining")
            S = hs.switch_matrix(base3, rs3, cfg).entries
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
    np.testing.assert_allclose(S.entries, ref.SWITCH_3_C1, atol=1e-3)
    assert S.entries[0, 1] == pytest.approx(3.4142, abs=1e-4)
    assert S.entries[3, 2] == pytest.approx(4.6503, abs=1e-4)
    assert S.entries[4, 0] == pytest.approx(4.0645, abs=1e-4)
    assert S.cfg.t_reveal == 1 and S.cfg.c == 1.0


def test_switch_matrix_free_switching_hits_row_max(base3, rs3):
    S = hs.switch_matrix(base3, rs3, hs.SwitchConfig(1, 0.0)).entries
    for j, route in enumerate(rs3.routes):
        last = route[-1]
        for i in route[1:]:
            assert S[j, i - 1] == pytest.approx(base3.entries[j, last - 1])


def test_switch_matrix_collapses_for_large_cost(base3, rs3):
    # the largest residual gain on this instance is 2.0, so c=100 kills
    # every switch
    A = base3.entries
    residual = max(
        A[j, route[-1] - 1] - A[j, i - 1]
        for j, route in enumerate(rs3.routes)
        for i in route[1:]
    )
    assert residual == pytest.approx(2.0, abs=1e-9)
    S = hs.switch_matrix(base3, rs3, hs.SwitchConfig(1, 100.0))
    np.testing.assert_allclose(S.entries, A)
    S2 = hs.switch_matrix(base3, rs3, hs.SwitchConfig(1, residual))
    np.testing.assert_allclose(S2.entries, A)


def test_switch_matrix_remaining_is_total_minus_reveal_cost(base3, rs3):
    for t in (1, 2):
        cfg_t = hs.SwitchConfig(t, 0.7)
        cfg_r = hs.SwitchConfig(t, 0.7, convention="remaining")
        total = hs.switch_matrix(base3, rs3, cfg_t).entries
        remaining = hs.switch_matrix(base3, rs3, cfg_r).entries
        for j, route in enumerate(rs3.routes):
            offset = base3.entries[j, route[t - 1] - 1]
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
            S = hs.switch_matrix(A, rs, hs.SwitchConfig(t, c)).entries
            assert (S >= A.entries - 1e-12).all()


def test_switch_matrix_t_range(base3, rs3):
    with pytest.raises(ValueError, match="out of range"):
        hs.switch_matrix(base3, rs3, hs.SwitchConfig(3, 1.0))


def test_switch_config_validation():
    for c in (-0.5, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="finite and >= 0"):
            hs.SwitchConfig(1, c)
    with pytest.raises(ValueError, match="convention"):
        hs.SwitchConfig(1, 1.0, convention="other")
    with pytest.raises(ValueError, match="feedback_mode"):
        hs.SwitchConfig(1, 1.0, feedback_mode="other")


# ------------------------------------------------------------ best relocations

def test_best_relocations_match_switch_values(base3, rs3):
    cfg = hs.SwitchConfig(1, 1.0)
    S = hs.switch_matrix(base3, rs3, cfg).entries
    targets = best_relocations(base3, rs3, cfg)
    for j, route in enumerate(rs3.routes):
        for i in route[1:]:
            hat = targets[j, i - 1]
            got = base3.entries[j, hat - 1] - (1.0 if hat != i else 0.0)
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
    j = rs.routes.index((1, 2, 3))
    assert A.entries[j, 1] == A.entries[j, 2]
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
    np.testing.assert_allclose(sub.entries, [[2.4142, 3.4142], [4.4142, 1.4142]], atol=1e-3)


def test_subgame_derived_from_base_entries(base3, rs3):
    sub = hs.subgame_matrix(base3, rs3, 1, prefixes(rs3, 1).index((2,)), 1, 1.0)
    A = base3.entries
    expect = [[A[2, 0], A[2, 2] - 1.0], [A[3, 0], A[3, 2] - 1.0]]
    np.testing.assert_allclose(sub.entries, expect)
    np.testing.assert_allclose(sub.entries, [[3.6503, 4.0645], [5.6503, 3.2361]], atol=1e-3)


def test_subgame_singleton_unvisited(base3, rs3):
    sub = hs.subgame_matrix(base3, rs3, 2, prefixes(rs3, 2).index((1, 2)), 3, 5.0)
    assert sub.entries.shape == (1, 1)
    assert sub.entries[0, 0] == pytest.approx(base3.entries[0, 2])


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
        np.testing.assert_array_equal(hs.subgame_matrix(A, rs, t, hi, start, 0.7).entries, expect)


# -------------------------------------------------------------- feedback matrix

def test_feedback_three_sites(base3, rs3):
    F = hs.feedback_matrix(base3, rs3, hs.SwitchConfig(1, 1.0))
    np.testing.assert_allclose(F.entries, ref.FEEDBACK_3_C1, atol=1e-3)
    assert F.row_kind == "prefix"
    assert F.entries[0, 0] == pytest.approx(1.0)  # visited before reveal


def test_feedback_pure_min_mode(base3, rs3):
    F = hs.feedback_matrix(
        base3, rs3, hs.SwitchConfig(1, 1.0, feedback_mode="pure_min")
    )
    # literal min over routes of the per-route best reply: for prefix (1),
    # treasure at 2, min(max(2.4142, 3.4142), max(4.4142, 1.4142))
    assert F.entries[0, 1] == pytest.approx(3.4142, abs=1e-4)
    mixed = hs.feedback_matrix(base3, rs3, hs.SwitchConfig(1, 1.0))
    assert (F.entries >= mixed.entries - 1e-9).all()


def test_feedback_remaining_shifts_unvisited_cells(base3, rs3):
    cfg_t = hs.SwitchConfig(1, 1.0)
    cfg_r = hs.SwitchConfig(1, 1.0, convention="remaining")
    total = hs.feedback_matrix(base3, rs3, cfg_t).entries
    remaining = hs.feedback_matrix(base3, rs3, cfg_r).entries
    for hi, nodes in enumerate(prefixes(rs3, 1)):
        offset = base3.entries[information_set(rs3, nodes)[0], nodes[-1] - 1]
        for i in range(1, 4):
            if i in nodes:
                assert remaining[hi, i - 1] == total[hi, i - 1]
            else:
                assert remaining[hi, i - 1] == pytest.approx(total[hi, i - 1] - offset)


def test_lift_feedback_three_sites(base3, rs3):
    F = hs.feedback_matrix(base3, rs3, hs.SwitchConfig(1, 1.0))
    L = hs.lift_feedback(F)
    np.testing.assert_allclose(L.entries, ref.LIFTED_3_C1, atol=1e-3)
    assert L.entries[3, 0] == pytest.approx(3.9432, abs=1e-4)
    np.testing.assert_array_equal(L.entries[0], L.entries[1])
    np.testing.assert_array_equal(L.entries[2], L.entries[3])
    np.testing.assert_array_equal(L.entries[4], L.entries[5])
    assert L.row_kind == "route"


def test_lift_feedback_last_reveal_keeps_stay_payoffs(base3, rs3):
    # at t = n-1 each class is a singleton and the lone unvisited cell
    # can only stay
    F = hs.feedback_matrix(base3, rs3, hs.SwitchConfig(2, 1.0))
    L = hs.lift_feedback(F).entries
    for j, route in enumerate(rs3.routes):
        i = route[-1]
        assert L[j, i - 1] == pytest.approx(base3.entries[j, i - 1])


def test_lift_feedback_validation(base3, rs3):
    with pytest.raises(ValueError, match="prefix-indexed"):
        hs.lift_feedback(base3)
    with pytest.raises(ValueError, match="do not split"):
        hs.lift_feedback(hs.PayoffMatrix(np.zeros((4, 3)), row_kind="prefix"))


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
            S = hs.switch_matrix(A, rs, cfg).entries
            L = hs.lift_feedback(hs.feedback_matrix(A, rs, cfg)).entries
            assert (L <= S + 1e-9).all()


def test_feedback_scans_each_subgame_once(demo6, rs6, monkeypatch):
    # one saddle scan per Held-Karp state and start location: C(n,t)*t
    # states, each with n-t unvisited start locations, scanned in stacks
    games = []
    real = mg._saddle_mask

    def spy(A, *args, **kwargs):
        games.append(A.shape[0] if A.ndim == 3 else 1)
        return real(A, *args, **kwargs)

    monkeypatch.setattr(payoff, "_saddle_mask", spy)
    A = hs.base_matrix(demo6, rs6)
    for t in range(1, 6):
        games.clear()
        hs.feedback_matrix(A, rs6, hs.SwitchConfig(t, 0.5))
        assert sum(games) == math.comb(6, t) * t * (6 - t), t


# ----------------------------------------------------------------- gap matrix

def test_entrywise_gap_three_sites(base3, rs3):
    cfg = hs.SwitchConfig(1, 1.0)
    S = hs.switch_matrix(base3, rs3, cfg)
    L = hs.lift_feedback(hs.feedback_matrix(base3, rs3, cfg))
    G, delta, cells = hs.entrywise_gap(S, L)
    np.testing.assert_allclose(G.entries, ref.GAP_3_C1, atol=1e-3)
    assert delta == pytest.approx(ref.DELTA_3_C1, abs=1e-4)
    assert set(cells) == ref.DELTA_CELLS_3_C1


def test_entrywise_gap_identical_and_large_cost(base3, rs3):
    S = hs.switch_matrix(base3, rs3, hs.SwitchConfig(1, 1.0))
    _, delta, _ = hs.entrywise_gap(S, S)
    assert delta == 0.0

    cfg = hs.SwitchConfig(1, 100.0)
    S100 = hs.switch_matrix(base3, rs3, cfg)
    L100 = hs.lift_feedback(hs.feedback_matrix(base3, rs3, cfg))
    _, delta100, _ = hs.entrywise_gap(S100, L100)
    assert delta100 == pytest.approx(2.0, abs=1e-4)


def test_entrywise_gap_validation(base3, rs3):
    F = hs.feedback_matrix(base3, rs3, hs.SwitchConfig(1, 1.0))
    with pytest.raises(ValueError, match="shape"):
        hs.entrywise_gap(base3, F)
    # same 6x3 shape but still prefix-indexed: t=2 classes are singletons
    F2 = hs.feedback_matrix(base3, rs3, hs.SwitchConfig(2, 1.0))
    with pytest.raises(ValueError, match="route-indexed"):
        hs.entrywise_gap(hs.switch_matrix(base3, rs3, hs.SwitchConfig(2, 1.0)), F2)


# ------------------------------------------------------------------ matrix dump

def test_dump_matrix_roundtrip(base3):
    text = hs.dump_matrix(base3)
    lines = text.strip().splitlines()
    assert lines[0] == "row,1,2,3"
    assert len(lines) == 7
    first = lines[1].split(",")
    assert first[0] == "r1"
    np.testing.assert_allclose([float(v) for v in first[1:]], base3.entries[0], rtol=1e-9)


def test_dump_matrix_prefix_labels(base3, rs3):
    F = hs.feedback_matrix(base3, rs3, hs.SwitchConfig(1, 1.0))
    lines = hs.dump_matrix(F).strip().splitlines()
    assert lines[1].startswith("h1,")


# ------------------------------------------- per-state versus per-prefix solve

def _equivalence_instances():
    yield "seeded6", random_instance(np.random.default_rng(606), 6)
    for name in ("three_sites", "six_sites", "collinear_three"):
        yield name, hs.load_instance(INSTANCES / f"{name}.json")


@pytest.mark.parametrize("name,inst", list(_equivalence_instances()))
def test_feedback_matches_per_prefix_oracle(name, inst):
    rs = hs.enumerate_routes(inst.n)
    A = hs.base_matrix(inst, rs)
    scale = np.abs(A.entries).max()
    past = 1.0 + max(
        hs.cstar_global(hs.cstar(A, rs, t, variant))
        for t in range(1, rs.n)
        for variant in ("route", "infoset")
    )
    for t in range(1, rs.n):
        for c in (0.0, 0.5, 2.0, past):
            for mode in ("mixed_subgame", "pure_min"):
                expect, closed = feedback_matrices_per_prefix(A, rs, t, c, mode)
                if t == rs.n - 1:
                    assert closed.all()
                for convention in ("total", "remaining"):
                    cfg = hs.SwitchConfig(t, c, convention=convention, feedback_mode=mode)
                    F = hs.feedback_matrix(A, rs, cfg).entries
                    where = f"{name} t={t} c={c} {convention} {mode}"
                    assert np.abs(F - expect[convention]).max() <= 1e-12 * scale, where
                    np.testing.assert_array_equal(
                        F[closed], expect[convention][closed], err_msg=where
                    )
