"""The switch build read from a route's last visit, and the sweep's tail: the
costs at which a reveal time's total-convention switch matrix is the base
matrix, whose cells share one solved game."""

import math
import pathlib
import sys

import numpy as np
import pytest

import hideseek as hs
from hideseek import experiments
from hideseek.payoff import _switch_tail

from oracles import cstar_route_masked, sweep_cells, switch_matrix_masked

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "hsbench"))
import workloads  # noqa: E402

sys.path.remove(str(ROOT / "hsbench"))

# duplicate points: zero legs, so entries along a route tie exactly
DUPLICATES = hs.make_instance([0, 0], [[1, 0], [1, 0], [2, 1], [0, 0], [2, 1]])


def _seeded(n, seed):
    d = workloads.make_instance(n, seed)
    return hs.make_instance(d["origin"], d["locations"])


def _instances():
    for n in range(3, 8):
        for seed in (1, 2):
            yield f"seeded{n}.{seed}", _seeded(n, seed)
    for name in ("three_sites", "six_sites", "collinear_three"):
        yield name, hs.load_instance(ROOT / "instances" / f"{name}.json")
    yield "duplicates", DUPLICATES


def _edge_costs(A, rs, t):
    """0, c*_route(t)/2, c*, the floats either side of c*, and 2c* + 1."""
    cs = hs.cstar_global(hs.cstar(A, rs, t, "route"))
    grid = (0.0, cs / 2, cs, np.nextafter(cs, np.inf), np.nextafter(cs, -np.inf), 2 * cs + 1)
    return [float(c) for c in grid if c >= 0]


def _grid():
    """(name, A, rs, t) over every reveal time of _instances, and the seeded
    eight-site instance at three of them."""
    for name, inst in _instances():
        rs = hs.enumerate_routes(inst.n)
        A = hs.base_matrix(inst, rs)
        for t in range(1, inst.n):
            yield name, A, rs, t
    rs = hs.enumerate_routes(8)
    A = hs.base_matrix(_seeded(8, 1), rs)
    for t in (1, 4, 7):
        yield "seeded8.1", A, rs, t


GRID = list(_grid())


def test_switch_matrix_and_route_threshold_match_the_masked_builds():
    for name, A, rs, t in GRID:
        assert hs.cstar(A, rs, t, "route").tobytes() == cstar_route_masked(A, rs, t).tobytes(), (name, t)
        for c in _edge_costs(A, rs, t):
            for convention in ("total", "remaining"):
                cfg = hs.SwitchConfig(t, c, convention)
                where = f"{name} t={t} c={c!r} {convention}"
                assert hs.switch_matrix(A, rs, cfg).tobytes() == switch_matrix_masked(A, rs, cfg).tobytes(), where


def test_the_tail_is_where_the_switch_matrix_is_the_base_matrix():
    for name, A, rs, t in GRID:
        costs = _edge_costs(A, rs, t)
        expect = [np.array_equal(hs.switch_matrix(A, rs, hs.SwitchConfig(t, c)), A) for c in costs]
        assert _switch_tail(A, rs, t, costs).tolist() == expect, (name, t)
    # at t = n-1 every cost is in the tail
    assert _switch_tail(A, rs, rs.n - 1, [0.0, 1.0]).all()


def test_the_route_threshold_itself_can_lie_outside_the_tail():
    # seeded five sites at t = 1: some route's last visit less c*_route(1)
    # still pays more than its second visit, so the switch matrix is not A
    inst = _seeded(5, 2)
    rs = hs.enumerate_routes(5)
    A = hs.base_matrix(inst, rs)
    cs = hs.cstar_global(hs.cstar(A, rs, 1, "route"))
    assert not np.array_equal(hs.switch_matrix(A, rs, hs.SwitchConfig(1, cs)), A)
    assert _switch_tail(A, rs, 1, [cs, 2 * cs]).tolist() == [False, True]
    # and seeded three sites at t = 1: a cost just below it already in it
    inst = _seeded(3, 1)
    rs = hs.enumerate_routes(3)
    A = hs.base_matrix(inst, rs)
    below = float(np.nextafter(hs.cstar_global(hs.cstar(A, rs, 1, "route")), -np.inf))
    assert np.array_equal(hs.switch_matrix(A, rs, hs.SwitchConfig(1, below)), A)
    assert _switch_tail(A, rs, 1, [below]).tolist() == [True]


def _sweep_grid(inst):
    """Costs at and either side of every reveal time's c*_route(t), t = n-1's
    included, with 0 and a tail cost repeated."""
    rs = hs.enumerate_routes(inst.n)
    A = hs.base_matrix(inst, rs)
    grid = [c for t in range(1, inst.n) for c in _edge_costs(A, rs, t)[1:5]]
    top = 2 * max(grid) + 1
    return grid + [0.0, top, top]


def _chunk_sizes(inst, chunk):
    """experiments._CHUNK_BYTES and payoff._STACK_BYTES: as they are, 1 so that
    every game is its own stack, or three games per chunk and three t = 1
    subgames per stack."""
    if chunk == "as_is":
        return experiments._CHUNK_BYTES, hs.payoff._STACK_BYTES
    if chunk == "one":
        return 1, 1
    n = inst.n
    return 3 * math.factorial(n) * n * 8, 3 * math.factorial(n - 1) * (n - 1) * 8


@pytest.mark.parametrize("name", ["seeded4.1", "seeded5.2", "collinear_three", "duplicates"])
def test_sweep_tail_rows_match_the_per_cell_oracle(name, monkeypatch):
    inst = dict(_instances())[name]
    grid = _sweep_grid(inst)
    for convention in ("total", "remaining"):
        for mode in ("mixed_subgame", "pure_min"):
            kwargs = dict(c_grid=grid, convention=convention, feedback_mode=mode)
            expect = hs.sweep_to_csv(sweep_cells(inst, **kwargs))
            for chunk in ("as_is", "one", "split"):
                chunk_bytes, stack_bytes = _chunk_sizes(inst, chunk)
                with monkeypatch.context() as mp:
                    mp.setattr(experiments, "_CHUNK_BYTES", chunk_bytes)
                    mp.setattr(hs.payoff, "_STACK_BYTES", stack_bytes)
                    got = hs.sweep_to_csv(hs.sweep(inst, **kwargs))
                assert got == expect, f"{name} {convention} {mode} chunk={chunk}"


@pytest.mark.parametrize("convention", ["total", "remaining"])
@pytest.mark.parametrize("mode", ["mixed_subgame", "pure_min"])
def test_tail_cells_build_no_switch_matrix_and_add_one_feedback_game(convention, mode, monkeypatch):
    inst = _seeded(6, 1)
    rs = hs.enumerate_routes(6)
    A = hs.base_matrix(inst, rs)
    built, fed, solved = [], [], []

    def spy_switch(A, rs, cfg):
        built.append((cfg.t_reveal, cfg.c))
        return hs.switch_matrix(A, rs, cfg)

    def spy_feedback(A, rs, cfgs):
        fed.extend((cfg.t_reveal, cfg.c) for cfg in cfgs)
        return hs.feedback_matrix(A, rs, cfgs)

    def spy_solve(S):
        solved.append(S.shape)
        return hs.matrixgame.solve_games(S)

    monkeypatch.setattr(experiments, "switch_matrix", spy_switch)
    monkeypatch.setattr(experiments, "feedback_matrix", spy_feedback)
    monkeypatch.setattr(experiments, "solve_games", spy_solve)
    rows = hs.sweep(inst, convention=convention, feedback_mode=mode)

    costs = sorted({r.c for r in rows})
    heads, tails = {}, {}
    for t in range(1, 6):
        tail = _switch_tail(A, rs, t, costs)
        heads[t] = [c for c, same in zip(costs, tail) if not same]
        tails[t] = [c for c, same in zip(costs, tail) if same]
        assert tails[t], t  # the default grid runs past every reveal time's threshold
    assert sum(map(len, tails.values())) == 72  # of 125 cells
    # a tail cost's switch game is built once per reveal time under remaining, never under total
    once = convention == "remaining"
    assert sorted(built) == sorted((t, c) for t in heads for c in heads[t] + tails[t][:once])
    assert sorted(fed) == ([] if mode == "pure_min" else sorted((t, c) for t in heads for c in heads[t]))
    # the feedback games each reveal time solves: one per head cost and one
    # for its tail, but at t = n-1, where the tail's feedback game is its switch game
    for t in range(1, 5):
        rows_t = math.factorial(6) // math.factorial(6 - t)
        assert sum(G for G, m, _ in solved if m == rows_t) == len(heads[t]) + 1, t
    switch_games = 1 + sum(len(h) for h in heads.values()) + once * len(tails)
    assert sum(G for G, m, _ in solved if m == rs.m) == switch_games


@pytest.mark.parametrize("convention", ["total", "remaining"])
def test_verify_solves_one_game_for_the_first_reveal_times_tail(convention, monkeypatch):
    inst = _seeded(6, 1)
    rs = hs.enumerate_routes(6)
    A = hs.base_matrix(inst, rs)
    rows = hs.sweep(inst, convention=convention)
    costs = sorted({r.c for r in rows})
    tail = _switch_tail(A, rs, 1, costs)
    head = [c for c, same in zip(costs, tail) if not same]
    games = []
    real = experiments._switch_games

    def spy(A, rs, cfgs):
        games.extend(cfgs)
        return real(A, rs, cfgs)

    monkeypatch.setattr(experiments, "_switch_games", spy)
    assert hs.verify_bounds(rows, inst=inst, convention=convention).passed
    one = None if convention == "total" else hs.SwitchConfig(1, costs[len(head)], convention)
    assert games == [hs.SwitchConfig(1, c, convention) for c in head] + [one]
