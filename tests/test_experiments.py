import dataclasses
import math
import pathlib
import sys
import threading
import time
import tracemalloc
from unittest import mock

import numpy as np
from numpy.random import Generator, Philox, SeedSequence
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hideseek as hs
from hideseek import cli, experiments

import reference as ref
from conftest import random_instance
import oracles
from oracles import default_cost_grid, draw_full_cdf, sweep_cells, sweep_to_csv_cells

INSTANCES = pathlib.Path(__file__).resolve().parents[1] / "instances"


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
    grid = oracles.default_cost_grid(demo3)
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


def test_sweep_to_csv_matches_field_by_field_oracle(demo3, demo6):
    for inst in (demo3, demo6):
        rows = hs.sweep(inst, t_list=[1, 2], c_grid=[0.0, 0.5, 1.0, 100.0])
        assert hs.sweep_to_csv(rows) == sweep_to_csv_cells(rows)
    assert hs.sweep_to_csv([]) == sweep_to_csv_cells([])


def _sweep_instance(name):
    if name == "random_6":
        return random_instance(np.random.default_rng(1), 6)
    return hs.load_instance(INSTANCES / f"{name}.json")


@pytest.mark.parametrize("name", ["three_sites", "six_sites", "collinear_three", "random_6"])
def test_sweep_matches_the_per_cell_oracle(name):
    # solving the games of many (t, c) cells together leaves every CSV byte
    # as solving each cell on its own did
    inst = _sweep_instance(name)
    for convention in ("total", "remaining"):
        for mode in ("mixed_subgame", "pure_min"):
            kwargs = dict(convention=convention, feedback_mode=mode)
            assert hs.sweep_to_csv(hs.sweep(inst, **kwargs)) == hs.sweep_to_csv(sweep_cells(inst, **kwargs))
    grid = [1.0, 0.5, 1.0, 0.0, 1.0]  # repeated costs give repeated rows
    rows = hs.sweep(inst, c_grid=grid)
    assert [r.c for r in rows] == sorted(grid) * (inst.n - 1)
    assert hs.sweep_to_csv(rows) == hs.sweep_to_csv(sweep_cells(inst, c_grid=grid))


def _chunk_sizes(inst, chunk):
    """experiments._CHUNK_BYTES and payoff._STACK_BYTES: 1, so that every
    game is its own stack, or sizes that cut a sweep's games (the base game
    first) into chunks of 4, so that each reveal time's 7 costs span two
    chunks, and the t = 1 subgames of one cost into stacks of 3."""
    if chunk == "one":
        return 1, 1
    n = inst.n
    return 4 * math.factorial(n) * n * 8, 3 * math.factorial(n - 1) * (n - 1) * 8


@pytest.mark.parametrize("chunk", ["one", "split"])
@pytest.mark.parametrize("name", ["three_sites", "six_sites", "collinear_three", "random_6"])
def test_sweep_chunk_bounds_move_no_byte(name, chunk, monkeypatch):
    # the sweep's games go to solve_games in chunks of (t, c) cells, and its
    # subgames in stacks, whose bounds change no CSV byte: every fourth cost
    # of the default grid, as each cell on its own gives it
    inst = _sweep_instance(name)
    grid = default_cost_grid(inst, hs.enumerate_routes(inst.n), t=1)[::4]
    expect = {}
    for convention in ("total", "remaining"):
        for mode in ("mixed_subgame", "pure_min"):
            kwargs = dict(c_grid=grid, convention=convention, feedback_mode=mode)
            expect[convention, mode] = hs.sweep_to_csv(sweep_cells(inst, **kwargs))
    chunk_bytes, stack_bytes = _chunk_sizes(inst, chunk)
    monkeypatch.setattr(experiments, "_CHUNK_BYTES", chunk_bytes)
    monkeypatch.setattr(hs.payoff, "_STACK_BYTES", stack_bytes)
    for (convention, mode), csv in expect.items():
        assert hs.sweep_to_csv(hs.sweep(inst, c_grid=grid, convention=convention, feedback_mode=mode)) == csv


@pytest.mark.parametrize("chunk", ["one", "split"])
def test_verify_output_does_not_depend_on_the_chunk_bounds(chunk, capsys, monkeypatch):
    path = str(INSTANCES / "six_sites.json")
    argv = ["verify", path, "--costs", "0,0.5,1,1.5,2,3,4,6,9"]
    assert cli.main(argv) == 0
    expect = capsys.readouterr().out
    chunk_bytes, stack_bytes = _chunk_sizes(hs.load_instance(path), chunk)
    monkeypatch.setattr(experiments, "_CHUNK_BYTES", chunk_bytes)
    monkeypatch.setattr(hs.payoff, "_STACK_BYTES", stack_bytes)
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == expect


# LP calls of the default-grid sweep of instances/six_sites.json: none, as
# the base game goes to solve_games too; solving cell by cell takes 310
SWEEP6_LP_CALLS = 0


def test_sweep_lp_calls_stay_bounded(monkeypatch):
    # the six-site default-grid sweep solves the base game, the switch games
    # and the feedback subgames and values of every (t, c) cell by
    # solve_games' simplex
    inst = hs.load_instance(INSTANCES / "six_sites.json")
    calls = []
    real_col_lp = hs.matrixgame._col_lp

    def counting_col_lp(A):
        calls.append(1)
        return real_col_lp(A)

    monkeypatch.setattr(hs.matrixgame, "_col_lp", counting_col_lp)
    hs.sweep(inst)
    assert len(calls) == SWEEP6_LP_CALLS


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

def test_simulate_base_converges(rs3, base3):
    sol = hs.solve_zero_sum(base3)
    res = hs.simulate(
        base3, rs3, "base", sol.row_strategy, sol.col_strategy,
        t=1, c=0.0, trials=1_000_000, seed=101,
    )
    assert abs(res.mean_payoff - sol.value) <= 4 * res.payoff_stderr
    closed = oracles.termination_probability(rs3, sol.row_strategy, sol.col_strategy, 1)
    assert abs(res.empirical_end_by_t - closed) <= mc_tolerance(closed, res.trials, k=3.0)


def test_simulate_restricted_converges(rs3, base3):
    S = hs.switch_matrix(base3, rs3, hs.SwitchConfig(1, 1.0))
    sol = hs.solve_zero_sum(S)
    res = hs.simulate(
        S, rs3, "restricted", sol.row_strategy, sol.col_strategy,
        t=1, c=1.0, trials=1_000_000, seed=103,
    )
    assert abs(res.mean_payoff - sol.value) <= 4 * res.payoff_stderr
    assert res.model == "restricted"


def test_simulate_feedback_converges(rs3, base3):
    cfg = hs.SwitchConfig(1, 1.0)
    sol = hs.solve_zero_sum(hs.feedback_matrix(base3, rs3, cfg))
    res = hs.simulate(
        base3, rs3, "feedback", sol.row_strategy, sol.col_strategy,
        t=1, c=1.0, trials=400_000, seed=107,
    )
    assert abs(res.mean_payoff - sol.value) <= 4 * res.payoff_stderr
    assert res.mean_payoff == pytest.approx(ref.VALUE_FEEDBACK_3_C1, abs=0.02)


def test_simulate_full_horizon_always_ends(base3, rs3):
    y = np.full(6, 1 / 6)
    z = np.full(3, 1 / 3)
    for model in ("base", "restricted", "feedback"):
        res = hs.simulate(base3, rs3, model, y, z, t=3, c=1.0, trials=500, seed=5)
        assert res.empirical_end_by_t == 1.0


def test_simulate_reproducible_and_seed_sensitive(base3, rs3):
    y = np.full(6, 1 / 6)
    z = np.array([0.5, 0.25, 0.25])
    S = hs.switch_matrix(base3, rs3, hs.SwitchConfig(1, 1.0))
    a = hs.simulate(S, rs3, "restricted", y, z, t=1, c=1.0, trials=20_000, seed=42)
    b = hs.simulate(S, rs3, "restricted", y, z, t=1, c=1.0, trials=20_000, seed=42)
    assert a == b
    c = hs.simulate(S, rs3, "restricted", y, z, t=1, c=1.0, trials=20_000, seed=43)
    assert c.mean_payoff != a.mean_payoff


@settings(max_examples=30, deadline=None, database=None, derandomize=True)
@given(
    data=st.data(),
    trials=st.integers(1, 3_000),
    seed=st.integers(0, 2**32 - 1),
    model=st.sampled_from(["restricted", "feedback"]),
)
def test_simulate_block_invariance(base3, rs3, data, trials, seed, model):
    # the cell histogram makes every result exact for any block size
    y = np.array([0.1, 0.2, 0.05, 0.3, 0.15, 0.2])
    A = hs.switch_matrix(base3, rs3, hs.SwitchConfig(1, 0.8))
    if model == "feedback":
        y = y.reshape(3, 2).sum(axis=1)  # the feedback Seeker picks a prefix
        A = base3
    z = np.array([0.2, 0.45, 0.35])
    block = data.draw(st.integers(1, trials + 1), label="block")
    run = lambda: hs.simulate(A, rs3, model, y, z, t=1, c=0.8, trials=trials, seed=seed)
    whole = run()
    with mock.patch.object(experiments, "_BLOCK", block):
        assert run() == whole


# (instance, t, c): (mean_payoff, payoff_stderr, empirical_end_by_t) of the
# feedback playout at the prefix game's equilibrium, 20,000 trials, seed 11,
# as recorded when the playout still drew a route from the route lift of the
# prefix mix
FEEDBACK_PLAYOUTS = {
    ("three_sites", 1, 0.5): (3.159138562373095, 0.006833999370509175, 0.0),
    ("three_sites", 1, 1.0): (2.9138635623730953, 0.0061095711975564125, 0.0),
    ("three_sites", 2, 0.5): (3.316112951967224, 0.007642104468492786, 0.74405),
    ("three_sites", 2, 1.0): (3.316112951967224, 0.007642104468492786, 0.74405),
    ("six_sites", 1, 0.5): (7.884066549446396, 0.01720870814556072, 0.0038),
    ("six_sites", 1, 1.0): (7.6589469846626335, 0.01721437590509516, 0.00845),
    ("six_sites", 2, 0.5): (8.191131722085341, 0.017054125468527637, 0.008),
    ("six_sites", 2, 1.0): (7.963347217948876, 0.016910613201987026, 0.01775),
}


@pytest.mark.parametrize("key", sorted(FEEDBACK_PLAYOUTS), ids=lambda k: "-".join(map(str, k)))
def test_feedback_playout_draws_a_prefix(key):
    # The same trials end by t and pay the same cells as when a route was
    # drawn, so the ended share and the stderr are bit-identical. The mean
    # sums the histogram in another order, because a prefix's ended trials
    # now count in one cell instead of across its routes: within 2 ulp.
    name, t, c = key
    inst = hs.load_instance(INSTANCES / f"{name}.json")
    rs = hs.enumerate_routes(inst.n)
    A = hs.base_matrix(inst, rs)
    sol = hs.solve_zero_sum(hs.feedback_matrix(A, rs, hs.SwitchConfig(t, c)))
    res = hs.simulate(A, rs, "feedback", sol.row_strategy, sol.col_strategy, t, c, 20_000, 11)
    mean, stderr, ended = FEEDBACK_PLAYOUTS[key]
    assert abs(res.mean_payoff - mean) <= 2 * math.ulp(mean)
    assert (res.payoff_stderr, res.empirical_end_by_t) == (stderr, ended)


WEIGHTS = st.one_of(st.sampled_from([0.0, 5e-324, 1e-300, 1e-17, 0.25, 1.0]), st.floats(0.0, 4.0))


def mixes(data, tail):
    """A mix as simulate may meet it: zero-weight rows inside and after the
    support, weights of 5e-324 and 1e-300, a total that rounds below or
    above 1, or dyadic weights whose cdf entries fall on bucket edges."""
    if data.draw(st.booleans(), label="dyadic"):
        parts = data.draw(st.lists(st.integers(0, 8), min_size=1, max_size=10), label="parts")
        whole = 1 << sum(parts).bit_length()  # a power of two past their sum
        w = np.append(parts, whole - sum(parts)) / whole
    else:
        raw = np.array(data.draw(st.lists(WEIGHTS, min_size=1, max_size=10), label="weights"))
        total = raw.sum()
        w = raw / total if total > 0 else raw
        w = w * data.draw(st.sampled_from([1.0, 1 - 2**-45, 1 + 2**-45]), label="total")
    return np.append(w, np.zeros(tail))


@settings(max_examples=400, deadline=None, database=None, derandomize=True)
@given(data=st.data(), tail=st.integers(0, 3), k=st.integers(0, 6), count=st.integers(1, 3))
def test_support_draw_matches_the_full_cdf_search(data, tail, k, count):
    # count mixes share one table of 2^k buckets a row, as a feedback
    # playout's subgames do; at small k a support is wider than the table
    # and every bucket holds the sentinel. Uniforms on the bucket edges
    # j/2^k and on the cdf's steps, one ulp either side of each.
    ws = [mixes(data, tail) for _ in range(count)]
    supports = [experiments._support(w, 3 + 7 * np.arange(len(w))) for w in ws]
    table = experiments._guide(supports, 2**k, np.min_scalar_type(3 + 7 * max(map(len, ws))))
    points = np.concatenate([np.arange(2**k) / 2**k, *(cdf for cdf, _ in supports)])
    points = np.concatenate([points, np.nextafter(points, 0.0), np.nextafter(points, 1.0)])
    uniform = st.one_of(st.floats(0.0, 1.0, exclude_max=True), st.sampled_from(points[points < 1.0].tolist()))
    u = np.array(data.draw(st.lists(uniform, min_size=1, max_size=30), label="u"))
    slot = np.array(data.draw(st.lists(st.integers(0, count - 1), min_size=len(u), max_size=len(u)), label="slot"))
    drawn = experiments._draw_at(table, supports, slot * table.shape[1], u)
    expected = [3 + 7 * draw_full_cdf(ws[g], x) for g, x in zip(slot, u)]
    np.testing.assert_array_equal(drawn, expected)
    if count == 1:  # one support for every uniform, as a trial's first two draws
        np.testing.assert_array_equal(experiments._draw_at(table, supports, 0, u), expected)


@pytest.mark.parametrize("model", ["base", "restricted", "feedback"])
def test_simulate_counts_match_the_full_cdf_search(model):
    # the equilibrium mixes of six_sites leave most rows at zero weight
    inst = hs.load_instance(INSTANCES / "six_sites.json")
    rs = hs.enumerate_routes(inst.n)
    A = hs.base_matrix(inst, rs)
    cfg = hs.SwitchConfig(2, 0.5)
    game = {"base": A, "restricted": hs.switch_matrix(A, rs, cfg), "feedback": hs.feedback_matrix(A, rs, cfg)}
    sol = hs.solve_zero_sum(game[model])
    assert (sol.row_strategy == 0).mean() > 0.5
    table = A if model == "feedback" else game[model]  # the feedback playout plays A's subgames
    args = (table, rs, model, sol.row_strategy, sol.col_strategy, 2, 0.5, 50_000, 5)
    assert hs.simulate(*args) == oracles.playout(*args)


class _Sequential:
    """experiments._Helper run on the calling thread: start() runs the
    target, and join() has nothing to wait for."""

    error = None

    def __init__(self, target, args):
        self.target, self.args = target, args

    def start(self):
        self.target(*self.args)

    def join(self):
        pass


@pytest.mark.parametrize("model", ["base", "restricted", "feedback"])
def test_the_pipelined_playout_counts_the_cells_a_sequential_draw_counts(model, monkeypatch):
    # a helper thread draws block k + 1 into one buffer while block k is
    # counted from the other; the counts are those of drawing each block's
    # uniforms in turn, Generator(Philox(counter=[start, 0, 0, 0], key))
    # .random((count, 4)), at any block size and with a partial last block
    inst = hs.load_instance(INSTANCES / "six_sites.json")
    rs = hs.enumerate_routes(inst.n)
    A = hs.base_matrix(inst, rs)
    cfg = hs.SwitchConfig(2, 0.5)
    game = {"base": A, "restricted": hs.switch_matrix(A, rs, cfg), "feedback": hs.feedback_matrix(A, rs, cfg)}
    sol = hs.solve_zero_sum(game[model])
    table = A if model == "feedback" else game[model]
    args = (table, rs, model, sol.row_strategy, sol.col_strategy, 2, 0.5)
    key = SeedSequence(9).generate_state(2, np.uint64)
    real_fill = experiments._uniforms

    def sequential(_, start, out):
        out[...] = Generator(Philox(counter=[start, 0, 0, 0], key=key)).random((len(out), 4))

    def spy(key, start, out):
        drawn.append((start, len(out), threading.current_thread() is threading.main_thread()))
        real_fill(key, start, out)

    runs = []
    for block, trials in ((1 << 16, 70_000), (3_000, 70_000), (1, 301)):
        monkeypatch.setattr(experiments, "_BLOCK", block)
        with monkeypatch.context() as mp:
            mp.setattr(experiments, "_uniforms", sequential)
            mp.setattr(experiments, "_Helper", _Sequential)
            want = experiments._cell_counts(*args, trials, 9)
        drawn = []
        monkeypatch.setattr(experiments, "_uniforms", spy)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch between the two threads as often as the interpreter can
        try:
            got = experiments._cell_counts(*args, trials, 9)
        finally:
            sys.setswitchinterval(interval)
        # the first block on the calling thread, every later one on a helper
        assert drawn == [(start, min(block, trials - start), start == 0) for start in range(0, trials, block)]
        assert got[0].tobytes() == want[0].tobytes()
        assert got[1].tobytes() == want[1].tobytes()
        assert got[2] == want[2]
        assert 0 < got[2] < trials  # some trials end by the reveal, and some play on
        runs.append(got)
    # and the same trials count the same cells in any block
    assert runs[1][1].tobytes() == runs[0][1].tobytes() and runs[1][2] == runs[0][2]


@pytest.mark.parametrize("case", ["returns", "helper_raises", "loop_raises"])
def test_no_helper_thread_outlives_the_playout(case, demo6, rs6, monkeypatch):
    # an exception raised by the helper's draw, or by the main loop while a
    # helper is still drawing, reaches the caller as it was raised, and
    # every thread the playout started has ended by then
    t, c = 2, 0.5
    A = hs.base_matrix(demo6, rs6)
    sol = hs.solve_zero_sum(hs.feedback_matrix(A, rs6, hs.SwitchConfig(t, c)))
    args = (A, rs6, "feedback", sol.row_strategy, sol.col_strategy, t, c, 5_000, 3)
    monkeypatch.setattr(experiments, "_BLOCK", 1_000)
    real_fill, error, helpers = experiments._uniforms, None, []

    def fill(key, start, out):
        if start:  # a block a helper draws
            helpers.append(threading.current_thread())
            if case == "helper_raises":
                raise error
            if case == "loop_raises":
                time.sleep(0.2)  # still drawing when the main loop raises
        real_fill(key, start, out)

    def solve(*_):
        raise error

    monkeypatch.setattr(experiments, "_uniforms", fill)
    if case == "helper_raises":
        error = RuntimeError("the draw failed")
    elif case == "loop_raises":
        error = hs.SolverError("no certificate")
        monkeypatch.setattr(experiments, "_subgame_supports", solve)
    before = threading.active_count()
    if error is None:
        assert hs.simulate(*args) == oracles.playout(*args)
    else:
        with pytest.raises(type(error)) as raised:
            hs.simulate(*args)
        assert raised.value is error
    assert threading.active_count() == before
    assert helpers and threading.main_thread() not in helpers
    assert not any(helper.is_alive() for helper in helpers)


def test_the_playout_solves_its_subgames_in_bounded_stacks(demo6, rs6, monkeypatch):
    # the LP-bound subgames a block of trials first reaches are solved in
    # stacks of at most payoff._STACK_BYTES, which move no count
    t, c, trials = 2, 0.5, 20_000
    A = hs.base_matrix(demo6, rs6)
    rng = np.random.default_rng(8)
    y, z = rng.dirichlet(np.ones(rs6.m // hs.prefix_block(rs6, t))), rng.dirichlet(np.ones(6))
    args = (A, rs6, "feedback", y, z, t, c, trials, 5)
    stacks = []
    real_solve = experiments._solve
    monkeypatch.setattr(experiments, "_solve", lambda S, unique: stacks.append(len(S)) or real_solve(S, unique=unique))
    whole = experiments._cell_counts(*args)
    assert max(stacks) > 1
    lp, stacks[:] = sum(stacks), []
    monkeypatch.setattr(hs.payoff, "_STACK_BYTES", 1)
    split = experiments._cell_counts(*args)
    assert stacks == [1] * lp
    assert split[1].tobytes() == whole[1].tobytes()
    assert split[2] == whole[2]


@pytest.mark.parametrize("c", [0.0, 1.0])
def test_a_batch_of_subgames_plays_as_each_subgame_alone(c, monkeypatch):
    # the playout solves a batch's LP-bound subgames as one stack, and runs
    # HiGHS only on those that solve_zero_sum, given one alone, sends to it
    rs = hs.enumerate_routes(7)
    A = hs.base_matrix(random_instance(np.random.default_rng(29), 7), rs)
    t, n, block = 2, rs.n, hs.prefix_block(rs, 2)
    keys = np.array([h * n + i for h in range(rs.m // block) for i in range(n) if rs.position_matrix[h * block, i] > t])
    calls = []
    real_col_lp = hs.matrixgame._col_lp
    monkeypatch.setattr(hs.matrixgame, "_col_lp", lambda S: calls.append(S) or real_col_lp(S))
    batch = experiments._subgame_supports(A, rs, t, c, keys)
    stacked = len(calls)
    for key, (rows, cols) in zip(keys.tolist(), batch, strict=True):
        h, i = divmod(key, n)
        targets, ys, zs = oracles.subgame_play(A, rs, t, c, h, i)
        for (cdf, labels), (w, codes) in zip((rows, cols), (
            (ys, (h * block + np.arange(block)) * n),
            (zs, targets + rs.m * n * (targets != i)),
        )):
            want = experiments._support(w, codes)
            np.testing.assert_array_equal(labels, want[1])
            np.testing.assert_allclose(cdf, want[0], rtol=0, atol=1e-12)
    assert 0 < stacked == len(calls) - stacked
    assert (stacked < len(keys)) == (c > 0)  # at c = 0 every subgame here goes to HiGHS


def test_the_playout_builds_each_reached_subgame_once(demo6, rs6, monkeypatch):
    # each block of trials that reaches fresh subgames gathers one block per
    # distinct prefix among them and screens each of them once, and only
    # the subgames the screen leaves open are scanned cell by cell
    t, c, trials, size = 3, 2.0, 2_000, 400
    A = hs.base_matrix(demo6, rs6)
    rng = np.random.default_rng(4)
    y, z = rng.dirichlet(np.ones(rs6.m // hs.prefix_block(rs6, t))), rng.dirichlet(np.ones(6))
    builds = []  # per build: the prefixes gathered, the subgames screened, open and scanned
    payoff = hs.payoff
    real_subgame_matrix, real_screen, real_scan = payoff.subgame_matrix, payoff._saddle_possible, payoff._first_saddle

    def gather(A, rs, t, h, i, c):
        builds.append([np.asarray(h).tolist(), 0, 0, 0])
        return real_subgame_matrix(A, rs, t, h, i, c)

    def screen(S):
        possible = real_screen(S)
        builds[-1][1:3] = len(S), int(possible.sum())
        return possible

    def scan(S):
        builds[-1][3] += len(S)
        return real_scan(S)

    monkeypatch.setattr(payoff, "subgame_matrix", gather)
    monkeypatch.setattr(payoff, "_saddle_possible", screen)
    monkeypatch.setattr(payoff, "_first_saddle", scan)
    monkeypatch.setattr(experiments, "_BLOCK", size)
    args = (A, rs6, "feedback", y, z, t, c, trials, 3)
    assert hs.simulate(*args) == oracles.playout(*args)
    # the late keys each block of trials reaches first, from the trials' draws
    key = SeedSequence(3).generate_state(2, np.uint64)
    u = Generator(Philox(counter=[0, 0, 0, 0], key=key)).random((trials, 4))
    h, i = draw_full_cdf(y, u[:, 0]), draw_full_cdf(z, u[:, 1])
    late = rs6.position_matrix[h * hs.prefix_block(rs6, t), i] > t
    keys, seen, fresh = np.where(late, h * 6 + i, -1), {-1}, []
    for start in range(0, trials, size):
        new = set(keys[start : start + size].tolist()) - seen
        seen |= new
        if new:
            fresh.append(new)
    assert len(fresh) > 2
    assert [prefixes for prefixes, *_ in builds] == [sorted({key // 6 for key in new}) for new in fresh]
    assert [screened for _, screened, _, _ in builds] == [len(new) for new in fresh]
    assert all(scanned == possible for _, _, possible, scanned in builds)
    assert 0 < sum(possible for _, _, possible, _ in builds) < len(seen) - 1


def test_feedback_counts_match_the_oracle_past_65536_keys():
    # n = 8, t = 6 with 13 of the 20,160 prefixes in the Seeker's support,
    # the last among them: its subgame keys h*n + i pass 65,535, and the
    # subgame tables hold a row only for the support's late pairs
    rng = np.random.default_rng(8)
    rs = hs.enumerate_routes(8)
    A = hs.base_matrix(random_instance(rng, 8), rs)
    y = np.zeros(rs.m // hs.prefix_block(rs, 6))
    y[rng.choice(len(y), 12, replace=False)] = rng.uniform(size=12)
    y[-1] = 1.0
    y /= y.sum()
    z = rng.dirichlet(np.ones(8))
    assert np.min_scalar_type(len(y) * 8 - 1) == np.uint32
    args = (A, rs, "feedback", y, z, 6, 0.5, 3_000, 7)
    res = hs.simulate(*args)
    assert res == oracles.playout(*args)
    assert res.empirical_end_by_t < 0.9  # late trials played subgames


def test_dense_prefix_mix_plays_in_bounded_memory():
    # every one of the 20,160 prefixes of n = 8 at t = 6 is in the Seeker's
    # support, so every one of the 40,320 subgames can be reached: the
    # guide tables' worst case, which _TABLE_BYTES bounds. The float
    # histogram, its values and the spread over them take 14.8 MB of the
    # 18.7 MiB peak, and the bound leaves 1.3 MiB over it; tables of 2^12
    # buckets for each subgame this run reaches would add 24 MB.
    rng = np.random.default_rng(6)
    rs = hs.enumerate_routes(8)
    A = hs.base_matrix(random_instance(rng, 8), rs)
    y = rng.dirichlet(np.ones(rs.m // hs.prefix_block(rs, 6)))
    z = rng.dirichlet(np.ones(8))
    args = (A, rs, "feedback", y, z, 6, 0.5, 3_000, 7)
    tracemalloc.start()
    try:
        res = hs.simulate(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 20 * 2**20
    assert res == oracles.playout(*args)
    assert res.empirical_end_by_t < 0.9


@pytest.mark.parametrize("p, block", [(1.0, 1 << 16), (0.9, 4)])
def test_feedback_counts_match_the_oracle_when_every_trial_of_a_block_ends(demo6, rs6, p, block):
    # the Seeker picks one of the prefixes (1, j), which all visit location
    # 1 first, and the Hider hides there with probability p: at p = 1 no
    # trial is late, at p = 0.9 most blocks of 4 trials have none
    A = hs.base_matrix(demo6, rs6)
    y = np.zeros(30)
    y[:5] = 0.2
    assert (rs6.route_array[: 5 * hs.prefix_block(rs6, 2), 0] == 1).all()
    z = np.append(p, np.full(5, (1 - p) / 5))
    args = (A, rs6, "feedback", y, z, 2, 0.5, 2_000, 3)
    with mock.patch.object(experiments, "_BLOCK", block):
        res = hs.simulate(*args)
    assert res == oracles.playout(*args)
    assert (res.empirical_end_by_t == 1.0) == (p == 1.0)


@pytest.mark.parametrize("model", ["restricted", "feedback"])
def test_simulate_memory_is_bounded(base3, rs3, model):
    rows = 3 if model == "feedback" else 6  # prefixes or routes at t=1
    y = np.full(rows, 1 / rows)
    z = np.array([0.2, 0.45, 0.35])
    A = base3 if model == "feedback" else hs.switch_matrix(base3, rs3, hs.SwitchConfig(1, 0.8))
    tracemalloc.start()
    try:
        hs.simulate(A, rs3, model, y, z, t=1, c=0.8, trials=1_000_000, seed=9)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_simulate_empirical_end_matches_closed_form(base3, rs3):
    rng = np.random.default_rng(113)
    for _ in range(5):
        y = rng.dirichlet(np.ones(6))
        z = rng.dirichlet(np.ones(3))
        t = int(rng.integers(1, 4))
        res = hs.simulate(base3, rs3, "base", y, z, t=t, c=0.0, trials=100_000, seed=11)
        closed = oracles.termination_probability(rs3, y, z, t)
        assert abs(res.empirical_end_by_t - closed) <= mc_tolerance(closed, res.trials)


def test_simulate_validation(base3, rs3):
    y = np.full(6, 1 / 6)
    z = np.full(3, 1 / 3)
    with pytest.raises(ValueError, match="model"):
        hs.simulate(base3, rs3, "other", y, z, t=1, c=1.0, trials=10, seed=0)
    with pytest.raises(ValueError, match="trials"):
        hs.simulate(base3, rs3, "base", y, z, t=1, c=1.0, trials=0, seed=0)
    with pytest.raises(ValueError, match="simplex"):
        hs.simulate(base3, rs3, "base", y * 1.1, z, t=1, c=1.0, trials=10, seed=0)
    with pytest.raises(ValueError, match="out of range"):
        hs.simulate(base3, rs3, "base", y, z, t=4, c=1.0, trials=10, seed=0)
    with pytest.raises(ValueError, match="payoff matrix has shape"):
        hs.simulate(base3[:, :2], rs3, "base", y, z, t=1, c=1.0, trials=10, seed=0)
    for c in (-1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="finite and >= 0"):
            hs.simulate(base3, rs3, "feedback", y, z, t=1, c=c, trials=10, seed=0)


@pytest.mark.parametrize("model", ["base", "restricted", "feedback"])
def test_simulate_leaves_its_inputs_unchanged(base3, rs3, model):
    # the base and restricted playouts pay from the caller's matrix itself
    A = hs.switch_matrix(base3, rs3, hs.SwitchConfig(1, 0.8)) if model == "restricted" else base3
    y = np.array([0.5, 0.3, 0.2]) if model == "feedback" else np.array([0.1, 0.2, 0.05, 0.3, 0.15, 0.2])
    z = np.array([0.2, 0.45, 0.35])
    before = [a.tobytes() for a in (A, y, z)]
    hs.simulate(A, rs3, model, y, z, t=1, c=0.8, trials=5_000, seed=4)
    assert [a.tobytes() for a in (A, y, z)] == before


def test_simulate_single_trial(base3, rs3):
    y = np.full(6, 1 / 6)
    z = np.full(3, 1 / 3)
    res = hs.simulate(base3, rs3, "base", y, z, t=1, c=0.0, trials=1, seed=0)
    assert res.payoff_stderr == 0.0
    assert res.empirical_end_by_t in (0.0, 1.0)


def test_simulate_restricted_mean_is_switch_bilinear(rs3, base3):
    # off-equilibrium strategies: the playout mean estimates y' A_switch z
    rng = np.random.default_rng(127)
    y = rng.dirichlet(np.ones(6))
    z = rng.dirichlet(np.ones(3))
    S = hs.switch_matrix(base3, rs3, hs.SwitchConfig(1, 1.0))
    target = float(y @ S @ z)
    res = hs.simulate(S, rs3, "restricted", y, z, t=1, c=1.0, trials=400_000, seed=17)
    assert abs(res.mean_payoff - target) <= 4 * res.payoff_stderr
