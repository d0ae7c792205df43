"""A seeded study of the directions the paper's abstract claims, tested
against the games as this package defines them. It records which claims
hold; it is not a bound that `verify` checks, since only the claims that
hold by proof belong there.

The abstract says that seeker awareness reduces the game value, and that
the benefit the reveal gives the Hider "decreases as the switching cost
increases and as the reveal occurs later along the route". Over the
default sweep grid (total convention, mixed subgames) of each instance:

- the reveal gain v_switch - v_base falls in c and in t on every one:
  the switch matrix is entrywise non-increasing in both, so this holds by
  proof;
- awareness lowers the value, v_fb <= v_switch, on every one;
- the feedback gain v_fb - v_base falls in c on every one, but in t only
  on collinear_three;
- the awareness gap v_switch - v_fb does not rise in c everywhere: it
  does on three_sites and collinear_three only, and on six_sites at t = 3
  it goes 1.00 -> 0.95 -> 1.45 at c = 0, 1, 5;
- v_fb falls below v_base in some cell of every instance but
  collinear_three, since the reveal-stage subgame is solved with the
  start known to both players.
"""

import pathlib
import sys

import numpy as np
import pytest

import hideseek as hs

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "hsbench"))
import workloads  # noqa: E402

sys.path.remove(str(ROOT / "hsbench"))

BUNDLED = ("three_sites", "six_sites", "collinear_three")
SEEDED = tuple((n, seed) for n in (4, 5, 6) for seed in range(1, 6))  # workloads.make_instance(n, seed)

# claim -> the instances on which it fails, over the default grid
FAILS = {
    "reveal gain falls in c": set(),
    "reveal gain falls in t": set(),
    "awareness lowers the value": set(),
    "feedback gain falls in c": set(),
    "feedback gain falls in t": set(SEEDED) | {"three_sites", "six_sites"},
    "awareness gap rises in c": set(SEEDED) | {"six_sites"},
    "feedback value stays at or above the base value": set(SEEDED) | {"three_sites", "six_sites"},
}


def _instance(key):
    if key in BUNDLED:
        return hs.load_instance(ROOT / "instances" / f"{key}.json")
    return hs.make_instance(**workloads.make_instance(*key))


def _claims(inst):
    """Which claims hold over the instance's default sweep grid, within
    1e-9 times its largest value."""
    rows = hs.sweep(inst)
    times = sorted({r.t_reveal for r in rows})

    def grid(field):  # (reveal time, cost)
        return np.array([[getattr(r, field) for r in rows if r.t_reveal == t] for t in times])

    base, switch, fb = grid("v_base"), grid("v_switch"), grid("v_fb")
    tol = 1e-9 * np.abs(np.concatenate([base, switch, fb])).max()

    def falls(x, axis):
        return bool((np.diff(x, axis=axis) <= tol).all())

    return {
        "reveal gain falls in c": falls(switch - base, 1),
        "reveal gain falls in t": falls(switch - base, 0),
        "awareness lowers the value": bool((fb <= switch + tol).all()),
        "feedback gain falls in c": falls(fb - base, 1),
        "feedback gain falls in t": falls(fb - base, 0),
        "awareness gap rises in c": falls(fb - switch, 1),
        "feedback value stays at or above the base value": bool((fb >= base - tol).all()),
    }


def test_which_claimed_directions_hold_on_the_seeded_study():
    fails = {claim: set() for claim in FAILS}
    for key in SEEDED + BUNDLED:
        for claim, holds in _claims(_instance(key)).items():
            if not holds:
                fails[claim].add(key)
    assert fails == FAILS


def test_six_sites_awareness_gap_falls_then_rises_in_c():
    rows = hs.sweep(_instance("six_sites"), t_list=[3], c_grid=[0.0, 1.0, 5.0])
    gaps = [r.v_switch - r.v_fb for r in rows]
    assert gaps == pytest.approx([1.00, 0.95, 1.45], abs=5e-3)
    assert gaps[1] < gaps[0] < gaps[2]
