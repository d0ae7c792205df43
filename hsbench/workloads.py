"""Seeded instance generator and the benchmark's workload definitions.

A workload is a fixed list of `hideseek` CLI commands run in order against
one instance generated from the seed. The instance is the only input the
program receives; everything else in a command is a constant.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass

# The layout is drawn uniformly from [0, BOX]^2, the regime the package's own
# property tests use, so the fixed switching costs below sit inside the range
# where relocation sometimes pays (cstar is about 15-25 at this scale).
BOX = 5.0
JITTER = 0.1

# Explicit sweep costs instead of the default 25-point grid: 0.5 and 2 sit
# where most reveal-stage subgames need an LP (510 of 1950 per cost), 8 sits
# past most thresholds where shortcuts close nearly all of them. This keeps
# one sweep near 3.5 s so a run holds several samples.
SWEEP_COSTS = "0.5,2,8"
TOY_SWEEP_COSTS = "0.5,2"

TRIALS = 2_000_000
TOY_TRIALS = 10_000
TOY_N = 4


@dataclass(frozen=True)
class Workload:
    name: str
    n: int
    commands: tuple[tuple[str, ...], ...]


def make_instance(n: int, seed: int) -> dict:
    """Plain instance JSON: origin and n locations, rounded to 1e-3.

    The seed jitters every point of a fixed random layout by up to JITTER
    per coordinate. Every value the program prints changes with the seed,
    while the work a command does (LP count, late playout trials, memory)
    stays close to constant, so run-to-run spread measures the program and
    the machine, not which instance a seed happened to draw. The
    string-seeded stdlib generator gives the same stream on every Python
    and numpy version.
    """
    layout = random.Random(f"hsbench:layout:{n}")
    rng = random.Random(f"hsbench:{n}:{seed}")

    def point():
        return [round(layout.uniform(0.0, BOX) + rng.uniform(-JITTER, JITTER), 3)
                for _ in range(2)]

    return {"origin": point(), "locations": [point() for _ in range(n)]}


def write_instance(path, n: int, seed: int) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(make_instance(n, seed), fh)
        fh.write("\n")


def workload(name: str, inst: str, toy: bool = False) -> Workload:
    """The commands of a named workload against the instance file `inst`.

    `toy` shrinks every workload (n=4, two sweep costs, 1e4 trials) for the
    smoke test; the command shapes stay the same.
    """
    trials = str(TOY_TRIALS if toy else TRIALS)
    if name == "sweep6":
        # Why: dominated by payoff.feedback_matrix, i.e. thousands of tiny
        # reveal-stage subgames, most closed by saddle/2x2 shortcuts and the
        # rest by small LPs. It shows gains from subgame deduplication,
        # cross-cell caching and per-LP call overhead (ROADMAP items 2, 4).
        # All five reveal times are kept; only the cost grid is fixed.
        costs = TOY_SWEEP_COSTS if toy else SWEEP_COSTS
        return Workload(name, TOY_N if toy else 6, (("sweep", inst, "--costs", costs),))
    if name == "game8":
        # Why: no subgames at all. Its cost is route enumeration, vectorised
        # base/switch matrix builds, two 40320 x 8 LPs whose time is in the
        # HiGHS core, the VOI tables and 4 MB of CSV formatting. A feedback
        # or small-LP optimisation must show no change here; double oracle
        # (ROADMAP item 5) would.
        restricted = ("--t-reveal", "2", "--cost", "1")
        return Workload(name, TOY_N if toy else 8, (
            ("solve", inst, "--model", "base"),
            ("solve", inst, "--model", "restricted", *restricted),
            ("voi", inst, *restricted, "--csv"),
            ("simulate", inst, "--model", "restricted", *restricted, "--trials", trials),
        ))
    if name == "playout":
        # Why: splits between one single-cell feedback_matrix (336 mid-size
        # subgame LPs, few shortcuts) and the Monte Carlo loop, which groups
        # late trials in Python, re-solves the subgames it reaches and
        # allocates trials x 4 uniforms up front. It uses
        # experiments.simulate differently from game8's vectorised
        # restricted path, so a change that helps one and hurts the other
        # shows up.
        return Workload(name, TOY_N if toy else 8, (
            ("simulate", inst, "--model", "feedback", "--t-reveal", "2", "--cost", "1",
             "--trials", trials),
        ))
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("sweep6", "game8", "playout")
