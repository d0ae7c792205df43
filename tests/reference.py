"""Frozen reference values for the bundled demo instances.

The three-site numbers are printed at four decimals, so matrix comparisons
against them use atol=1e-3. Values our own oracles derive are asserted much
tighter in the individual tests.
"""

import numpy as np

nan = np.nan

# three sites: origin (0,0), locations 1=(1,0), 2=(2,1), 3=(2,-1)
THREE_SITES = {"origin": (0.0, 0.0), "locations": [(1.0, 0.0), (2.0, 1.0), (2.0, -1.0)]}

# routes in lexicographic order: (1,2,3),(1,3,2),(2,1,3),(2,3,1),(3,1,2),(3,2,1)
BASE_3 = np.array(
    [
        [1.0000, 2.4142, 4.4142],
        [1.0000, 4.4142, 2.4142],
        [3.6503, 2.2361, 5.0645],
        [5.6503, 2.2361, 4.2361],
        [3.6503, 5.0645, 2.2361],
        [5.6503, 4.2361, 2.2361],
    ]
)
VALUE_BASE_3 = 3.3251

# switching cost 1, reveal after the first visit, total convention
SWITCH_3_C1 = np.array(
    [
        [1.0000, 3.4142, 4.4142],
        [1.0000, 4.4142, 3.4142],
        [4.0645, 2.2361, 5.0645],
        [5.6503, 2.2361, 4.6503],
        [4.0645, 5.0645, 2.2361],
        [5.6503, 4.6503, 2.2361],
    ]
)
VALUE_SWITCH_3_C1 = 3.6462

FEEDBACK_3_C1 = np.array(
    [
        [1.0000, 2.9142, 2.9142],
        [3.9432, 2.2361, 4.3574],
        [3.9432, 4.3574, 2.2361],
    ]
)
LIFTED_3_C1 = FEEDBACK_3_C1[[0, 0, 1, 1, 2, 2]]
VALUE_FEEDBACK_3_C1 = 2.9142

GAP_3_C1 = np.array(
    [
        [0.0, 0.5000, 1.5000],
        [0.0, 1.5000, 0.5000],
        [0.1213, 0.0, 0.7071],
        [1.7071, 0.0, 0.2929],
        [0.1213, 0.7071, 0.0],
        [1.7071, 0.2929, 0.0],
    ]
)
DELTA_3_C1 = 1.7071
DELTA_CELLS_3_C1 = {(3, 0), (5, 0)}  # 0-based: routes 4 and 6, location 1

# infoset-variant switching thresholds at reveal time 1; nan = visited
CSTAR_INFOSET_3 = np.array(
    [
        [nan, 0.0, 0.0],
        [nan, 0.0, 0.0],
        [0.5858, nan, 0.0],
        [0.5858, nan, 0.0],
        [0.5858, 0.0, nan],
        [0.5858, 0.0, nan],
    ]
)
CSTAR_GLOBAL_INFOSET_3 = 0.5858
CSTAR_GLOBAL_ROUTE_3 = 2.0

# large switching cost: relocation never pays, the switch game collapses
VALUE_SWITCH_3_C100 = 3.3251
VALUE_FEEDBACK_3_C100 = 2.4142
DELTA_3_C100 = 2.0

# six sites: origin (0,0)
SIX_SITES = {
    "origin": (0.0, 0.0),
    "locations": [(1.0, 1.0), (2.0, 2.0), (2.0, 1.0), (5.0, 1.0), (3.0, 5.0), (5.0, 3.0)],
}
VALUE_BASE_6 = 8.0276
# the six-site switch value is quoted under the remaining convention
VALUE_SWITCH_6_C1_REMAINING = 8.5255

COLLINEAR_3 = {"origin": (0.0, 0.0), "locations": [(1.0, 0.0), (2.0, 0.0), (3.0, 0.0)]}

# instances whose route lengths overflow to infinity
OVERFLOWING = {
    "coordinates": {"origin": [0, 0], "locations": [[1e308, 0], [-1e308, 0], [1, 1]]},
    # every entry is finite, but a route sums three of them
    "table": {
        "origin": [0, 0],
        "locations": [[1, 0], [2, 0], [3, 0]],
        "distance_table": [[0 if u == v else 1e308 for v in range(4)] for u in range(4)],
    },
}

# instances holding a JSON integer too large for a float (1 and 400 zeros)
TOO_LARGE = {
    "coordinate": {"origin": [0, 0], "locations": [[10**400, 0], [1, 1]]},
    "table": {"origin": [0, 0], "locations": [[1, 0]], "distance_table": [[0, 10**400], [10**400, 0]]},
}

# `simulate` stdout (default trials and seed, --precision 12) on reveal
# stages that a pure saddle closes without a dominant stay: collinear_three
# at t=1, c=0 (4 of its 6 subgames) and six_sites at t=3, c=2 (14 of 360).
SIMULATE_SADDLE_STDOUT = {
    ("collinear_three", "1", "0"): (
        "model: feedback\ntrials: 100000\nseed: 0\n"
        "game value: 3.000000000000\nmean payoff: 3.000000000000\n"
        "stderr: 0.000000000000\nended by t: 0.000000000000\n"
    ),
    ("six_sites", "3", "2"): (
        "model: feedback\ntrials: 100000\nseed: 0\n"
        "game value: 7.915741311837\nmean payoff: 7.914788503208\n"
        "stderr: 0.007142411518\nended by t: 0.450130000000\n"
    ),
}
# `simulate` stdout on three_sites at t = n = 3 (20,000 trials, seed 0,
# --precision 12) after its first line, the same for every model: a reveal
# after the last visit reveals nothing.
SIMULATE_LAST_REVEAL_3 = (
    "trials: 20000\nseed: 0\n"
    "game value: 3.325140769936\nmean payoff: 3.327578383331\n"
    "stderr: 0.007666125502\nended by t: 1.000000000000\n"
)
