"""Seeker route enumeration and the prefix block layout.

Routes are permutations of the locations 1..n, enumerated in lexicographic
order; the row index of every payoff matrix refers to this order. Route
indices are 0-based in code (row j holds the (j+1)-th route). The Seeker's
information set at reveal time t is every route sharing a t-visit prefix;
in this order it is a block of (n-t)! consecutive routes (prefix_block).
The route tables are uint8 (RouteSet).
"""

from __future__ import annotations

import math

import numpy as np

# Dense M x N matrices plus the LP stay desk-scale up to 8! = 40320 routes;
# larger n is rejected outright rather than degrading silently.
MAX_LOCATIONS = 8


def _permutations(n: int) -> np.ndarray:
    """The permutations of 1..n in lexicographic order, one per row, uint8.

    Built up one size at a time: the permutations of 1..s are, for each
    first element f in turn, f followed by those of 1..s-1 with every entry
    >= f raised by one.
    """
    P = np.zeros((1, 0), dtype=np.uint8)
    for s in range(1, n + 1):
        first = np.arange(1, s + 1, dtype=np.uint8)[:, None, None]
        rest = P[None] + (P[None] >= first)
        P = np.concatenate([np.broadcast_to(first, (s, len(P), 1)), rest], axis=2).reshape(-1, s)
    return P


class RouteSet:
    """All n! visiting orders plus each location's visit position. Immutable.

    Both tables are uint8, 0.3 MB each at n = 8, and index as they are; a
    shift, product or key of their entries is taken in np.intp, as uint8
    arithmetic wraps past 255 (1 << 8 is 0).
    """

    def __init__(self, n: int):
        if not 1 <= n <= MAX_LOCATIONS:
            raise ValueError(f"location count must be in 1..{MAX_LOCATIONS}, got {n}")
        self.n = n
        self.m = math.factorial(n)
        # route_array[j] = route j's visits in order
        self.route_array = _permutations(n)
        # position_matrix[j, i-1] = 1-based visit position of location i on route j
        self.position_matrix = np.empty((self.m, n), dtype=np.uint8)
        rows = np.arange(self.m)
        for p in range(n):
            self.position_matrix[rows, self.route_array[:, p] - 1] = p + 1

    def __repr__(self):
        return f"RouteSet(n={self.n}, m={self.m})"


def enumerate_routes(n: int) -> RouteSet:
    """All n! routes in lexicographic order of their permutation sequences."""
    return RouteSet(n)


def check_reveal_time(t: int, top: int) -> None:
    """Reject a reveal time outside 1..top: n-1 where the Hider can still
    relocate, n where t may run to the end of a route."""
    if not 1 <= t <= top:
        raise ValueError(f"reveal time {t} out of range 1..{top}")


def prefix_block(rs: RouteSet, t: int) -> int:
    """Routes per prefix at reveal time t: B = (n-t)!.

    Routes sharing their first t visits are consecutive in lexicographic
    order, so prefix h (0-based, in lexicographic prefix order) holds routes
    h*B .. h*B+B-1, and E.reshape(-1, B, n) views a route-indexed matrix E
    prefix by prefix.
    """
    check_reveal_time(t, rs.n - 1)
    return math.factorial(rs.n - t)
