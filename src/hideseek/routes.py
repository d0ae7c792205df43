"""Seeker route enumeration and prefix / information-set indexing.

Routes are permutations of the locations 1..n, enumerated in lexicographic
order; the row index of every payoff matrix refers to this order. Route
indices are 0-based in code (row j holds the (j+1)-th route).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

# Dense M x N matrices plus the LP stay desk-scale up to 8! = 40320 routes;
# larger n is rejected outright rather than degrading silently.
MAX_LOCATIONS = 8

Route = tuple[int, ...]


@dataclass(frozen=True)
class Prefix:
    """The first ``t_reveal`` visited locations of a route."""

    nodes: Route
    t_reveal: int

    def __post_init__(self):
        if self.t_reveal != len(self.nodes):
            raise ValueError("prefix length disagrees with t_reveal")
        if len(set(self.nodes)) != len(self.nodes):
            raise ValueError(f"prefix has duplicate nodes: {self.nodes}")


@dataclass(frozen=True, eq=False)
class InformationSet:
    """All routes agreeing with a prefix, with the induced visited split."""

    prefix: Prefix
    members: tuple[int, ...]  # 0-based route indices, ascending
    visited: frozenset[int]
    unvisited: frozenset[int]


class RouteSet:
    """All n! visiting orders plus derived index structures.

    Immutable after construction; information-set partitions are computed
    once per reveal time and cached.
    """

    def __init__(self, n: int):
        if not 1 <= n <= MAX_LOCATIONS:
            raise ValueError(f"location count must be in 1..{MAX_LOCATIONS}, got {n}")
        self.n = n
        self.routes: tuple[Route, ...] = tuple(itertools.permutations(range(1, n + 1)))
        self.m = len(self.routes)
        self.route_array = np.array(self.routes, dtype=np.int64)
        # position_matrix[j, i-1] = 1-based visit position of location i on route j
        self.position_matrix = np.empty((self.m, n), dtype=np.int64)
        cols = self.route_array - 1
        rows = np.arange(self.m)[:, None]
        self.position_matrix[rows, cols] = np.arange(1, n + 1)[None, :]
        self._class_cache: dict[int, tuple[tuple[InformationSet, ...], np.ndarray]] = {}

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


def prefix_classes(rs: RouteSet, t: int) -> tuple[tuple[InformationSet, ...], np.ndarray]:
    """All distinct prefixes at reveal time t, plus the route-to-class map.

    Returns (classes, pi) where classes are in lexicographic prefix order and
    pi[j] is the class index of route j. There are n!/(n-t)! classes and the
    member lists partition the route set.
    """
    check_reveal_time(t, rs.n - 1)
    cached = rs._class_cache.get(t)
    if cached is not None:
        return cached

    classes: list[InformationSet] = []
    pi = np.empty(rs.m, dtype=np.int64)
    block = math.factorial(rs.n - t)  # routes sharing a prefix are contiguous
    for start in range(0, rs.m, block):
        h = Prefix(rs.routes[start][:t], t)
        visited = frozenset(h.nodes)
        classes.append(
            InformationSet(
                prefix=h,
                members=tuple(range(start, start + block)),
                visited=visited,
                unvisited=frozenset(range(1, rs.n + 1)) - visited,
            )
        )
        pi[start : start + block] = len(classes) - 1
    result = (tuple(classes), pi)
    rs._class_cache[t] = result
    return result
