import math

import numpy as np
import pytest

import hideseek as hs
from hideseek.routes import MAX_LOCATIONS

from oracles import information_set, position, prefix_of


def test_enumeration_order_n3(rs3):
    assert rs3.routes == (
        (1, 2, 3), (1, 3, 2), (2, 1, 3), (2, 3, 1), (3, 1, 2), (3, 2, 1),
    )
    assert rs3.m == 6


def test_enumeration_edges():
    assert hs.enumerate_routes(1).routes == ((1,),)
    rs4 = hs.enumerate_routes(4)
    assert rs4.m == 24
    assert rs4.routes[0] == (1, 2, 3, 4)
    assert rs4.routes[-1] == (4, 3, 2, 1)


def test_enumeration_cap():
    hs.enumerate_routes(MAX_LOCATIONS)  # the cap itself is allowed
    with pytest.raises(ValueError, match="1..8"):
        hs.enumerate_routes(MAX_LOCATIONS + 1)
    with pytest.raises(ValueError):
        hs.enumerate_routes(0)


def test_position():
    assert position((1, 2, 3), 3) == 3
    assert position((2, 3, 1), 1) == 3
    assert position((3, 1, 2), 1) == 2


def test_position_matrix(rs3):
    for j, route in enumerate(rs3.routes):
        for i in route:
            assert rs3.position_matrix[j, i - 1] == position(route, i)


def test_prefix_of(rs3):
    h = prefix_of((1, 2, 3), 1)
    assert h.nodes == (1,) and h.t_reveal == 1
    assert prefix_of((2, 1, 3), 3).nodes == (2, 1, 3)
    assert prefix_of((2, 3, 1), 2).nodes == (2, 3)
    with pytest.raises(ValueError, match="out of range"):
        prefix_of((1, 2, 3), 4)
    with pytest.raises(ValueError, match="out of range"):
        prefix_of((1, 2, 3), 0)
    for t in (1, 2):
        classes, pi = hs.prefix_classes(rs3, t)
        for j, route in enumerate(rs3.routes):
            assert classes[pi[j]].prefix == prefix_of(route, t)


def test_information_set_n3(rs3):
    iset = information_set(rs3, hs.Prefix((1,), 1))
    assert iset.members == (0, 1)  # routes r1, r2
    assert iset.visited == {1} and iset.unvisited == {2, 3}

    assert information_set(rs3, hs.Prefix((3,), 1)).members == (4, 5)  # r5, r6

    pinned = information_set(rs3, hs.Prefix((1, 2), 2))
    assert pinned.members == (0,)
    assert pinned.unvisited == {3}

    for t in (1, 2):
        for cls in hs.prefix_classes(rs3, t)[0]:
            iset = information_set(rs3, cls.prefix)
            assert (iset.members, iset.visited, iset.unvisited) == (
                cls.members,
                cls.visited,
                cls.unvisited,
            )


def test_information_set_validation(rs3):
    with pytest.raises(ValueError, match="duplicate"):
        information_set(rs3, hs.Prefix((1, 1), 2))
    with pytest.raises(ValueError, match="out of range"):
        information_set(rs3, hs.Prefix((4,), 1))


def test_prefix_classes_n3(rs3):
    classes, pi = hs.prefix_classes(rs3, 1)
    assert [c.prefix.nodes for c in classes] == [(1,), (2,), (3,)]
    assert all(len(c.members) == 2 for c in classes)
    classes2, _ = hs.prefix_classes(rs3, 2)
    assert len(classes2) == 6
    assert all(len(c.members) == 1 for c in classes2)
    with pytest.raises(ValueError, match="out of range"):
        hs.prefix_classes(rs3, 3)


def test_prefix_classes_n6_counts(rs6):
    classes, pi = hs.prefix_classes(rs6, 1)
    assert len(classes) == 6
    assert all(len(c.members) == math.factorial(5) for c in classes)
    assert pi.shape == (720,)


def test_prefix_classes_cached(rs3):
    a = hs.prefix_classes(rs3, 1)
    b = hs.prefix_classes(rs3, 1)
    assert a is b


@pytest.mark.parametrize("n,t", [(3, 1), (3, 2), (4, 1), (4, 2), (4, 3), (5, 2)])
def test_partition_properties(n, t):
    rs = hs.enumerate_routes(n)
    classes, pi = hs.prefix_classes(rs, t)
    assert len(classes) == math.factorial(n) // math.factorial(n - t)
    seen = []
    for ci, iset in enumerate(classes):
        assert len(iset.members) == math.factorial(n - t)
        assert iset.members == tuple(sorted(iset.members))
        assert iset.visited | iset.unvisited == set(range(1, n + 1))
        assert not iset.visited & iset.unvisited
        assert len(iset.visited) == t
        for j in iset.members:
            assert pi[j] == ci
            assert rs.routes[j][:t] == iset.prefix.nodes
        seen.extend(iset.members)
    assert sorted(seen) == list(range(rs.m))  # classes partition the route set
    # prefixes strictly increasing lexicographically
    prefixes = [c.prefix.nodes for c in classes]
    assert prefixes == sorted(prefixes)


def test_routes_strictly_increasing(rs6):
    arr = rs6.route_array
    assert (np.diff(arr, axis=0) != 0).any(axis=1).all()
    for a, b in zip(rs6.routes, rs6.routes[1:]):
        assert a < b
