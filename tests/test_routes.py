import math

import numpy as np
import pytest

import hideseek as hs
from hideseek.routes import MAX_LOCATIONS

from oracles import information_set, position, prefix_of, prefixes, routes


def test_enumeration_order_n3(rs3):
    assert rs3.route_array.tolist() == [
        [1, 2, 3], [1, 3, 2], [2, 1, 3], [2, 3, 1], [3, 1, 2], [3, 2, 1],
    ]
    assert rs3.m == 6


def test_enumeration_edges():
    assert hs.enumerate_routes(1).route_array.tolist() == [[1]]
    rs4 = hs.enumerate_routes(4)
    assert rs4.m == 24
    assert rs4.route_array[0].tolist() == [1, 2, 3, 4]
    assert rs4.route_array[-1].tolist() == [4, 3, 2, 1]


@pytest.mark.parametrize("n", range(1, MAX_LOCATIONS + 1))
def test_route_array_matches_permutations(n):
    rs = hs.enumerate_routes(n)
    assert rs.route_array.dtype == rs.position_matrix.dtype == np.uint8
    assert rs.route_array.shape == (rs.m, n) and rs.route_array.flags.c_contiguous
    assert np.array_equal(rs.route_array, np.array(routes(n)))


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
    for j, route in enumerate(routes(3)):
        for i in route:
            assert rs3.position_matrix[j, i - 1] == position(route, i)


def test_prefix_of(rs3):
    assert prefix_of((1, 2, 3), 1) == (1,)
    assert prefix_of((2, 1, 3), 3) == (2, 1, 3)
    assert prefix_of((2, 3, 1), 2) == (2, 3)
    with pytest.raises(ValueError, match="out of range"):
        prefix_of((1, 2, 3), 4)
    with pytest.raises(ValueError, match="out of range"):
        prefix_of((1, 2, 3), 0)
    for t in (1, 2):
        block = hs.prefix_block(rs3, t)
        for j, route in enumerate(routes(3)):
            # route j belongs to prefix j // block, whose first route is its head
            assert tuple(rs3.route_array[j // block * block, :t]) == prefix_of(route, t)


def test_information_set_n3(rs3):
    assert information_set(rs3, (1,)).tolist() == [0, 1]  # routes r1, r2
    assert information_set(rs3, (3,)).tolist() == [4, 5]  # r5, r6
    assert information_set(rs3, (1, 2)).tolist() == [0]

    for t in (1, 2):
        block = hs.prefix_block(rs3, t)
        for h, nodes in enumerate(prefixes(rs3, t)):
            assert information_set(rs3, nodes).tolist() == list(range(h * block, (h + 1) * block))


def test_information_set_validation(rs3):
    with pytest.raises(ValueError, match="out of range"):
        information_set(rs3, (4,))
    with pytest.raises(ValueError, match="out of range"):
        information_set(rs3, ())


def test_prefix_block_n3(rs3):
    assert hs.prefix_block(rs3, 1) == 2
    assert rs3.route_array[::2, :1].tolist() == [[1], [2], [3]]
    assert hs.prefix_block(rs3, 2) == 1
    for t in (0, 3):
        with pytest.raises(ValueError, match="out of range"):
            hs.prefix_block(rs3, t)


def test_prefix_block_n6_counts(rs6):
    block = hs.prefix_block(rs6, 1)
    assert block == math.factorial(5)
    assert rs6.m // block == 6


@pytest.mark.parametrize("n,t", [(3, 1), (3, 2), (4, 1), (4, 2), (4, 3), (5, 2)])
def test_partition_properties(n, t):
    # every block of prefix_block(rs, t) consecutive routes is one
    # information set of the brute-force oracle, in lexicographic order
    rs = hs.enumerate_routes(n)
    block = hs.prefix_block(rs, t)
    assert block == math.factorial(n - t)
    heads = prefixes(rs, t)
    assert len(heads) == rs.m // block == math.factorial(n) // math.factorial(n - t)
    for h, nodes in enumerate(heads):
        assert len(set(nodes)) == t
        members = information_set(rs, nodes)
        assert members.tolist() == list(range(h * block, (h + 1) * block))
        assert (rs.position_matrix[members][:, np.array(nodes) - 1] <= t).all()
    assert np.array_equal(rs.route_array[::block, :t], np.array(heads))


def test_routes_strictly_increasing(rs6):
    arr = rs6.route_array
    assert (np.diff(arr, axis=0) != 0).any(axis=1).all()
    rows = [tuple(r) for r in arr.tolist()]
    for a, b in zip(rows, rows[1:]):
        assert a < b
