import json
import math

import numpy as np
import pytest

import hideseek as hs

import reference as ref
from conftest import random_instance
import oracles
from oracles import ORIGIN


def write_instance(tmp_path, payload, name="inst.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


def test_load_three_sites(tmp_path):
    path = write_instance(tmp_path, {"origin": [0, 0], "locations": [[1, 0], [2, 1], [2, -1]]})
    inst = hs.load_instance(path)
    assert inst.n == 3
    assert inst.locations[0] == hs.Point(1.0, 0.0)
    assert inst.locations[2] == hs.Point(2.0, -1.0)  # file order preserved
    assert inst.distance_table is None


def test_load_single_location(tmp_path):
    inst = hs.load_instance(write_instance(tmp_path, {"origin": [0, 0], "locations": [[3, 4]]}))
    assert inst.n == 1
    assert oracles.distance(inst, ORIGIN, 1) == pytest.approx(5.0)


def test_load_asymmetric_table_rejected(tmp_path):
    table = [[0, 1, 2], [1, 0, 3], [2, 3.5, 0]]  # (1,2) != (2,1)
    path = write_instance(
        tmp_path, {"origin": [0, 0], "locations": [[1, 0], [0, 1]], "distance_table": table}
    )
    with pytest.raises(hs.InstanceError, match="asymmetric"):
        hs.load_instance(path)


@pytest.mark.parametrize(
    "payload",
    [
        {"origin": [0, 0], "locations": []},
        {"origin": [0, float("nan")], "locations": [[1, 0]]},
        {"origin": [0, 0]},
        {"locations": [[1, 0]]},
        [1, 2, 3],
        {"origin": {"x": 0}, "locations": [[1, 0]]},
    ],
)
def test_load_rejects_bad_payloads(tmp_path, payload):
    with pytest.raises(hs.InstanceError):
        hs.load_instance(write_instance(tmp_path, payload))


def test_load_rejects_bad_files(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json", encoding="utf-8")
    with pytest.raises(hs.InstanceError, match="JSON"):
        hs.load_instance(bad)
    bad.write_text('{"origin": [0, 1%s], "locations": [[1, 0]]}' % ("0" * 5000), encoding="utf-8")
    with pytest.raises(hs.InstanceError, match="JSON"):  # more digits than Python reads
        hs.load_instance(bad)
    with pytest.raises(hs.InstanceError, match="read"):
        hs.load_instance(tmp_path / "missing.json")


@pytest.mark.parametrize(
    "table,msg",
    [
        ([[0, -1], [-1, 0]], "negative"),
        ([[0.5, 1], [1, 0]], "diagonal"),
        ([[0, float("inf")], [float("inf"), 0]], "finite"),
        ([[0]], "must be"),
        ([[0, "x"], ["x", 0]], "numeric"),
    ],
)
def test_table_validation(table, msg):
    with pytest.raises(hs.InstanceError, match=msg):
        hs.make_instance((0, 0), [(1, 0)], table)


def test_distance_euclidean(demo3):
    assert oracles.distance(demo3, ORIGIN, 1) == pytest.approx(1.0)
    assert oracles.distance(demo3, 2, 2) == 0.0
    # cross-checked against the base-matrix row gap A(1,3) - A(1,2) = 2
    assert oracles.distance(demo3, 2, 3) == pytest.approx(2.0)


def test_distance_bounds(demo3):
    with pytest.raises(hs.InstanceError, match="out of range"):
        oracles.distance(demo3, 0, 4)
    with pytest.raises(hs.InstanceError, match="out of range"):
        oracles.distance(demo3, -1, 1)


def test_distance_table_overrides_coordinates():
    table = np.array([[0, 7, 1], [7, 0, 2], [1, 2, 0]], dtype=float)
    inst = hs.make_instance((0, 0), [(1, 0), (0, 1)], table)
    assert oracles.distance(inst, ORIGIN, 1) == 7.0
    assert oracles.distance(inst, 1, 2) == 2.0
    np.testing.assert_array_equal(hs.distance_matrix(inst), table)


def test_distance_symmetry_and_euclidean_agreement():
    rng = np.random.default_rng(11)
    for _ in range(20):
        n = int(rng.integers(1, 6))
        inst = random_instance(rng, n)
        pts = (inst.origin, *inst.locations)
        for u in range(n + 1):
            for v in range(n + 1):
                duv = oracles.distance(inst, u, v)
                assert duv == oracles.distance(inst, v, u)
                exact = math.hypot(pts[u].x - pts[v].x, pts[u].y - pts[v].y)
                assert duv == pytest.approx(exact, rel=1e-12, abs=1e-15)
        assert oracles.distance(inst, n, n) == 0.0


def test_distance_matrix_matches_pointwise(demo6):
    D = hs.distance_matrix(demo6)
    assert D.shape == (7, 7)
    for u in range(7):
        for v in range(7):
            assert D[u, v] == pytest.approx(oracles.distance(demo6, u, v), abs=1e-15)


@pytest.mark.parametrize("payload", ref.OVERFLOWING.values(), ids=ref.OVERFLOWING.keys())
def test_overflowing_distances_rejected(tmp_path, payload):
    with pytest.raises(hs.InstanceError, match="distances overflow"):
        hs.make_instance(payload["origin"], payload["locations"], payload.get("distance_table"))
    with pytest.raises(hs.InstanceError, match="distances overflow"):
        hs.load_instance(write_instance(tmp_path, payload))


@pytest.mark.parametrize("payload", ref.TOO_LARGE.values(), ids=ref.TOO_LARGE.keys())
def test_integers_too_large_for_a_float_rejected(tmp_path, payload):
    with pytest.raises(hs.InstanceError, match="too large to convert to float"):
        hs.make_instance(payload["origin"], payload["locations"], payload.get("distance_table"))
    with pytest.raises(hs.InstanceError, match="too large to convert to float"):
        hs.load_instance(write_instance(tmp_path, payload))
