"""Game instances: a Seeker origin, candidate hiding locations, and distances."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

class InstanceError(ValueError):
    """Malformed or inconsistent instance data."""


@dataclass(frozen=True)
class Point:
    x: float
    y: float


@dataclass(frozen=True, eq=False)
class Instance:
    """An origin plus n hiding locations.

    Distances are Euclidean between coordinates unless ``distance_table`` is
    given, in which case the table (origin-first, shape (n+1, n+1)) overrides
    the geometry entirely. Instances are immutable and safe to share across
    workers.
    """

    origin: Point
    locations: tuple[Point, ...]
    distance_table: np.ndarray | None = None

    def __post_init__(self):
        if len(self.locations) < 1:
            raise InstanceError("instance needs at least one location")
        for p in (self.origin, *self.locations):
            if not (math.isfinite(p.x) and math.isfinite(p.y)):
                raise InstanceError(f"non-finite coordinate: {p}")
        if self.distance_table is not None:
            try:
                table = np.asarray(self.distance_table, dtype=float)
            except (TypeError, ValueError, OverflowError) as exc:
                raise InstanceError(f"distance table is not numeric: {exc}") from exc
            object.__setattr__(self, "distance_table", table)
            _check_table(table, self.n)
        # every route length sums some of these entries, so a finite total bounds them all
        with np.errstate(over="ignore"):
            if not np.isfinite(distance_matrix(self).sum()):
                raise InstanceError("distances overflow: their sum is not finite")

    @property
    def n(self) -> int:
        return len(self.locations)


def _check_table(table: np.ndarray, n: int) -> None:
    if table.shape != (n + 1, n + 1):
        raise InstanceError(
            f"distance table must be {(n + 1, n + 1)} (origin first), got {table.shape}"
        )
    if not np.isfinite(table).all():
        raise InstanceError("non-finite entry in distance table")
    if (table < 0).any():
        raise InstanceError("negative entry in distance table")
    if not np.array_equal(table, table.T):
        raise InstanceError("asymmetric distance table")
    if np.diag(table).any():
        raise InstanceError("distance table has a nonzero diagonal")


def make_instance(origin, locations, distance_table=None) -> Instance:
    """Build a validated Instance from plain coordinate pairs."""
    try:
        op = Point(float(origin[0]), float(origin[1]))
        lps = tuple(Point(float(x), float(y)) for x, y in locations)
    except (TypeError, ValueError, IndexError, OverflowError) as exc:
        raise InstanceError(f"bad coordinates: {exc}") from exc
    except KeyError as exc:  # a JSON object where an [x, y] pair belongs
        raise InstanceError(f"bad coordinates: not an [x, y] pair (no index {exc})") from exc
    return Instance(op, lps, distance_table)


def load_instance(path) -> Instance:
    """Load an instance from a JSON file.

    Expected fields: ``origin`` ([x, y]), ``locations`` (list of [x, y]),
    and optionally ``distance_table`` ((n+1) x (n+1), origin first).
    Location order in the file is preserved; location k in the file is
    location index k+1 everywhere else.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise InstanceError(f"cannot read instance file: {exc}") from exc
    except ValueError as exc:  # malformed JSON, or an integer too long to read
        raise InstanceError(f"instance file is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise InstanceError("instance file must contain a JSON object")
    missing = {"origin", "locations"} - data.keys()
    if missing:
        raise InstanceError(f"instance file missing fields: {sorted(missing)}")
    return make_instance(data["origin"], data["locations"], data.get("distance_table"))


def distance_matrix(inst: Instance) -> np.ndarray:
    """Full (n+1) x (n+1) distance table, origin first."""
    if inst.distance_table is not None:
        return inst.distance_table.copy()
    xy = np.array([(p.x, p.y) for p in (inst.origin, *inst.locations)])
    diff = xy[:, None, :] - xy[None, :, :]
    return np.hypot(diff[..., 0], diff[..., 1])
