"""Planar geometry primitives used across the participatory-sensing stack.

The paper (Riahi et al., EDBT 2013) works on griditized planar regions:
sensor locations, queried locations, rectangular query regions and
trajectories all live in a 2-D Euclidean plane whose unit is one grid cell.
This module provides the single :class:`Location` value type plus the
distance helpers every other package builds on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "Location",
    "as_xy",
    "euclidean",
    "manhattan",
    "pairwise_distances",
    "nearest",
    "centroid",
    "require_positive",
    "require_finite_location",
]


def as_xy(points) -> np.ndarray:
    """Canonical ``(n, 2)`` float coordinate array of a point collection.

    The batch-geometry protocol (``Query.relevant_mask``,
    ``CoverageFunction.masks_for``) runs on stacked coordinate arrays; this
    is the single adapter every entry point shares.  An existing float
    ``(n, 2)`` array is adopted **as-is** (no copy — callers must treat the
    result as read-only); any other input is interpreted as a sequence of
    :class:`Location`-likes (objects with ``.x``/``.y``) and stacked.  An
    empty sequence yields a ``(0, 2)`` array so downstream broadcasting
    never special-cases emptiness.
    """
    if isinstance(points, np.ndarray):
        if points.ndim != 2 or (points.size and points.shape[1] != 2):
            raise ValueError(f"coordinate array must have shape (n, 2), got {points.shape}")
        if points.dtype != np.float64:
            return points.astype(float)
        return points
    return np.asarray([(p.x, p.y) for p in points], dtype=float).reshape(-1, 2)


def require_positive(name: str, value: float) -> None:
    """Refuse a length parameter that is not a finite positive number.

    A bare ``value <= 0`` check lets NaN (every comparison is false) and
    ``inf`` through, and both then fail far from the input with an error
    that names some other quantity.
    """
    if not (math.isfinite(value) and value > 0):
        raise ValueError(f"{name} must be finite and positive, got {value}")


def require_finite_location(name: str, location: Location) -> None:
    """Refuse a location with a NaN or infinite coordinate."""
    if not (math.isfinite(location.x) and math.isfinite(location.y)):
        raise ValueError(f"{name} must be finite, got ({location.x}, {location.y})")


@dataclass(frozen=True, order=True)
class Location:
    """A point in the sensing plane, in grid-cell units.

    Instances are immutable and hashable so they can key dictionaries of
    per-location query groups (the BILP of Section 3.1.1 groups point
    queries by queried location).
    """

    x: float
    y: float

    def distance_to(self, other: "Location") -> float:
        """Euclidean distance to ``other`` in grid units."""
        return math.hypot(self.x - other.x, self.y - other.y)

    def manhattan_to(self, other: "Location") -> float:
        """L1 distance to ``other`` — used by axis-aligned mobility."""
        return abs(self.x - other.x) + abs(self.y - other.y)

    def translated(self, dx: float, dy: float) -> "Location":
        """Return a new location shifted by ``(dx, dy)``."""
        return Location(self.x + dx, self.y + dy)

    def snapped(self) -> "Location":
        """Return the location snapped to the integer grid cell centre."""
        return Location(float(round(self.x)), float(round(self.y)))

    def as_tuple(self) -> tuple[float, float]:
        """Return ``(x, y)`` — convenient for numpy interop."""
        return (self.x, self.y)

    def __iter__(self):
        yield self.x
        yield self.y


def euclidean(a: Location, b: Location) -> float:
    """Euclidean distance between two locations."""
    return a.distance_to(b)


def manhattan(a: Location, b: Location) -> float:
    """Manhattan (L1) distance between two locations."""
    return a.manhattan_to(b)


def pairwise_distances(
    points: Sequence[Location], others: Sequence[Location] | None = None
) -> np.ndarray:
    """Dense Euclidean distance matrix between two location sequences.

    When ``others`` is omitted the matrix is the symmetric self-distance
    matrix of ``points``.  Vectorized with numpy: the allocation algorithms
    evaluate sensor-to-query distances for hundreds of sensors per slot and
    a Python double loop would dominate the runtime.
    """
    left = np.asarray([(p.x, p.y) for p in points], dtype=float)
    if others is None:
        right = left
    else:
        right = np.asarray([(p.x, p.y) for p in others], dtype=float)
    if left.size == 0 or right.size == 0:
        return np.zeros((len(points), 0 if others is not None else len(points)))
    diff = left[:, None, :] - right[None, :, :]
    return np.sqrt((diff**2).sum(axis=2))


def nearest(target: Location, candidates: Iterable[Location]) -> Location:
    """Return the candidate closest to ``target``.

    Raises:
        ValueError: if ``candidates`` is empty.
    """
    best = None
    best_dist = math.inf
    # reprolint: disable=hot-loop(scalar utility over a handful of Locations, not the announcement axis)
    for candidate in candidates:
        dist = target.distance_to(candidate)
        if dist < best_dist:
            best, best_dist = candidate, dist
    if best is None:
        raise ValueError("nearest() requires at least one candidate location")
    return best


def centroid(points: Sequence[Location]) -> Location:
    """Arithmetic mean of a non-empty sequence of locations.

    Raises:
        ValueError: if ``points`` is empty.
    """
    if not points:
        raise ValueError("centroid() requires at least one location")
    sx = sum(p.x for p in points)
    sy = sum(p.y for p in points)
    return Location(sx / len(points), sy / len(points))
