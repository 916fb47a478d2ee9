"""Axis-aligned rectangular regions.

Regions appear in three roles in the paper:

* the global *movement region* sensors roam in (e.g. 80x80 for RWM);
* the *working subregion* ("hotspot") the aggregator restricts itself to
  (e.g. the central 50x50 of the RWM region, Section 4.2);
* per-query regions of spatial aggregate and region monitoring queries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .geometry import Location

__all__ = ["Region"]


@dataclass(frozen=True)
class Region:
    """Closed axis-aligned rectangle ``[x_min, x_max] x [y_min, y_max]``."""

    x_min: float
    y_min: float
    x_max: float
    y_max: float

    def __post_init__(self) -> None:
        if not all(map(math.isfinite, (self.x_min, self.y_min, self.x_max, self.y_max))):
            raise ValueError(
                f"region bounds must be finite, got ({self.x_min},{self.y_min})-"
                f"({self.x_max},{self.y_max})"
            )
        if self.x_max < self.x_min or self.y_max < self.y_min:
            raise ValueError(
                f"degenerate region: ({self.x_min},{self.y_min})-"
                f"({self.x_max},{self.y_max})"
            )

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_origin(cls, width: float, height: float) -> "Region":
        """Region ``[0, width] x [0, height]``."""
        return cls(0.0, 0.0, float(width), float(height))

    @classmethod
    def centered_in(cls, outer: "Region", width: float, height: float) -> "Region":
        """Rectangle of the given size centred inside ``outer``.

        This is how the paper derives the 50x50 hotspot from the 80x80 RWM
        region and the 100x100 working subregion of the RNC region.
        """
        if width > outer.width or height > outer.height:
            raise ValueError("inner region does not fit inside outer region")
        cx = (outer.x_min + outer.x_max) / 2.0
        cy = (outer.y_min + outer.y_max) / 2.0
        return cls(cx - width / 2.0, cy - height / 2.0, cx + width / 2.0, cy + height / 2.0)

    @classmethod
    def random_subregion(
        cls,
        outer: "Region",
        rng: np.random.Generator,
        min_side: float = 1.0,
        max_side: float | None = None,
    ) -> "Region":
        """Uniformly random rectangle contained in ``outer``.

        Used by the workload generators for aggregate and region-monitoring
        queries ("queried regions are generated randomly in the working
        region", Sections 4.4 and 4.6).
        """
        if not math.isfinite(min_side):
            raise ValueError(f"min_side must be finite, got {min_side}")
        # An infinite max_side caps nothing, like None; NaN would slip past
        # the extent check below.
        if max_side is not None and math.isnan(max_side):
            raise ValueError(f"max_side must not be NaN, got {max_side}")
        max_w = outer.width if max_side is None else min(max_side, outer.width)
        max_h = outer.height if max_side is None else min(max_side, outer.height)
        if min_side > max_w or min_side > max_h:
            raise ValueError("min_side exceeds the outer region extent")
        width = rng.uniform(min_side, max_w)
        height = rng.uniform(min_side, max_h)
        x0 = rng.uniform(outer.x_min, outer.x_max - width)
        y0 = rng.uniform(outer.y_min, outer.y_max - height)
        return cls(x0, y0, x0 + width, y0 + height)

    # ------------------------------------------------------------------
    # basic properties
    # ------------------------------------------------------------------
    @property
    def width(self) -> float:
        return self.x_max - self.x_min

    @property
    def height(self) -> float:
        return self.y_max - self.y_min

    @property
    def area(self) -> float:
        """Area ``A(r)`` — drives the budget formulas of Sections 4.4/4.6."""
        return self.width * self.height

    @property
    def center(self) -> Location:
        return Location((self.x_min + self.x_max) / 2.0, (self.y_min + self.y_max) / 2.0)

    # ------------------------------------------------------------------
    # predicates
    # ------------------------------------------------------------------
    def contains(self, location: Location) -> bool:
        """Whether ``location`` lies in the closed rectangle."""
        return (
            self.x_min <= location.x <= self.x_max
            and self.y_min <= location.y <= self.y_max
        )

    def contains_many(self, xy: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`contains` over an ``(n, 2)`` coordinate array.

        Element ``i`` equals ``contains(Location(*xy[i]))`` exactly (the
        closed-rectangle comparisons are identical float operations), so
        scalar and batch membership tests can never disagree.
        """
        x, y = xy[:, 0], xy[:, 1]
        return (
            (self.x_min <= x)
            & (x <= self.x_max)
            & (self.y_min <= y)
            & (y <= self.y_max)
        )

    def exterior_distance_sq(self, xy: np.ndarray) -> np.ndarray:
        """Squared distance from each point to the rectangle (0 inside).

        Replicates the scalar clamped-axis arithmetic
        (``dx = max(x_min - x, 0, x - x_max)``, then ``dx^2 + dy^2``)
        elementwise, so thresholding this array is bit-identical to the
        scalar reach tests built on the same expression (e.g.
        ``SpatialAggregateQuery.relevant``).
        """
        dx = np.maximum(np.maximum(self.x_min - xy[:, 0], 0.0), xy[:, 0] - self.x_max)
        dy = np.maximum(np.maximum(self.y_min - xy[:, 1], 0.0), xy[:, 1] - self.y_max)
        return dx * dx + dy * dy

    def contains_region(self, other: "Region") -> bool:
        return (
            self.x_min <= other.x_min
            and self.y_min <= other.y_min
            and self.x_max >= other.x_max
            and self.y_max >= other.y_max
        )

    def overlaps(self, other: "Region") -> bool:
        """Whether the closed rectangles share at least one point."""
        return not (
            self.x_max < other.x_min
            or other.x_max < self.x_min
            or self.y_max < other.y_min
            or other.y_max < self.y_min
        )

    def intersection(self, other: "Region") -> "Region | None":
        """Intersection rectangle, or ``None`` when disjoint."""
        if not self.overlaps(other):
            return None
        return Region(
            max(self.x_min, other.x_min),
            max(self.y_min, other.y_min),
            min(self.x_max, other.x_max),
            min(self.y_max, other.y_max),
        )

    # ------------------------------------------------------------------
    # sampling and iteration
    # ------------------------------------------------------------------
    def clamp(self, location: Location) -> Location:
        """Project ``location`` onto the rectangle (used by mobility bounce)."""
        return Location(
            min(max(location.x, self.x_min), self.x_max),
            min(max(location.y, self.y_min), self.y_max),
        )

    def sample_location(self, rng: np.random.Generator) -> Location:
        """Uniformly random location inside the rectangle."""
        return Location(rng.uniform(self.x_min, self.x_max), rng.uniform(self.y_min, self.y_max))

    def sample_locations(self, count: int, rng: np.random.Generator) -> list[Location]:
        """``count`` i.i.d. uniform locations inside the rectangle."""
        xs = rng.uniform(self.x_min, self.x_max, size=count)
        ys = rng.uniform(self.y_min, self.y_max, size=count)
        return [Location(float(x), float(y)) for x, y in zip(xs, ys)]

    def grid_cells(self, cell: float = 1.0) -> Iterator[Location]:
        """Iterate the centres of ``cell``-sized grid cells covering the region.

        Region monitoring (eq. 6/7) evaluates GP variance over a finite set of
        unobserved locations; we use the cell centres of the queried region.
        """
        nx = max(1, int(round(self.width / cell)))
        ny = max(1, int(round(self.height / cell)))
        for ix in range(nx):
            for iy in range(ny):
                yield Location(
                    self.x_min + (ix + 0.5) * cell,
                    self.y_min + (iy + 0.5) * cell,
                )

    def grid_xy(self, cell: float = 1.0) -> np.ndarray:
        """:meth:`grid_cells` as an ``(nx * ny, 2)`` array, bit for bit.

        The same row-major order and, per coordinate, the same IEEE
        operations (``x_min + (i + 0.5) * cell``), evaluated elementwise
        instead of building one :class:`Location` per cell.
        """
        nx = max(1, int(round(self.width / cell)))
        ny = max(1, int(round(self.height / cell)))
        xs = self.x_min + (np.arange(nx) + 0.5) * cell
        ys = self.y_min + (np.arange(ny) + 0.5) * cell
        return np.column_stack((np.repeat(xs, ny), np.tile(ys, nx)))
