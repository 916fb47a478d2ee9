"""Coverage functions ``G_q`` for aggregate and trajectory queries.

Eq. (5) of the paper values an aggregate query's sensor set as
``B_q * G_q(S_q) * mean_quality`` where ``G_q`` "calculates the coverage of
the selected sensors.  A simple coverage function can calculate the fraction
of the area covered by the sensors, while a more general function might also
take into account the dispersion or the importance of the locations".

Two flavours are provided:

* :class:`AreaCoverage` — fraction of the region's grid cells within sensing
  range of at least one selected sensor (the paper's "simple" function);
* :class:`TrajectoryCoverage` — fraction of corridor sample points covered.

Coverage functions are classic monotone submodular set functions; the test
suite checks submodularity by property-based testing.

**Array-native geometry.**  Every entry point that takes sensor locations
(``__call__``, :meth:`CoverageFunction.masks_for`, ``covered_cells``)
accepts either a sequence of :class:`Location` objects or a stacked
``(n, 2)`` float array (see :func:`repro.spatial.geometry.as_xy`).  Batch
gain states hand the allocator's shared coordinate block straight to
:meth:`masks_for`, so a slot with many region queries never materializes a
single ``Location``; the two input forms go through identical broadcasted
arithmetic and therefore produce bit-identical masks.  The slot raster calls
``masks_for`` with an ``(n, 2)`` array only, so an override must accept one.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .geometry import Location, as_xy, require_positive
from .region import Region
from .trajectory import Trajectory

__all__ = [
    "CoverageFunction",
    "AreaCoverage",
    "TrajectoryCoverage",
]


class CoverageFunction:
    """Interface: map a set of sensor locations to a coverage in ``[0, 1]``.

    ``sensor_locations`` arguments accept ``Sequence[Location]`` or a
    stacked ``(n, 2)`` array everywhere (the module docstring's array-native
    contract).  Implementors must rasterize their domain into a fixed cell
    order (:attr:`cell_count` cells) at construction time; all masks index
    into that order.
    """

    def __call__(self, sensor_locations) -> float:
        raise NotImplementedError

    def mask_for(self, location: Location) -> np.ndarray:
        """Boolean mask over the function's cells covered by one sensor.

        Greedy allocators accumulate these masks to evaluate coverage
        marginals in O(#cells) instead of recomputing the full coverage.
        """
        raise NotImplementedError

    def masks_for(self, locations) -> np.ndarray:
        """Stacked per-sensor masks, shape ``(len(locations), cell_count)``.

        Row ``i`` equals ``mask_for(locations[i])``; batch-gain states build
        this matrix once per allocator call and evaluate every candidate's
        coverage delta with a single boolean pass.  ``locations`` may be a
        ``(n, 2)`` coordinate array (the allocator hot path — no
        ``Location`` objects are built) or a ``Location`` sequence; an
        override must accept the array form.

        The default implementation loops over :meth:`mask_for`, so a
        custom function only needs the scalar method to be correct; the
        built-in rasterized functions override with a single broadcasted
        pass whose rows are bit-identical to the scalar loop's.
        """
        xy = as_xy(locations)
        if len(xy) == 0:
            return np.zeros((0, self.cell_count), dtype=bool)
        return np.stack(
            [self.mask_for(Location(float(x), float(y))) for x, y in xy]
        )

    @property
    def cell_count(self) -> int:
        """Number of rasterized cells/points behind the function."""
        raise NotImplementedError


def _distance_matrix(cells: np.ndarray, sensor_locations) -> np.ndarray:
    """``(n_cells, n_sensors)`` distances, the shared mask-building pass.

    ``sensor_locations`` is either a ``Location`` sequence or an ``(n, 2)``
    array; both stack to the same coordinates, so the broadcasted distances
    are bit-identical across input forms.
    """
    sensors = as_xy(sensor_locations)
    diff = cells[:, None, :] - sensors[None, :, :]
    return np.sqrt((diff**2).sum(axis=2))


def _cover_matrix(cells: np.ndarray, sensor_locations, sensing_range: float) -> np.ndarray:
    """Boolean vector: cell i is within ``sensing_range`` of some sensor."""
    if len(sensor_locations) == 0 or cells.size == 0:
        return np.zeros(len(cells), dtype=bool)
    return (_distance_matrix(cells, sensor_locations) <= sensing_range).any(axis=1)


def _mask_matrix(cells: np.ndarray, sensor_locations, sensing_range: float) -> np.ndarray:
    """``(n_sensors, n_cells)`` stacked masks — one :func:`_cover_matrix`
    column per sensor, computed in a single broadcasted pass."""
    if len(sensor_locations) == 0 or cells.size == 0:
        return np.zeros((len(sensor_locations), len(cells)), dtype=bool)
    return (_distance_matrix(cells, sensor_locations) <= sensing_range).T


@dataclass
class AreaCoverage(CoverageFunction):
    """Fraction of ``region`` grid-cell centres covered by the sensors.

    ``cell_size`` controls rasterization fidelity; the paper's regions are
    already integer grids so the default of one cell per grid unit is exact.
    """

    region: Region
    sensing_range: float
    cell_size: float = 1.0
    _cells: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        require_positive("sensing_range", self.sensing_range)
        require_positive("cell_size", self.cell_size)
        self._cells = self.region.grid_xy(self.cell_size)

    @property
    def n_cells(self) -> int:
        return len(self._cells)

    def covered_cells(self, sensor_locations) -> int:
        return int(_cover_matrix(self._cells, sensor_locations, self.sensing_range).sum())

    def __call__(self, sensor_locations) -> float:
        if self.n_cells == 0:
            return 0.0
        return self.covered_cells(sensor_locations) / self.n_cells

    def mask_for(self, location: Location) -> np.ndarray:
        return _cover_matrix(self._cells, [location], self.sensing_range)

    def masks_for(self, locations) -> np.ndarray:
        return _mask_matrix(self._cells, locations, self.sensing_range)

    @property
    def cell_count(self) -> int:
        return self.n_cells


@dataclass
class TrajectoryCoverage(CoverageFunction):
    """Fraction of trajectory sample points within sensing range.

    Reduces a query over a trajectory (Section 2.2.3) to the aggregate-query
    machinery: the "cells" are points spaced ``spacing`` apart along the
    path.
    """

    trajectory: Trajectory
    sensing_range: float
    spacing: float = 1.0
    _cells: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        require_positive("sensing_range", self.sensing_range)
        require_positive("spacing", self.spacing)
        points = self.trajectory.sample_points(self.spacing)
        self._cells = np.asarray([(p.x, p.y) for p in points], dtype=float)

    @property
    def n_points(self) -> int:
        return len(self._cells)

    def __call__(self, sensor_locations) -> float:
        if self.n_points == 0:
            return 0.0
        covered = _cover_matrix(self._cells, sensor_locations, self.sensing_range)
        return float(covered.sum() / self.n_points)

    def mask_for(self, location: Location) -> np.ndarray:
        return _cover_matrix(self._cells, [location], self.sensing_range)

    def masks_for(self, locations) -> np.ndarray:
        return _mask_matrix(self._cells, locations, self.sensing_range)

    @property
    def cell_count(self) -> int:
        return self.n_points
