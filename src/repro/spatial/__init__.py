"""Spatial substrate: locations, regions, grids, trajectories, coverage."""

from .coverage import AreaCoverage, CoverageFunction, TrajectoryCoverage
from .geometry import Location, as_xy, centroid, euclidean, manhattan, nearest, pairwise_distances
from .grid import Grid
from .index import UniformGridIndex
from .raster import WorldRaster
from .region import Region
from .trajectory import Trajectory

__all__ = [
    "WorldRaster",
    "Location",
    "as_xy",
    "Region",
    "Grid",
    "UniformGridIndex",
    "Trajectory",
    "AreaCoverage",
    "TrajectoryCoverage",
    "CoverageFunction",
    "euclidean",
    "manhattan",
    "pairwise_distances",
    "nearest",
    "centroid",
]
