"""Tests for repro.spatial.grid."""

from __future__ import annotations

import pytest

from repro.spatial import Grid, Location, Region


class TestGrid:
    def test_dimensions(self):
        grid = Grid(Region.from_origin(20, 15), cell_size=1.0)
        assert grid.n_cols == 20
        assert grid.n_rows == 15
        assert grid.n_cells == 300

    def test_invalid_cell_size(self):
        with pytest.raises(ValueError):
            Grid(Region.from_origin(5, 5), cell_size=0.0)

    def test_cell_of_and_center_roundtrip(self):
        grid = Grid(Region.from_origin(10, 10), cell_size=2.0)
        cell = grid.cell_of(Location(3.5, 7.9))
        assert cell == (1, 3)
        center = grid.center_of(cell)
        assert center == Location(3.0, 7.0)
        assert grid.cell_of(center) == cell

    def test_cell_of_clamps_outside_points(self):
        grid = Grid(Region.from_origin(10, 10))
        assert grid.cell_of(Location(-4, 100)) == (0, 9)

    def test_center_of_invalid_cell_raises(self):
        grid = Grid(Region.from_origin(4, 4))
        with pytest.raises(ValueError):
            grid.center_of((10, 0))

    def test_cells_enumeration(self):
        grid = Grid(Region.from_origin(3, 2))
        cells = list(grid.cells())
        assert len(cells) == 6
        assert (0, 0) in cells and (2, 1) in cells

    def test_centers_inside_region(self):
        grid = Grid(Region(5, 5, 9, 8))
        for c in grid.centers():
            assert grid.region.contains(c)
