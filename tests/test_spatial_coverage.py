"""Tests for repro.spatial.coverage, including submodularity properties."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.spatial import (
    AreaCoverage,
    Location,
    Region,
    Trajectory,
    TrajectoryCoverage,
)

REGION = Region.from_origin(10, 10)

locations = st.builds(
    Location,
    st.floats(0, 10, allow_nan=False),
    st.floats(0, 10, allow_nan=False),
)


class TestAreaCoverage:
    def test_empty_set_has_zero_coverage(self):
        cov = AreaCoverage(REGION, sensing_range=3.0)
        assert cov([]) == 0.0

    def test_full_coverage_with_central_big_disk(self):
        cov = AreaCoverage(REGION, sensing_range=50.0)
        assert cov([Location(5, 5)]) == pytest.approx(1.0)

    def test_invalid_range(self):
        with pytest.raises(ValueError):
            AreaCoverage(REGION, sensing_range=0.0)

    def test_coverage_in_unit_interval(self):
        cov = AreaCoverage(REGION, sensing_range=2.0)
        value = cov([Location(5, 5), Location(0, 0)])
        assert 0.0 < value < 1.0

    def test_mask_for_matches_call(self):
        cov = AreaCoverage(REGION, sensing_range=3.0)
        loc = Location(4, 4)
        assert cov.mask_for(loc).sum() == cov.covered_cells([loc])

    def test_cell_count(self):
        cov = AreaCoverage(REGION, sensing_range=3.0)
        assert cov.cell_count == 100

    @given(st.lists(locations, min_size=0, max_size=6), locations)
    @settings(max_examples=40, deadline=None)
    def test_monotone(self, base, extra):
        cov = AreaCoverage(REGION, sensing_range=2.5)
        assert cov(base + [extra]) >= cov(base) - 1e-12

    @given(
        st.lists(locations, min_size=0, max_size=4),
        st.lists(locations, min_size=0, max_size=4),
        locations,
    )
    @settings(max_examples=40, deadline=None)
    def test_submodular(self, small, more, extra):
        """Diminishing returns: gain at A <= gain at A's superset is false;
        gain at superset <= gain at subset."""
        cov = AreaCoverage(REGION, sensing_range=2.5)
        big = small + more
        gain_small = cov(small + [extra]) - cov(small)
        gain_big = cov(big + [extra]) - cov(big)
        assert gain_big <= gain_small + 1e-9


#: Regions whose cell centres are rounding-sensitive: negative and
#: non-representable origins, cell sizes that do not divide the sides,
#: sub-cell sides (one cell), and a far-from-origin offset.
AWKWARD_GRIDS = [
    (Region(-7.3, -0.1, 5.9, 3.35), 0.7),
    (Region(0.1, 0.2, 0.3, 0.35), 1.0),
    (Region(-33.33, 12.71, -17.02, 29.9), 0.1),
    (Region(1e6 + 0.1, -1e6 - 0.3, 1e6 + 6.6, -1e6 + 4.1), 2.0),
    (Region(2.5, 2.5, 19.25, 11.0), 1.3),
]


@pytest.mark.parametrize("region, cell", AWKWARD_GRIDS)
def test_grid_centres_are_bitwise_grid_cells(region, cell):
    reference = np.asarray([(c.x, c.y) for c in region.grid_cells(cell)], dtype=float)
    for cells in (
        region.grid_xy(cell),
        AreaCoverage(region, 3.0, cell_size=cell)._cells,
    ):
        assert cells.shape == reference.shape
        assert np.array_equal(cells.view(np.int64), reference.view(np.int64))


class TestTrajectoryCoverage:
    def test_full_corridor_coverage(self):
        t = Trajectory.from_points([Location(0, 0), Location(4, 0)])
        cov = TrajectoryCoverage(t, sensing_range=10.0, spacing=1.0)
        assert cov([Location(2, 0)]) == pytest.approx(1.0)

    def test_partial_coverage(self):
        t = Trajectory.from_points([Location(0, 0), Location(10, 0)])
        cov = TrajectoryCoverage(t, sensing_range=1.5, spacing=1.0)
        value = cov([Location(0, 0)])
        assert 0.0 < value < 0.5

    def test_mask_for_consistency(self):
        t = Trajectory.from_points([Location(0, 0), Location(10, 0)])
        cov = TrajectoryCoverage(t, sensing_range=2.0, spacing=1.0)
        mask = cov.mask_for(Location(5, 0))
        assert mask.sum() / cov.n_points == pytest.approx(cov([Location(5, 0)]))

    @given(st.lists(locations, min_size=0, max_size=5), locations)
    @settings(max_examples=30, deadline=None)
    def test_monotone(self, base, extra):
        t = Trajectory.from_points([Location(0, 0), Location(10, 10)])
        cov = TrajectoryCoverage(t, sensing_range=2.0, spacing=1.0)
        assert cov(base + [extra]) >= cov(base) - 1e-12
