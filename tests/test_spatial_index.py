"""Unit tests for the uniform-grid point index behind the kernel's
candidate views.

Queries go through the pair the kernel calls: :meth:`cell_range` for a
box, then :meth:`indices_in_cell_range` for its cells' members."""

from __future__ import annotations

import numpy as np
import pytest

from repro.spatial import UniformGridIndex


def in_box(index, x0, x1, y0, y1):
    """Candidate indices for a box, resolved the way the kernel does."""
    rng = index.cell_range(x0, x1, y0, y1)
    return np.zeros(0, dtype=np.intp) if rng is None else index.indices_in_cell_range(*rng)


def in_disk(index, x, y, r):
    """Candidate indices for a disk: the cells of its bounding box."""
    return in_box(index, x - r, x + r, y - r, y + r)


def brute_disk(xy, x, y, r):
    d = np.hypot(xy[:, 0] - x, xy[:, 1] - y)
    return set(np.flatnonzero(d <= r).tolist())


def brute_box(xy, x0, x1, y0, y1):
    inside = (xy[:, 0] >= x0) & (xy[:, 0] <= x1) & (xy[:, 1] >= y0) & (xy[:, 1] <= y1)
    return set(np.flatnonzero(inside).tolist())


class TestConstruction:
    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            UniformGridIndex(np.zeros((3, 3)), 1.0)
        with pytest.raises(ValueError):
            UniformGridIndex(np.zeros((3, 2)), 0.0)

    def test_empty_index(self):
        index = UniformGridIndex(np.zeros((0, 2)), 1.0)
        assert index.n_points == 0
        assert index.n_shards == 0
        assert index.cell_range(-10.0, 10.0, -10.0, 10.0) is None
        assert len(index.indices_in_cell_range(0, 0, 0, 0)) == 0

    def test_single_point(self):
        index = UniformGridIndex(np.array([[3.0, 4.0]]), 2.0)
        assert index.n_shards == 1
        assert in_disk(index, 3.0, 4.0, 0.0).tolist() == [0]
        assert len(in_disk(index, 100.0, 100.0, 1.0)) == 0

    def test_every_point_bucketed_once(self):
        rng = np.random.default_rng(0)
        xy = rng.uniform(-50, 50, size=(300, 2))
        index = UniformGridIndex(xy, 7.0)
        seen = np.concatenate(
            [
                index.indices_in_cell_range(c, c, r, r)
                for c in range(index.n_cols)
                for r in range(index.n_rows)
            ]
        )
        assert sorted(seen.tolist()) == list(range(300))

    def test_point_found_in_its_own_cell(self):
        """A zero-size box at a point's coordinates resolves to one cell,
        and that cell holds the point."""
        rng = np.random.default_rng(1)
        xy = rng.uniform(0, 30, size=(100, 2))
        index = UniformGridIndex(xy, 4.0)
        for j in range(100):
            c0, c1, r0, r1 = index.cell_range(xy[j, 0], xy[j, 0], xy[j, 1], xy[j, 1])
            assert (c0, r0) == (c1, r1)
            assert j in index.indices_in_cell_range(c0, c1, r0, r1)


class TestBoxQueries:
    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("cell", [0.5, 3.0, 11.0, 200.0])
    def test_disk_candidates_are_supersets(self, seed, cell):
        rng = np.random.default_rng(seed)
        xy = rng.uniform(-20, 60, size=(150, 2))
        index = UniformGridIndex(xy, cell)
        for _ in range(20):
            x, y = rng.uniform(-30, 70, size=2)
            r = float(rng.uniform(0, 15))
            got = set(in_disk(index, x, y, r).tolist())
            assert brute_disk(xy, x, y, r) <= got

    @pytest.mark.parametrize("seed", range(5))
    def test_box_candidates_are_supersets(self, seed):
        rng = np.random.default_rng(100 + seed)
        xy = rng.uniform(0, 40, size=(120, 2))
        index = UniformGridIndex(xy, 3.0)
        for _ in range(20):
            x0, y0 = rng.uniform(-5, 35, size=2)
            x1, y1 = x0 + rng.uniform(0, 15), y0 + rng.uniform(0, 15)
            got = set(in_box(index, x0, x1, y0, y1).tolist())
            assert brute_box(xy, x0, x1, y0, y1) <= got

    def test_results_are_sorted_and_unique(self):
        rng = np.random.default_rng(42)
        xy = rng.uniform(0, 20, size=(80, 2))
        index = UniformGridIndex(xy, 2.5)
        got = in_disk(index, 10.0, 10.0, 6.0)
        assert got.tolist() == sorted(set(got.tolist()))

    def test_whole_grid_query_returns_everything(self):
        rng = np.random.default_rng(3)
        xy = rng.uniform(0, 10, size=(50, 2))
        index = UniformGridIndex(xy, 1.0)
        got = in_box(index, -100.0, 100.0, -100.0, 100.0)
        assert got.tolist() == list(range(50))

    def test_disjoint_query_is_empty(self):
        xy = np.array([[0.0, 0.0], [1.0, 1.0]])
        index = UniformGridIndex(xy, 1.0)
        assert index.cell_range(50.0, 60.0, 50.0, 60.0) is None

    def test_unclipped_cell_range_does_not_bleed_between_columns(self):
        # A row bound beyond n_rows must not let the linearized key window
        # pick up the neighbouring column's buckets.
        xy = np.array([[0.5, 0.5], [0.5, 1.5], [1.5, 0.5]])
        index = UniformGridIndex(xy, 1.0)
        got = index.indices_in_cell_range(0, 0, 0, 5)
        assert got.tolist() == [0, 1]  # column-0 members only
        assert len(index.indices_in_cell_range(5, 9, 0, 0)) == 0

    def test_colinear_points(self):
        xy = np.array([[float(i), 5.0] for i in range(30)])
        index = UniformGridIndex(xy, 2.0)
        assert index.n_rows == 1
        got = set(in_disk(index, 10.0, 5.0, 3.0).tolist())
        assert brute_disk(xy, 10.0, 5.0, 3.0) <= got

    def test_points_on_cell_boundaries(self):
        # Integer coordinates on integer cell edges: every point must land
        # in exactly one bucket and still be found by touching queries.
        xy = np.array(
            [[float(c), float(r)] for c in range(5) for r in range(5)]
        )
        index = UniformGridIndex(xy, 1.0)
        assert in_box(index, 0.0, 4.0, 0.0, 4.0).tolist() == list(range(25))
        got = set(in_disk(index, 2.0, 2.0, 1.0).tolist())
        assert brute_disk(xy, 2.0, 2.0, 1.0) <= got
