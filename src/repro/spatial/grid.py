"""Grid discretization of a region.

The paper griditizes every dataset (80x80 RWM cells, 100 m cells for the
Lausanne campaign, 20x15 cells for the Intel-Lab replay).  A :class:`Grid`
maps continuous locations to integer cells and back.  Radius and box
queries over a slot's sensors go through
:class:`repro.spatial.index.UniformGridIndex`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .geometry import Location
from .region import Region

__all__ = ["Grid"]


@dataclass(frozen=True)
class Grid:
    """Uniform grid over ``region`` with square cells of side ``cell_size``."""

    region: Region
    cell_size: float = 1.0

    def __post_init__(self) -> None:
        if self.cell_size <= 0:
            raise ValueError("cell_size must be positive")

    @property
    def n_cols(self) -> int:
        return max(1, int(round(self.region.width / self.cell_size)))

    @property
    def n_rows(self) -> int:
        return max(1, int(round(self.region.height / self.cell_size)))

    @property
    def n_cells(self) -> int:
        return self.n_cols * self.n_rows

    def cell_of(self, location: Location) -> tuple[int, int]:
        """Integer cell ``(col, row)`` containing ``location`` (clamped)."""
        col = int((location.x - self.region.x_min) // self.cell_size)
        row = int((location.y - self.region.y_min) // self.cell_size)
        col = min(max(col, 0), self.n_cols - 1)
        row = min(max(row, 0), self.n_rows - 1)
        return (col, row)

    def center_of(self, cell: tuple[int, int]) -> Location:
        """Centre of integer cell ``(col, row)``."""
        col, row = cell
        if not (0 <= col < self.n_cols and 0 <= row < self.n_rows):
            raise ValueError(f"cell {cell} outside grid {self.n_cols}x{self.n_rows}")
        return Location(
            self.region.x_min + (col + 0.5) * self.cell_size,
            self.region.y_min + (row + 0.5) * self.cell_size,
        )

    def cells(self) -> Iterator[tuple[int, int]]:
        for col in range(self.n_cols):
            for row in range(self.n_rows):
                yield (col, row)

    def centers(self) -> Iterator[Location]:
        for cell in self.cells():
            yield self.center_of(cell)
