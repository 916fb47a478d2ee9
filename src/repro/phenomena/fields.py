"""Spatially correlated scalar fields — the Intel-Lab-deployment substitute.

Section 4.2 of the paper replays the Intel Lab dataset over a 20x15 grid:
readings from the stationary motes are "assigned to the grids in which they
are located" and mobile imaginary sensors report the value of the cell they
stand on.  We cannot ship that dataset, so :class:`CorrelatedField` produces
the drop-in equivalent: one GP-sampled realization per grid cell, optionally
evolving slot-to-slot with an AR(1) drift so that monitoring over time stays
non-trivial.

The substitution is behaviour-preserving because the region-monitoring code
path needs only (a) a spatially correlated training set to learn GP
hyper-parameters from and (b) a per-cell ground truth for mobile sensors to
report.
"""

from __future__ import annotations


import numpy as np

from ..spatial import Grid, Location, Region
from .gaussian_process import GaussianProcessField, RBFKernel

__all__ = ["CorrelatedField", "INTEL_LAB_REGION"]

#: The Intel-Lab replay region of the paper: a 20x15 grid.
INTEL_LAB_REGION = Region(0.0, 0.0, 20.0, 15.0)


class CorrelatedField:
    """A per-cell scalar field sampled from a GP, with optional AR(1) drift.

    Args:
        region: the field's extent (defaults match the paper's 20x15 grid).
        rng: randomness source.
        kernel: spatial covariance of the generating GP.
        mean: field mean (e.g. 20 "degrees").
        temporal_rho: AR(1) coefficient for slot-to-slot evolution; 1.0
            freezes the field (stationary, like a single Intel-Lab snapshot).
        innovation_scale: standard deviation of the AR(1) innovations,
            relative to the kernel's marginal standard deviation.
    """

    def __init__(
        self,
        rng: np.random.Generator,
        region: Region = INTEL_LAB_REGION,
        kernel: RBFKernel | None = None,
        mean: float = 20.0,
        temporal_rho: float = 1.0,
        innovation_scale: float = 0.1,
        cell_size: float = 1.0,
    ) -> None:
        if not (0.0 < temporal_rho <= 1.0):
            raise ValueError("temporal_rho must be in (0, 1]")
        if innovation_scale < 0:
            raise ValueError("innovation_scale must be non-negative")
        self.region = region
        # Unit-ish marginal variance keeps eq. 7's unnormalized F in the
        # magnitude band of the paper's Figure 9.
        self.kernel = kernel if kernel is not None else RBFKernel(variance=1.0, length_scale=2.0)
        self.mean = mean
        self._rho = temporal_rho
        self._innovation = innovation_scale * np.sqrt(self.kernel.variance)
        self._rng = rng
        self._grid = Grid(region, cell_size)
        self._centers = list(self._grid.centers())
        gp = GaussianProcessField(self.kernel, noise=1e-3)
        self._values = gp.sample(self._centers, rng)

    # ------------------------------------------------------------------
    # read access
    # ------------------------------------------------------------------
    @property
    def grid(self) -> Grid:
        return self._grid

    @property
    def cell_centers(self) -> list[Location]:
        return list(self._centers)

    def cell_values(self) -> np.ndarray:
        """Current latent value of every cell (mean included)."""
        return self._values + self.mean

    def value_at(self, location: Location) -> float:
        """Ground-truth value of the cell containing ``location``.

        This is exactly the paper's trick: "the sensor reading which is
        assigned to a grid is reported as the data for the imaginary sensor
        that is located in that grid".
        """
        col, row = self._grid.cell_of(location)
        index = col * self._grid.n_rows + row
        return float(self._values[index] + self.mean)

    def reading(self, location: Location, inaccuracy: float, rng: np.random.Generator) -> float:
        """A noisy sensor reading: truth + gaussian error scaled by gamma.

        ``inaccuracy`` is the sensor's gamma in "percentage of the value
        range" (Section 2.2.1); the value range proxy is 4 marginal standard
        deviations of the field.
        """
        value_range = 4.0 * np.sqrt(self.kernel.variance)
        return self.value_at(location) + rng.normal(0.0, inaccuracy * value_range / 2.0)

    # ------------------------------------------------------------------
    # temporal evolution
    # ------------------------------------------------------------------
    def advance(self) -> None:
        """AR(1) step: ``x <- rho x + innovations`` (no-op when rho = 1)."""
        if self._rho >= 1.0:
            return
        noise = self._rng.standard_normal(len(self._values)) * self._innovation
        self._values = self._rho * self._values + noise

    # ------------------------------------------------------------------
    # training data for hyper-parameter learning
    # ------------------------------------------------------------------
    def training_sample(
        self, fraction: float, rng: np.random.Generator
    ) -> tuple[list[Location], np.ndarray]:
        """A random fraction of (cell centre, value) pairs.

        Mirrors "the parameters of the Gaussian model are learned from a
        fraction of sensor readings" (Section 4.6).
        """
        if not (0.0 < fraction <= 1.0):
            raise ValueError("fraction must be in (0, 1]")
        n = len(self._centers)
        count = max(3, int(round(fraction * n)))
        chosen = rng.choice(n, size=min(count, n), replace=False)
        locations = [self._centers[i] for i in chosen]
        values = self._values[chosen] + self.mean
        return locations, values


def stationary_deployment(
    field: CorrelatedField, stride: int = 2
) -> tuple[list[Location], np.ndarray]:
    """A mote-like stationary deployment: every ``stride``-th cell centre.

    Provides the Intel-Lab-style "real deployment" view of the field —
    useful for examples and for GP-fit validation tests.
    """
    centers = field.cell_centers
    chosen = centers[::stride]
    values = np.asarray([field.value_at(c) for c in chosen])
    return chosen, values
