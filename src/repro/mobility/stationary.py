"""Stationary "mobility": sensors that never move.

The Intel-Lab replay (Section 4.2) mixes a stationary ground-truth
deployment with 30 imaginary mobile sensors; the stationary part uses this
model.  It is also handy in unit tests where deterministic geometry is
needed.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..spatial import Location, Region
from .base import MobilityModel

__all__ = ["StationaryMobility", "ChurnMobility"]


class StationaryMobility(MobilityModel):
    """Fixed sensor positions; :meth:`advance` is a no-op."""

    def __init__(self, region: Region, positions: Sequence[Location]) -> None:
        if not positions:
            raise ValueError("need at least one sensor position")
        outside = [p for p in positions if not region.contains(p)]
        if outside:
            raise ValueError(f"{len(outside)} positions fall outside the region")
        self._region = region
        self._positions = tuple(positions)
        self._xy = np.asarray([(p.x, p.y) for p in self._positions], dtype=float)

    @property
    def n_sensors(self) -> int:
        return len(self._positions)

    @property
    def region(self) -> Region:
        return self._region

    def locations(self) -> tuple[Location, ...]:
        return self._positions

    def locations_xy(self) -> np.ndarray:
        return self._xy

    def advance(self) -> None:
        return None


class ChurnMobility(MobilityModel):
    """A near-stationary fleet where a small fraction relocates per slot.

    Models the paper's participatory-sensing steady state between
    campaigns: most contributors stay put while a few percent move between
    slots.  Each :meth:`advance` relocates ``round(fraction * n)`` sensors
    (chosen uniformly without replacement) to fresh uniform positions in
    the region; everyone else keeps their exact coordinates, so the moved
    set *is* the per-slot churn — the reference low-mobility workload.

    Deterministic given the generator's seed, so a
    :meth:`MobilityTrace.generated
    <repro.mobility.trace.MobilityTrace.generated>` recipe replays a
    reproducible low-churn world one slot at a time.  :meth:`advance`
    writes the position buffer in place.
    """

    def __init__(
        self,
        region: Region,
        n_sensors: int,
        rng: np.random.Generator,
        fraction: float = 0.01,
    ) -> None:
        if n_sensors < 1:
            raise ValueError("need at least one sensor")
        if not 0.0 <= fraction <= 1.0:
            raise ValueError(f"churn fraction must be in [0, 1], got {fraction}")
        self._region = region
        self._rng = rng
        self._fraction = float(fraction)
        self._xy = np.column_stack(
            [
                rng.uniform(region.x_min, region.x_max, size=n_sensors),
                rng.uniform(region.y_min, region.y_max, size=n_sensors),
            ]
        )

    @property
    def n_sensors(self) -> int:
        return len(self._xy)

    @property
    def region(self) -> Region:
        return self._region

    @property
    def fraction(self) -> float:
        return self._fraction

    def locations(self) -> tuple[Location, ...]:
        return tuple(Location(float(x), float(y)) for x, y in self._xy)

    def locations_xy(self) -> np.ndarray:
        return self._xy

    def advance(self) -> None:
        n = len(self._xy)
        k = int(round(self._fraction * n))
        if k == 0:
            return
        movers = self._rng.choice(n, size=k, replace=False)
        self._xy[movers, 0] = self._rng.uniform(
            self._region.x_min, self._region.x_max, size=k
        )
        self._xy[movers, 1] = self._rng.uniform(
            self._region.y_min, self._region.y_max, size=k
        )
