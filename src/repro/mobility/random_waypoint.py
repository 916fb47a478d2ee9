"""The paper's random-waypoint variant (RWM dataset, Section 4.2).

The paper's RWM is a simplification of Johnson & Maltz's random waypoint
model [6]: at each slot every sensor moves from its current location "with a
speed randomly selected between zero and a sensor-specific maximum speed.
The direction of the movement is either up, down, left, or right, and is
randomly selected."  Movement is limited to the rectangular region (80x80
grids by default); maximum speeds are drawn uniformly from {4, 5} at
initialization, and sensors start spread uniformly over the region.

We also provide the classic waypoint-target variant
(:class:`WaypointMobility`) because the RNC-substitute generator builds on
it.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..spatial import Location, Region
from .base import MobilityModel

__all__ = ["RandomWaypointMobility", "WaypointMobility"]

_DIRECTIONS = np.asarray([(0.0, 1.0), (0.0, -1.0), (-1.0, 0.0), (1.0, 0.0)])


class RandomWaypointMobility(MobilityModel):
    """Axis-aligned random walk with per-sensor maximum speed.

    Args:
        region: the full movement rectangle (sensors are clamped inside it).
        n_sensors: population size (paper default 200 for RWM experiments).
        rng: numpy random generator; all randomness flows through it.
        max_speed_choices: per-sensor max speed is drawn uniformly from
            these (paper: ``(4, 5)``).
    """

    def __init__(
        self,
        region: Region,
        n_sensors: int,
        rng: np.random.Generator,
        max_speed_choices: Sequence[float] = (4.0, 5.0),
    ) -> None:
        if n_sensors <= 0:
            raise ValueError("n_sensors must be positive")
        if not max_speed_choices:
            raise ValueError("max_speed_choices must be non-empty")
        self._region = region
        self._rng = rng
        self._max_speeds = rng.choice(np.asarray(max_speed_choices, dtype=float), size=n_sensors)
        xs = rng.uniform(region.x_min, region.x_max, size=n_sensors)
        ys = rng.uniform(region.y_min, region.y_max, size=n_sensors)
        self._positions = np.column_stack([xs, ys])

    @property
    def n_sensors(self) -> int:
        return len(self._positions)

    @property
    def region(self) -> Region:
        return self._region

    @property
    def max_speeds(self) -> np.ndarray:
        """Per-sensor maximum speeds (read-only view)."""
        return self._max_speeds.copy()

    def locations(self) -> list[Location]:
        return [Location(float(x), float(y)) for x, y in self._positions]

    def locations_xy(self) -> np.ndarray:
        # The stacked positions themselves; advance() rebinds rather than
        # mutates, so a previously returned array stays frame-stable.
        return self._positions

    def advance(self) -> None:
        n = self.n_sensors
        speeds = self._rng.uniform(0.0, self._max_speeds)
        directions = _DIRECTIONS[self._rng.integers(0, 4, size=n)]
        self._positions = self._positions + directions * speeds[:, None]
        np.clip(
            self._positions[:, 0],
            self._region.x_min,
            self._region.x_max,
            out=self._positions[:, 0],
        )
        np.clip(
            self._positions[:, 1],
            self._region.y_min,
            self._region.y_max,
            out=self._positions[:, 1],
        )


class WaypointMobility(MobilityModel):
    """Classic random waypoint: pick a target, travel to it, pause, repeat.

    Used as the trip engine of the Nokia-campaign substitute
    (:mod:`repro.mobility.nokia`), where targets are drawn from per-sensor
    anchor points instead of uniformly.

    :meth:`advance` is loop-free: one slot is three vectorized phases
    (decrement pauses and move travellers / draw arrival pauses / assign
    new trips).  Randomness is consumed in **batched phase order** —
    ascending sensor index *within* each phase — instead of the historical
    fully interleaved per-sensor order, so traces differ from the
    pre-vectorization implementation for the same seed while the trip
    *kinematics* are positionally identical (pinned by the replay-parity
    test in ``tests/test_mobility.py``, which feeds recorded draws through
    a per-sensor reference loop).  Per-slot draw order, for parity and
    reproducibility:

    1. arrival pauses: one ``integers(0, max_pause + 1, size=k)`` batch for
       the sensors that reach their target this slot, ascending index;
    2. trip targets: one :meth:`sample_targets` batch for the sensors
       starting a new trip (pause just expired, or arrived and drew pause
       0), ascending index;
    3. trip speeds: one ``uniform(min_speed, max_speed, size=m)`` batch for
       the same sensors.
    """

    def __init__(
        self,
        region: Region,
        n_sensors: int,
        rng: np.random.Generator,
        min_speed: float = 1.0,
        max_speed: float = 5.0,
        max_pause: int = 3,
    ) -> None:
        if n_sensors <= 0:
            raise ValueError("n_sensors must be positive")
        if not (0 < min_speed <= max_speed):
            raise ValueError("need 0 < min_speed <= max_speed")
        if max_pause < 0:
            raise ValueError("max_pause must be non-negative")
        self._region = region
        self._rng = rng
        self._min_speed = min_speed
        self._max_speed = max_speed
        self._max_pause = max_pause
        xs = rng.uniform(region.x_min, region.x_max, size=n_sensors)
        ys = rng.uniform(region.y_min, region.y_max, size=n_sensors)
        self._positions = np.column_stack([xs, ys])
        self._targets = self._positions.copy()
        self._speeds = np.zeros(n_sensors)
        self._pauses = np.zeros(n_sensors, dtype=int)
        self._assign_trips(np.arange(n_sensors, dtype=np.intp))

    @property
    def n_sensors(self) -> int:
        return len(self._positions)

    @property
    def region(self) -> Region:
        return self._region

    def locations(self) -> list[Location]:
        return [Location(float(x), float(y)) for x, y in self._positions]

    def locations_xy(self) -> np.ndarray:
        # Read-only view of the live position buffer (advance() mutates it
        # in place) — consumers must copy before storing, as documented on
        # MobilityModel.locations_xy.
        return self._positions

    def sample_targets(self, indices: np.ndarray) -> np.ndarray:
        """Next trip destinations for ``indices`` as an ``(k, 2)`` array.

        Uniform by default, drawn as one x batch then one y batch.  This is
        the one destination hook: subclasses bias destinations here (e.g.
        towards home/work anchors in the Nokia substitute).
        """
        xs = self._rng.uniform(self._region.x_min, self._region.x_max, size=len(indices))
        ys = self._rng.uniform(self._region.y_min, self._region.y_max, size=len(indices))
        return np.column_stack([xs, ys])

    def advance(self) -> None:
        pauses = self._pauses
        pausing = pauses > 0
        pauses[pausing] -= 1

        # Travellers move toward their targets; arrivals snap onto them.
        moving = ~pausing
        delta = self._targets - self._positions
        dist = np.hypot(delta[:, 0], delta[:, 1])
        arrived = moving & (dist <= self._speeds)
        cruising = moving & ~arrived
        if cruising.any():
            # Same float grouping as the historical per-sensor step
            # (``pos + delta / dist * step``), element for element.
            step = (
                delta[cruising]
                / dist[cruising][:, None]
                * self._speeds[cruising][:, None]
            )
            self._positions[cruising] += step
        if arrived.any():
            idx = np.flatnonzero(arrived)
            self._positions[idx] = self._targets[idx]
            pauses[idx] = self._rng.integers(0, self._max_pause + 1, size=len(idx))

        # New trips: expired pauses plus arrivals that drew pause 0.
        needs_trip = np.flatnonzero((pausing | arrived) & (pauses == 0))
        if len(needs_trip):
            self._assign_trips(needs_trip)

    def _assign_trips(self, indices: np.ndarray) -> None:
        """Draw targets then speeds for ``indices`` (one batch each)."""
        self._targets[indices] = self.sample_targets(indices)
        self._speeds[indices] = self._rng.uniform(
            self._min_speed, self._max_speed, size=len(indices)
        )
