"""Synthetic substitute for the Nokia Lausanne campaign trace (RNC).

The paper's RNC dataset is derived from a proprietary data-collection
campaign (opensense.epfl.ch): 180 real participants, densified with dummy
users to **635 sensors** over a **237x300 grid** of 100 m cells, with **~120
sensors on average inside the 100x100 working subregion** per slot.

We cannot ship that data, so this module synthesizes a trace with the same
*consumable* statistics — grid dimensions, population size, working-region
presence, human-like anchor-based trips with pauses and region churn.  The
downstream algorithms only ever see per-slot (location, price) announcements
restricted to the working subregion, so matching density, sparsity and churn
reproduces the experimental conditions.

Human-like structure: every synthetic participant owns a small set of
*anchor points* (home, work, errands).  Trips run between anchors under the
classic waypoint dynamics with pauses, so participants dwell near anchors
and commute across the region — including in and out of the hotspot, which
creates exactly the uncontrolled-availability churn the paper's algorithms
must cope with.
"""

from __future__ import annotations

import numpy as np

from ..spatial import Location, Region
from .random_waypoint import WaypointMobility
from .trace import MobilityTrace

__all__ = ["NokiaCampaignSynthesizer", "PAPER_RNC_REGION", "PAPER_RNC_WORKING_REGION"]

#: Full RNC movement region from the paper: 237x300 grids of 100 m.
PAPER_RNC_REGION = Region(0.0, 0.0, 237.0, 300.0)

#: The paper's working subregion is 100x100; we centre it like the RWM hotspot.
PAPER_RNC_WORKING_REGION = Region.centered_in(PAPER_RNC_REGION, 100.0, 100.0)


class NokiaCampaignSynthesizer(WaypointMobility):
    """Anchor-based waypoint population calibrated to the paper's RNC stats.

    Args:
        rng: randomness source.
        region: full movement region (defaults to the paper's 237x300).
        working_region: hotspot used for presence calibration.
        n_sensors: population size (paper: 635).
        target_presence: desired mean number of sensors inside
            ``working_region`` per slot (paper: ~120).  Anchors are biased
            into the hotspot with exactly the probability that achieves this
            in the stationary regime.
        anchors_per_sensor: number of anchor points per participant.
        anchor_jitter: radius of uniform jitter around the chosen anchor for
            each trip destination (people do not return to the exact metre).
        min_speed / max_speed / max_pause: trip dynamics in grid cells per
            slot and slots.  With the paper's 100 m cells and 5-minute
            slots the defaults mean 18-48 km/h trips (bus/car/bike) and
            dwells of up to ~3.3 hours — people spend most slots dwelling
            at anchors, not in transit, which keeps hotspot presence
            anchored to the anchor-in probability.
    """

    def __init__(
        self,
        rng: np.random.Generator,
        region: Region = PAPER_RNC_REGION,
        working_region: Region = PAPER_RNC_WORKING_REGION,
        n_sensors: int = 635,
        target_presence: float = 120.0,
        anchors_per_sensor: int = 3,
        anchor_jitter: float = 3.0,
        min_speed: float = 15.0,
        max_speed: float = 40.0,
        max_pause: int = 40,
        anchor_in_probability: float | None = None,
    ) -> None:
        if not region.contains_region(working_region):
            raise ValueError("working_region must lie inside the full region")
        if not (0 < target_presence <= n_sensors):
            raise ValueError("target_presence must be in (0, n_sensors]")
        if anchors_per_sensor < 1:
            raise ValueError("anchors_per_sensor must be >= 1")
        self._working_region = working_region
        self._anchor_jitter = anchor_jitter
        # A participant dwells near anchors most of the time (pauses plus
        # slow approach), so the stationary in-hotspot probability is close
        # to the fraction of anchor mass inside the hotspot; cross-region
        # trips transiting the (central) hotspot push presence above that,
        # which is what :meth:`calibrated` corrects for empirically.
        if anchor_in_probability is None:
            p_in = target_presence / n_sensors
        else:
            if not (0.0 <= anchor_in_probability <= 1.0):
                raise ValueError("anchor_in_probability must be in [0, 1]")
            p_in = anchor_in_probability
        # Anchor assignment, batched (draw order: one in/out coin batch,
        # then the in-hotspot coordinate batches, then the rejection-
        # sampled outside coordinates): an (n, A, 2) anchor tensor instead
        # of n*A Location objects.
        a = anchors_per_sensor
        inside = rng.uniform(size=n_sensors * a) < p_in
        anchor_xy = np.empty((n_sensors * a, 2), dtype=float)
        n_in = int(inside.sum())
        anchor_xy[inside, 0] = rng.uniform(
            working_region.x_min, working_region.x_max, size=n_in
        )
        anchor_xy[inside, 1] = rng.uniform(
            working_region.y_min, working_region.y_max, size=n_in
        )
        outside = ~inside
        anchor_xy[outside] = self._sample_outside_many(
            region, working_region, rng, int(outside.sum())
        )
        self._anchor_xy = anchor_xy.reshape(n_sensors, a, 2)
        super().__init__(
            region,
            n_sensors,
            rng,
            min_speed=min_speed,
            max_speed=max_speed,
            max_pause=max_pause,
        )
        # Start each participant at one of their anchors, not uniformly:
        # the very first slots should already show realistic presence.
        choice = rng.integers(0, anchors_per_sensor, size=n_sensors)
        self._positions[:] = self._anchor_xy[np.arange(n_sensors), choice]
        self._assign_trips(np.arange(n_sensors, dtype=np.intp))

    @property
    def working_region(self) -> Region:
        return self._working_region

    @property
    def anchors(self) -> list[list[Location]]:
        """Per-sensor anchor points (read-only intent)."""
        return [
            [Location(float(x), float(y)) for x, y in sensor_anchors]
            for sensor_anchors in self._anchor_xy
        ]

    def sample_targets(self, indices: np.ndarray) -> np.ndarray:
        """Batched anchor-biased destinations (anchor choice batch, then
        the two jitter batches, then a vectorized clamp)."""
        k = len(indices)
        choice = self._rng.integers(0, self._anchor_xy.shape[1], size=k)
        picked = self._anchor_xy[indices, choice]
        jitter_x = self._rng.uniform(-self._anchor_jitter, self._anchor_jitter, size=k)
        jitter_y = self._rng.uniform(-self._anchor_jitter, self._anchor_jitter, size=k)
        region = self.region
        return np.column_stack(
            [
                np.clip(picked[:, 0] + jitter_x, region.x_min, region.x_max),
                np.clip(picked[:, 1] + jitter_y, region.y_min, region.y_max),
            ]
        )

    def synthesize(self, n_slots: int, warmup: int = 20) -> MobilityTrace:
        """Produce a replayable trace of ``n_slots`` frames.

        ``warmup`` slots are advanced and discarded first so the recorded
        frames come from the stationary regime the presence calibration
        assumes.
        """
        if n_slots <= 0:
            raise ValueError("n_slots must be positive")
        for _ in range(warmup):
            self.advance()
        # Array-native trace build: no Location objects at any fleet size.
        return MobilityTrace.from_xy(self.region, self.run_xy(n_slots))

    @classmethod
    def calibrated(
        cls,
        rng: np.random.Generator,
        pilot_slots: int = 50,
        iterations: int = 4,
        tolerance: float = 0.05,
        pilot_warmup: int = 25,
        **kwargs,
    ) -> "NokiaCampaignSynthesizer":
        """Build a synthesizer whose mean hotspot presence hits the target.

        The naive anchor bias (``target / n_sensors``) overshoots because
        trips between outside anchors transit the central hotspot.  This
        runs short pilot traces and rescales the anchor-in probability until
        the measured presence is within ``tolerance`` (relative) of
        ``target_presence``, then returns a fresh synthesizer built with the
        calibrated probability.
        """
        if pilot_slots <= 0:
            raise ValueError("pilot_slots must be positive")
        if iterations < 1:
            raise ValueError("iterations must be >= 1")
        target = kwargs.get("target_presence", 120.0)
        n_sensors = kwargs.get("n_sensors", 635)
        p_in = target / n_sensors
        seeds = rng.integers(0, 2**31 - 1, size=iterations + 1)
        for i in range(iterations):
            pilot_rng = np.random.default_rng(int(seeds[i]))
            pilot = cls(pilot_rng, anchor_in_probability=p_in, **kwargs)
            trace = pilot.synthesize(pilot_slots, warmup=pilot_warmup)
            measured = trace.mean_presence(pilot.working_region)
            if measured <= 0:
                p_in = min(1.0, p_in * 2.0)
                continue
            if abs(measured - target) / target <= tolerance:
                break
            p_in = float(min(1.0, max(1e-4, p_in * target / measured)))
        final_rng = np.random.default_rng(int(seeds[-1]))
        return cls(final_rng, anchor_in_probability=p_in, **kwargs)

    @staticmethod
    def _sample_outside(
        region: Region, hole: Region, rng: np.random.Generator, max_tries: int = 64
    ) -> Location:
        """Uniform location in ``region`` but outside ``hole`` (rejection)."""
        for _ in range(max_tries):
            candidate = region.sample_location(rng)
            if not hole.contains(candidate):
                return candidate
        # The hole covers almost everything — fall back to any location.
        return region.sample_location(rng)

    @staticmethod
    def _sample_outside_many(
        region: Region,
        hole: Region,
        rng: np.random.Generator,
        count: int,
        max_tries: int = 64,
    ) -> np.ndarray:
        """Batched rejection sampling: ``count`` uniform points outside
        ``hole`` as an ``(count, 2)`` array (each round re-draws only the
        points still inside; after ``max_tries`` rounds the stragglers
        keep their last draw, mirroring the scalar fallback)."""
        xy = np.empty((count, 2), dtype=float)
        xy[:, 0] = rng.uniform(region.x_min, region.x_max, size=count)
        xy[:, 1] = rng.uniform(region.y_min, region.y_max, size=count)
        pending = np.flatnonzero(hole.contains_many(xy))
        tries = 1
        while len(pending) and tries < max_tries:
            xy[pending, 0] = rng.uniform(region.x_min, region.x_max, size=len(pending))
            xy[pending, 1] = rng.uniform(region.y_min, region.y_max, size=len(pending))
            pending = pending[hole.contains_many(xy[pending])]
            tries += 1
        return xy
