"""The sensor fleet: population + mobility + per-slot batch announcements.

The fleet is the boundary between the physical world (mobility, batteries,
privacy histories) and the aggregator.  Each slot it publishes the
announcements of the sensors that are (a) inside the working region and
(b) not exhausted; after allocation it books the selected measurements.

Since the array-backed redesign the fleet keeps all per-sensor state in a
:class:`~repro.sensors.state.FleetState` (structure of arrays) and
:meth:`SensorFleet.announcements` returns an
:class:`~repro.sensors.state.AnnouncementBatch` — the whole slot protocol
(region mask, exhaustion, eq.-8 pricing, accounting) runs as vectorized
numpy with **no per-sensor Python loop**, bit-identical to the historical
:class:`~repro.sensors.sensor.Sensor`-object walk.  The batch still
behaves as a ``Sequence[SensorSnapshot]`` (snapshots materialize lazily),
and :meth:`SensorFleet.sensors` / :meth:`SensorFleet.sensor` materialize
classic :class:`Sensor` objects as read-only views over the arrays for
instrumentation and tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from ..mobility import MobilityModel
from ..spatial import Region
from .costs import (
    FixedEnergyCost,
    LinearEnergyCost,
    PrivacyCostModel,
    PrivacySensitivity,
)
from .sensor import Sensor
from .state import AnnouncementBatch, FleetState
from .trust import FullTrust, TrustModel

__all__ = ["SensorFleet", "FleetConfig"]


@dataclass(frozen=True)
class FleetConfig:
    """Population-level parameters used to build a fleet (Section 4.1).

    Attributes:
        base_price: ``C_s`` (paper: 10 for every sensor).
        inaccuracy_range: per-sensor gamma ~ U[range] (paper: [0, 0.2]).
        lifetime: max readings per sensor (paper: simulation length, or 25).
        linear_energy: if True use the linear energy model with per-sensor
            ``beta ~ U[beta_range]``; otherwise the fixed model.
        beta_range: support of the beta draw (paper: [0, 4]).
        random_privacy: if True draw each sensor's privacy sensitivity level
            uniformly from the five levels; otherwise all Zero.
        privacy_window: the ``w`` of eq. 14.
        trust_model: distribution of per-sensor trust (paper default: full).
    """

    base_price: float = 10.0
    inaccuracy_range: tuple[float, float] = (0.0, 0.2)
    lifetime: int = 50
    linear_energy: bool = False
    beta_range: tuple[float, float] = (0.0, 4.0)
    random_privacy: bool = False
    privacy_window: int = 5
    trust_model: TrustModel = FullTrust()

    def __post_init__(self) -> None:
        lo, hi = self.inaccuracy_range
        if not (0.0 <= lo <= hi <= 1.0):
            raise ValueError("inaccuracy_range must satisfy 0 <= lo <= hi <= 1")
        if self.lifetime < 1:
            raise ValueError("lifetime must be >= 1")
        b_lo, b_hi = self.beta_range
        if not (0.0 <= b_lo <= b_hi):
            raise ValueError("beta_range must satisfy 0 <= lo <= hi")


class SensorFleet:
    """All sensors of a scenario plus the mobility model that moves them."""

    def __init__(
        self,
        mobility: MobilityModel,
        working_region: Region,
        config: FleetConfig,
        rng: np.random.Generator,
    ) -> None:
        if not mobility.region.contains_region(working_region):
            raise ValueError("working region must lie inside the mobility region")
        self._mobility = mobility
        self._working_region = working_region
        self._config = config
        self._clock = 0
        n = mobility.n_sensors
        gammas = rng.uniform(*config.inaccuracy_range, size=n)
        trusts = config.trust_model.sample(n, rng)
        # The beta / privacy-level draws interleave per sensor in the seed
        # implementation; the scalar loop is kept for those configs so the
        # rng consumption order (and therefore every fleet attribute) stays
        # bit-identical to historical fleets.  The paper-default config
        # (fixed energy, zero privacy) draws nothing here.
        betas = np.zeros(n)
        sensitivities = np.zeros(n)
        if config.linear_energy or config.random_privacy:
            levels = list(PrivacySensitivity)
            for i in range(n):
                if config.linear_energy:
                    betas[i] = float(rng.uniform(*config.beta_range))
                if config.random_privacy:
                    sensitivities[i] = levels[int(rng.integers(0, len(levels)))].value
        self._state = FleetState(
            gamma=gammas,
            trust=trusts,
            base_price=np.full(n, float(config.base_price)),
            energy_beta=betas,
            linear_energy=config.linear_energy,
            sensitivity=sensitivities,
            privacy_window=config.privacy_window,
            lifetime=np.full(n, int(config.lifetime), dtype=np.int64),
        )
        self._refresh_positions()

    # ------------------------------------------------------------------
    # read access
    # ------------------------------------------------------------------
    @property
    def clock(self) -> int:
        """Current time slot (starts at 0)."""
        return self._clock

    @property
    def working_region(self) -> Region:
        return self._working_region

    @property
    def mobility(self) -> MobilityModel:
        """The mobility model driving the population's positions."""
        return self._mobility

    @property
    def state(self) -> FleetState:
        """The array-backed per-sensor state (advanced consumers, benches)."""
        return self._state

    @property
    def n_sensors(self) -> int:
        return self._state.n_sensors

    @property
    def sensors(self) -> Sequence[Sensor]:
        """Classic :class:`Sensor` objects materialized from the arrays.

        Read-only views: each access rebuilds fresh objects reflecting the
        live array state; mutating a returned object does **not** write
        back (use :meth:`record_measurements` for accounting).
        """
        return [self._sensor_view(i) for i in range(self.n_sensors)]

    def sensor(self, sensor_id: int) -> Sensor:
        """One sensor's read-only object view (list-style indexing)."""
        n = self.n_sensors
        index = sensor_id.__index__()
        if index < 0:
            index += n
        if not (0 <= index < n):
            raise IndexError(f"sensor id {sensor_id} out of range for fleet of {n}")
        return self._sensor_view(index)

    def _sensor_view(self, index: int) -> Sensor:
        state = self._state
        base = float(state.base_price[index])
        if state.linear_energy:
            energy_model = LinearEnergyCost(base, float(state.energy_beta[index]))
        else:
            energy_model = FixedEnergyCost(base)
        privacy_model = PrivacyCostModel(
            sensitivity=state.sensitivity_level(index),
            base_price=base,
            window=state.privacy_window,
        )
        return Sensor(
            sensor_id=index,
            inaccuracy=float(state.gamma[index]),
            trust=float(state.trust[index]),
            lifetime=int(state.lifetime[index]),
            energy_model=energy_model,
            privacy_model=privacy_model,
            readings_taken=int(state.readings_taken[index]),
            report_history=state.history_of(index, self._clock),
        )

    # ------------------------------------------------------------------
    # the slot protocol
    # ------------------------------------------------------------------
    def _refresh_positions(self) -> None:
        self._state.set_positions(self._mobility.locations_xy())

    def announcements(self) -> AnnouncementBatch:
        """The slot's announcement batch: usable sensors, stacked arrays.

        "At the beginning of each time slot [sensors] announce their
        location and price of providing a measurement at that location"
        (Section 2.1).  Exhausted sensors stay silent (Section 4.1's
        lifetime rule).  One vectorized pass builds the in-region +
        non-exhausted mask, the eq.-8 prices and the announcement arrays;
        the returned :class:`AnnouncementBatch` is also a lazy
        ``Sequence[SensorSnapshot]`` for object-path consumers.
        """
        self._refresh_positions()
        return self._state.announce(self._clock, self._working_region)

    def record_measurements(self, sensor_ids: Sequence[int]) -> None:
        """Book one reading for each selected sensor at the current slot.

        Duplicates are collapsed and ids are processed in deterministic
        ascending order (one reading per distinct sensor per slot).

        Raises:
            ValueError: on ids outside the fleet.
            RuntimeError: on exhausted sensors — the allocator must never
                select a worn-out sensor.
        """
        ids = np.unique(np.fromiter(sensor_ids, dtype=np.int64))
        if ids.size == 0:
            return
        if ids[0] < 0 or ids[-1] >= self.n_sensors:
            unknown = ids[(ids < 0) | (ids >= self.n_sensors)]
            raise ValueError(
                f"unknown sensor ids {unknown.tolist()} (fleet has "
                f"{self.n_sensors} sensors)"
            )
        state = self._state
        worn = ids[state.readings_taken[ids] >= state.lifetime[ids]]
        if worn.size:
            raise RuntimeError(f"sensors {worn.tolist()} are exhausted")
        state.record(ids, self._clock)

    def advance(self) -> None:
        """End the slot: move every sensor and tick the clock."""
        self._mobility.advance()
        self._clock += 1
        self._state.clear_slot(self._clock)

    # ------------------------------------------------------------------
    # instrumentation
    # ------------------------------------------------------------------
    def exhausted_count(self) -> int:
        state = self._state
        return int(np.count_nonzero(state.readings_taken >= state.lifetime))

    def total_readings(self) -> int:
        return int(self._state.readings_taken.sum())

    def apply(self, fn: Callable[[Sensor], None]) -> None:
        """Run ``fn`` on every sensor view (testing/instrumentation hook).

        The views are read-only materializations of the array state;
        mutations made by ``fn`` do not write back.
        """
        for sensor in self.sensors:
            fn(sensor)
