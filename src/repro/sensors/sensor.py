"""The sensor entity and its per-slot announcement snapshot.

"We use the term *sensor* to refer to the actual sensor on the sensing
device, the sensing device, or even the combination of the participant and
the sensing device she carries" (Section 2).  A :class:`Sensor` bundles the
static attributes (inaccuracy, trust, price model, privacy sensitivity,
lifetime) with the mutable usage state (readings taken, reporting history).

Allocators never touch :class:`Sensor` directly: each slot the fleet
publishes immutable :class:`SensorSnapshot` announcements (id, location,
price, quality attributes), mirroring the protocol of Section 2.1 where
sensors "announce their location and price" at the beginning of each slot.

Since the array-backed fleet redesign these classes are the *scalar
reference* of the slot protocol, not its hot path: the fleet keeps the
population in a :class:`~repro.sensors.state.FleetState` (structure of
arrays) and announces via :class:`~repro.sensors.state.AnnouncementBatch`,
whose vectorized eq.-8 arithmetic is pinned bit-identical to
:meth:`Sensor.announce_cost` by ``tests/test_fleet_batch_parity.py``.
:meth:`SensorFleet.sensors <repro.sensors.SensorFleet.sensors>`
materializes :class:`Sensor` objects as read-only views over the arrays,
and batch rows materialize as :class:`SensorSnapshot` lazily.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from ..spatial import Location
from .costs import (
    EnergyCostModel,
    FixedEnergyCost,
    PrivacyCostModel,
)

__all__ = ["Sensor", "SensorSnapshot"]


@dataclass(frozen=True)
class SensorSnapshot:
    """One sensor's announcement for the current time slot.

    This is the *only* sensor view the allocation algorithms receive; it is
    frozen so an allocator cannot accidentally mutate fleet state.
    """

    sensor_id: int
    location: Location
    cost: float
    inaccuracy: float
    trust: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.cost) and self.cost >= 0):
            raise ValueError(f"announced cost must be finite and non-negative, got {self.cost}")
        if not (0.0 <= self.inaccuracy <= 1.0):
            raise ValueError("inaccuracy must be in [0, 1]")
        if not (0.0 <= self.trust <= 1.0):
            raise ValueError("trust must be in [0, 1]")


@dataclass
class Sensor:
    """A participant's sensing device.

    Attributes:
        sensor_id: stable identifier (index into the mobility model).
        inaccuracy: gamma_s in [0, 1] — percentage of the value range
            (Section 4.1 draws it from [0, 0.2]).
        trust: tau_s in [0, 1], fixed for the simulation (Section 4.1).
        lifetime: maximum number of readings the sensor can provide; once
            exhausted it "cannot be used anymore in the subsequent time
            slots" (Section 4.1).
        energy_model / privacy_model: the eq. 8 price components.
    """

    sensor_id: int
    inaccuracy: float = 0.0
    trust: float = 1.0
    lifetime: int = 50
    energy_model: EnergyCostModel = field(default_factory=FixedEnergyCost)
    privacy_model: PrivacyCostModel = field(default_factory=PrivacyCostModel)
    readings_taken: int = 0
    report_history: list[int] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not (0.0 <= self.inaccuracy <= 1.0):
            raise ValueError("inaccuracy must be in [0, 1]")
        if not (0.0 <= self.trust <= 1.0):
            raise ValueError("trust must be in [0, 1]")
        if self.lifetime < 1:
            raise ValueError("lifetime must be >= 1")

    # ------------------------------------------------------------------
    # energy / lifetime
    # ------------------------------------------------------------------
    @property
    def remaining_energy(self) -> float:
        """Remaining energy fraction ``E_s = 1 - readings/lifetime``.

        Ties the abstract energy state of eq. 8 to the experiment's lifetime
        counter: a fresh sensor has E = 1; an exhausted one E = 0, at which
        point the linear energy model reaches its maximum price and the
        fleet stops announcing the sensor altogether.
        """
        return max(0.0, 1.0 - self.readings_taken / self.lifetime)

    @property
    def is_exhausted(self) -> bool:
        return self.readings_taken >= self.lifetime

    # ------------------------------------------------------------------
    # announcements and usage
    # ------------------------------------------------------------------
    def announce_cost(self, now: int) -> float:
        """Price for providing one measurement at slot ``now`` (eq. 8)."""
        energy = self.energy_model(self.remaining_energy)
        privacy = self.privacy_model(self.report_history, now)
        return energy + privacy

    def snapshot(self, location: Location, now: int) -> SensorSnapshot:
        """The announcement for slot ``now`` at the given location."""
        return SensorSnapshot(
            sensor_id=self.sensor_id,
            location=location,
            cost=self.announce_cost(now),
            inaccuracy=self.inaccuracy,
            trust=self.trust,
        )

    def record_measurement(self, now: int) -> None:
        """Account one provided reading: lifetime, energy and privacy history.

        Raises:
            RuntimeError: if the sensor is already exhausted — the fleet
                must never select a worn-out sensor.
        """
        if self.is_exhausted:
            raise RuntimeError(f"sensor {self.sensor_id} is exhausted")
        self.readings_taken += 1
        self.report_history.append(now)
        self._prune_history(now)

    def _prune_history(self, now: int) -> None:
        window = self.privacy_model.window
        self.report_history = [t for t in self.report_history if now - t <= window]
