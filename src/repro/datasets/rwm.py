"""The RWM scenario (Section 4.2): random waypoint over an 80x80 grid.

200 sensors move with axis-aligned steps at speeds up to {4, 5}; the
aggregator works the central 50x50 hotspot; eq. 4 uses ``dmax = 5``.
"""

from __future__ import annotations

from ..mobility import MobilityTrace, RandomWaypointMobility
from ..sensors import FleetConfig
from ..spatial import Region
from .scenario import Scenario

__all__ = ["build_rwm_scenario", "RWM_REGION", "RWM_WORKING_REGION"]

RWM_REGION = Region.from_origin(80.0, 80.0)
RWM_WORKING_REGION = Region.centered_in(RWM_REGION, 50.0, 50.0)


def build_rwm_scenario(
    seed: int = 2013,
    n_sensors: int = 200,
    n_slots: int = 50,
    fleet_config: FleetConfig | None = None,
    trace: MobilityTrace | None = None,
) -> Scenario:
    """Paper defaults: 200 sensors, 50 slots, fixed energy cost, zero PSL.

    The random-waypoint walk is kept as its recipe (seeded from ``seed``):
    building the scenario runs nothing, and each fleet replays the walk
    one slot at a time.  ``trace`` replaces the walk; it should move over
    :data:`RWM_REGION`.
    """
    if trace is None:
        trace = MobilityTrace.generated(
            RandomWaypointMobility, RWM_REGION, n_sensors, n_slots, seed
        )
    return Scenario(
        name="RWM",
        trace=trace,
        working_region=RWM_WORKING_REGION,
        fleet_config=fleet_config if fleet_config is not None else FleetConfig(),
        fleet_seed=seed + 1,
        dmax=5.0,
    )
