"""The Intel-Lab scenario substitute (Section 4.2 / 4.6).

The paper replays Intel Lab readings over a 20x15 grid and moves 30
imaginary sensors through it with a random waypoint model; each imaginary
sensor reports the reading of the cell it stands on.  We synthesize the
field (:class:`repro.phenomena.CorrelatedField`), learn GP hyper-parameters
from a fraction of its cells exactly as the paper learns from a fraction of
the readings, and build the same 30-sensor mobile fleet on top.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ..mobility import MobilityTrace, RandomWaypointMobility
from ..phenomena import (
    INTEL_LAB_REGION,
    CorrelatedField,
    GaussianProcessField,
    fit_hyperparameters,
)
from ..sensors import FleetConfig
from .scenario import Scenario

__all__ = ["IntelScenario", "build_intel_scenario"]


@dataclass(frozen=True)
class IntelScenario:
    """A region-monitoring world: mobility scenario + field + learned GP."""

    scenario: Scenario
    field: CorrelatedField
    gp: GaussianProcessField


@lru_cache(maxsize=8)
def _cached_field(
    seed: int, training_fraction: float
) -> tuple[CorrelatedField, GaussianProcessField]:
    field_rng = np.random.default_rng(seed)
    field = CorrelatedField(field_rng, region=INTEL_LAB_REGION)
    locations, values = field.training_sample(training_fraction, field_rng)
    hyper = fit_hyperparameters(locations, values)
    return field, GaussianProcessField(hyper.kernel(), noise=hyper.noise)


@lru_cache(maxsize=8)
def _cached_trace(seed: int, n_sensors: int, n_slots: int) -> MobilityTrace:
    mob_rng = np.random.default_rng(seed + 7)
    mobility = RandomWaypointMobility(
        INTEL_LAB_REGION, n_sensors, mob_rng, max_speed_choices=(2.0, 3.0)
    )
    return MobilityTrace.from_frames(INTEL_LAB_REGION, mobility.run(n_slots))


def build_intel_scenario(
    seed: int = 2013,
    n_sensors: int = 30,
    n_slots: int = 50,
    training_fraction: float = 0.5,
    fleet_config: FleetConfig | None = None,
    trace: MobilityTrace | None = None,
) -> IntelScenario:
    """Paper defaults: 30 imaginary mobile sensors over the 20x15 field.

    ``trace`` replaces the recorded random-waypoint trace (which is then
    never built); it should move over ``INTEL_LAB_REGION``.
    """
    field, gp = _cached_field(seed, training_fraction)
    if trace is None:
        trace = _cached_trace(seed, n_sensors, n_slots)
    scenario = Scenario(
        name="INTEL",
        trace=trace,
        working_region=INTEL_LAB_REGION,
        fleet_config=fleet_config if fleet_config is not None else FleetConfig(),
        fleet_seed=seed + 1,
        dmax=2.0,
    )
    return IntelScenario(scenario=scenario, field=field, gp=gp)
