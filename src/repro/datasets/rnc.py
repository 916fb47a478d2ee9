"""The RNC scenario — synthetic substitute for the Nokia campaign trace.

See :mod:`repro.mobility.nokia` for
why a calibrated anchor-based synthesizer reproduces the consumable
statistics of the paper's RNC dataset: 237x300 grid, 635 sensors, ~120 on
average inside the 100x100 working subregion, human-like churn.  Eq. 4 uses
``dmax = 10`` on this dataset.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from ..mobility import (
    PAPER_RNC_WORKING_REGION,
    MobilityTrace,
    NokiaCampaignSynthesizer,
)
from ..sensors import FleetConfig
from .scenario import Scenario

__all__ = ["build_rnc_scenario"]


@lru_cache(maxsize=8)
def _cached_trace(
    seed: int, n_sensors: int, target_presence: float, n_slots: int
) -> MobilityTrace:
    rng = np.random.default_rng(seed)
    synthesizer = NokiaCampaignSynthesizer.calibrated(
        rng,
        n_sensors=n_sensors,
        target_presence=target_presence,
    )
    return synthesizer.synthesize(n_slots, warmup=25)


def build_rnc_scenario(
    seed: int = 2013,
    n_sensors: int = 635,
    target_presence: float = 120.0,
    n_slots: int = 50,
    fleet_config: FleetConfig | None = None,
    trace: MobilityTrace | None = None,
) -> Scenario:
    """Paper defaults: 635 sensors, ~120 present per slot, 50 slots.

    ``trace`` replaces the synthesized campaign trace (which is then never
    built); it should move over :data:`~repro.mobility.PAPER_RNC_REGION`.
    """
    if trace is None:
        trace = _cached_trace(seed, n_sensors, target_presence, n_slots)
    return Scenario(
        name="RNC",
        trace=trace,
        working_region=PAPER_RNC_WORKING_REGION,
        fleet_config=fleet_config if fleet_config is not None else FleetConfig(),
        fleet_seed=seed + 1,
        dmax=10.0,
    )
