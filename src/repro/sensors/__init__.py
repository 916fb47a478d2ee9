"""Sensor substrate: entities, cost models, trust, fleet management."""

from .costs import (
    EnergyCostModel,
    FixedEnergyCost,
    LinearEnergyCost,
    PrivacyCostModel,
    PrivacySensitivity,
    privacy_loss,
    total_cost,
)
from .fleet import FleetConfig, SensorFleet
from .reputation import BetaReputationTracker, ReputationRecord
from .sensor import Sensor, SensorSnapshot
from .state import AnnouncementBatch, FleetState
from .trust import BetaTrust, FullTrust, TieredTrust, TrustModel, UniformTrust

__all__ = [
    "Sensor",
    "SensorSnapshot",
    "SensorFleet",
    "FleetConfig",
    "FleetState",
    "AnnouncementBatch",
    "EnergyCostModel",
    "FixedEnergyCost",
    "LinearEnergyCost",
    "PrivacyCostModel",
    "PrivacySensitivity",
    "privacy_loss",
    "total_cost",
    "TrustModel",
    "BetaReputationTracker",
    "ReputationRecord",
    "FullTrust",
    "UniformTrust",
    "BetaTrust",
    "TieredTrust",
]
