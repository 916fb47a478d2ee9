"""Mobility substrate: generative models and trace replay."""

from .base import MobilityModel
from .nokia import (
    PAPER_RNC_REGION,
    PAPER_RNC_WORKING_REGION,
    NokiaCampaignSynthesizer,
)
from .random_waypoint import RandomWaypointMobility, WaypointMobility
from .stationary import ChurnMobility, StationaryMobility
from .statistics import ChurnStatistics, TraceStatistics, compute_churn, compute_statistics
from .trace import MobilityRecipe, MobilityTrace, TraceMobility

__all__ = [
    "MobilityModel",
    "RandomWaypointMobility",
    "WaypointMobility",
    "StationaryMobility",
    "ChurnMobility",
    "MobilityRecipe",
    "MobilityTrace",
    "TraceMobility",
    "NokiaCampaignSynthesizer",
    "TraceStatistics",
    "compute_statistics",
    "ChurnStatistics",
    "compute_churn",
    "PAPER_RNC_REGION",
    "PAPER_RNC_WORKING_REGION",
]
