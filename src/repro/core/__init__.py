"""The paper's core contribution: allocation algorithms, controllers, engine."""

from .aggregator import Aggregator, QueryReceipt, SlotDigest, UserAccount
from .allocation import AllocationResult, Allocator, check_distinct
from .baselines import BaselineAllocator
from .clairvoyant import ClairvoyantPlan, simulate_myopic_gap, solve_clairvoyant
from .engine import (
    EventDetectionStream,
    JointSlotAllocation,
    LocationMonitoringStream,
    OneShotStream,
    QueryStream,
    RegionMonitoringStream,
    SequentialBufferedAllocation,
    SlotEngine,
    event_detection_engine,
    location_monitoring_engine,
    mix_engine,
    one_shot_engine,
    region_monitoring_engine,
)
from .errors import AllocationError, PaymentInvariantError, ReproError, SolverError
from .greedy import GreedyAllocator
from .local_search import LocalSearchPointAllocator, RandomizedLocalSearchAllocator
from .metrics import RunningStat, SimulationSummary, SlotRecord
from .mix import BaselineMixAllocator, MixAllocator
from .monitoring import (
    LocationMonitoringController,
    RegionMonitoringController,
    RegionSlotOutcome,
)
from .optimal import OptimalPointAllocator, exhaustive_point_search
from .payments import proportionate_shares, redistribute_contribution
from .point_problem import PointProblem
from .sampling import SamplingPlan, paper_weight_function, plan_sampling
from .valuation import ValuationKernel, resolve_cell_size

__all__ = [
    "Aggregator",
    "QueryReceipt",
    "SlotDigest",
    "UserAccount",
    "ClairvoyantPlan",
    "solve_clairvoyant",
    "simulate_myopic_gap",
    "AllocationResult",
    "Allocator",
    "check_distinct",
    "ReproError",
    "AllocationError",
    "PaymentInvariantError",
    "SolverError",
    "OptimalPointAllocator",
    "exhaustive_point_search",
    "LocalSearchPointAllocator",
    "RandomizedLocalSearchAllocator",
    "GreedyAllocator",
    "BaselineAllocator",
    "PointProblem",
    "ValuationKernel",
    "resolve_cell_size",
    "SlotEngine",
    "QueryStream",
    "OneShotStream",
    "LocationMonitoringStream",
    "RegionMonitoringStream",
    "EventDetectionStream",
    "JointSlotAllocation",
    "SequentialBufferedAllocation",
    "one_shot_engine",
    "location_monitoring_engine",
    "region_monitoring_engine",
    "event_detection_engine",
    "mix_engine",
    "proportionate_shares",
    "redistribute_contribution",
    "LocationMonitoringController",
    "RegionMonitoringController",
    "RegionSlotOutcome",
    "SamplingPlan",
    "plan_sampling",
    "paper_weight_function",
    "MixAllocator",
    "BaselineMixAllocator",
    "SimulationSummary",
    "SlotRecord",
    "RunningStat",
]
