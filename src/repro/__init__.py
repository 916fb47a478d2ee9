"""repro — reproduction of *Utility-driven Data Acquisition in Participatory
Sensing* (Riahi, Papaioannou, Trummer, Aberer; EDBT 2013).

A participatory-sensing aggregator receives queries of many types (point,
spatial aggregate, trajectory, location/region monitoring) and, each time
slot, selects which mobile sensors to buy measurements from so that the
total utility — query valuations minus sensor costs — is maximized, sharing
sensors (and their costs) across queries.

Quickstart::

    import numpy as np
    from repro import (
        Region, RandomWaypointMobility, SensorFleet, FleetConfig,
        PointQueryWorkload, OptimalPointAllocator, one_shot_engine,
    )

    rng = np.random.default_rng(0)
    world = Region.from_origin(80, 80)
    hotspot = Region.centered_in(world, 50, 50)
    fleet = SensorFleet(RandomWaypointMobility(world, 200, rng), hotspot,
                        FleetConfig(), rng)
    workload = PointQueryWorkload(hotspot, n_queries=300, budget=15.0)
    engine = one_shot_engine(fleet, workload, OptimalPointAllocator(), rng)
    summary = engine.run(50)
    print(summary.average_utility, summary.satisfaction_ratio)

See README.md for the architecture and the reproduced figures, and
``repro figures --validate`` for the paper-vs-measured check of each figure.
"""

from .core import (
    Aggregator,
    AllocationError,
    AllocationResult,
    Allocator,
    BaselineAllocator,
    BaselineMixAllocator,
    GreedyAllocator,
    LocalSearchPointAllocator,
    LocationMonitoringController,
    MixAllocator,
    OptimalPointAllocator,
    PaymentInvariantError,
    RandomizedLocalSearchAllocator,
    RegionMonitoringController,
    ReproError,
    SimulationSummary,
    SolverError,
    UserAccount,
    QueryReceipt,
    SlotDigest,
    solve_clairvoyant,
    simulate_myopic_gap,
    exhaustive_point_search,
    location_monitoring_engine,
    mix_engine,
    one_shot_engine,
    paper_weight_function,
    plan_sampling,
    region_monitoring_engine,
)
from .mobility import (
    MobilityModel,
    MobilityTrace,
    NokiaCampaignSynthesizer,
    RandomWaypointMobility,
    StationaryMobility,
    TraceMobility,
    WaypointMobility,
)
from .phenomena import (
    CorrelatedField,
    MaternKernel,
    GaussianProcessField,
    HarmonicRegressionModel,
    OzoneTraceSynthesizer,
    RBFKernel,
    fit_hyperparameters,
    schedule_for_window,
    select_sampling_times,
)
from .queries import (
    AggregateQueryWorkload,
    EventDetectionQuery,
    EventDetectionWorkload,
    LocationMonitoringQuery,
    LocationMonitoringWorkload,
    MultiSensorPointQuery,
    PointQuery,
    PointQueryWorkload,
    Query,
    QueryType,
    RegionMonitoringQuery,
    RegionMonitoringWorkload,
    SpatialAggregateQuery,
    TrajectoryQuery,
    reading_quality,
)
from .sensors import (
    BetaReputationTracker,
    FixedEnergyCost,
    FleetConfig,
    FullTrust,
    LinearEnergyCost,
    PrivacyCostModel,
    PrivacySensitivity,
    Sensor,
    SensorFleet,
    SensorSnapshot,
    UniformTrust,
)
from .spatial import Grid, Location, Region, Trajectory

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # spatial
    "Location",
    "Region",
    "Grid",
    "Trajectory",
    # mobility
    "MobilityModel",
    "RandomWaypointMobility",
    "WaypointMobility",
    "StationaryMobility",
    "MobilityTrace",
    "TraceMobility",
    "NokiaCampaignSynthesizer",
    # sensors
    "Sensor",
    "SensorSnapshot",
    "SensorFleet",
    "FleetConfig",
    "FixedEnergyCost",
    "LinearEnergyCost",
    "PrivacyCostModel",
    "PrivacySensitivity",
    "FullTrust",
    "UniformTrust",
    "BetaReputationTracker",
    # phenomena
    "RBFKernel",
    "MaternKernel",
    "GaussianProcessField",
    "CorrelatedField",
    "OzoneTraceSynthesizer",
    "HarmonicRegressionModel",
    "fit_hyperparameters",
    "select_sampling_times",
    "schedule_for_window",
    # queries
    "Query",
    "QueryType",
    "PointQuery",
    "MultiSensorPointQuery",
    "SpatialAggregateQuery",
    "TrajectoryQuery",
    "LocationMonitoringQuery",
    "RegionMonitoringQuery",
    "EventDetectionQuery",
    "reading_quality",
    "PointQueryWorkload",
    "AggregateQueryWorkload",
    "LocationMonitoringWorkload",
    "RegionMonitoringWorkload",
    "EventDetectionWorkload",
    # core
    "Aggregator",
    "UserAccount",
    "QueryReceipt",
    "SlotDigest",
    "solve_clairvoyant",
    "simulate_myopic_gap",
    "AllocationResult",
    "Allocator",
    "OptimalPointAllocator",
    "exhaustive_point_search",
    "LocalSearchPointAllocator",
    "RandomizedLocalSearchAllocator",
    "GreedyAllocator",
    "BaselineAllocator",
    "LocationMonitoringController",
    "RegionMonitoringController",
    "MixAllocator",
    "BaselineMixAllocator",
    "plan_sampling",
    "paper_weight_function",
    "one_shot_engine",
    "location_monitoring_engine",
    "region_monitoring_engine",
    "mix_engine",
    "SimulationSummary",
    "ReproError",
    "AllocationError",
    "PaymentInvariantError",
    "SolverError",
]
