"""Query model: one-shot and continuous query types plus workload generators."""

from .aggregate import AggregateOp, SpatialAggregateQuery, TrajectoryQuery, sensor_quality
from .base import (
    GainBlock,
    Query,
    QueryType,
    SensorRoster,
    ValuationState,
    new_query_id,
)
from .event import EventDetectionQuery, EventSlotQuery, detection_confidence
from .monitoring import ContinuousQuery, LocationMonitoringQuery, RegionMonitoringQuery
from .point import MultiSensorPointQuery, PointQuery, reading_quality
from .workload import (
    AggregateQueryWorkload,
    TrajectoryQueryWorkload,
    EventDetectionWorkload,
    LocationMonitoringWorkload,
    PointQueryWorkload,
    RegionMonitoringWorkload,
)

__all__ = [
    "Query",
    "QueryType",
    "ValuationState",
    "SensorRoster",
    "GainBlock",
    "new_query_id",
    "PointQuery",
    "MultiSensorPointQuery",
    "reading_quality",
    "SpatialAggregateQuery",
    "TrajectoryQuery",
    "AggregateOp",
    "sensor_quality",
    "ContinuousQuery",
    "LocationMonitoringQuery",
    "RegionMonitoringQuery",
    "EventDetectionQuery",
    "EventSlotQuery",
    "detection_confidence",
    "PointQueryWorkload",
    "AggregateQueryWorkload",
    "TrajectoryQueryWorkload",
    "LocationMonitoringWorkload",
    "RegionMonitoringWorkload",
    "EventDetectionWorkload",
]
