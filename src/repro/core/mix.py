"""Query-mix data acquisition — Algorithm 5 (Section 3.4) and its baseline.

Algorithm 5's four stages run inside one :class:`~repro.core.SlotEngine`
slot (see :func:`~repro.core.engine.mix_engine`):

1. *Point query creation*: Algorithms 2/3 derive point queries for the live
   location/region monitoring queries (the monitoring streams' ``emit``).
2. *Sensor selection*: user point queries, aggregate queries and all the
   derived point queries go jointly into Algorithm 1
   (:class:`~repro.core.engine.JointSlotAllocation`).
3. *Result application*: Algorithms 2/3 fold the outcomes back (the
   monitoring streams' ``settle``).
4. *Payment adjustment & accounting*: region-monitoring cost contributions
   rebalance the ledger before the one-shot streams read it.

The baseline (Section 4.7) instead executes sequentially with data
buffering (:class:`~repro.core.engine.SequentialBufferedAllocation`):
aggregates first through the Section 4.4 baseline, then point queries
(user-issued plus monitoring-derived at desired times only) through the
Section 4.3 baseline, with stage-1 sensors costing zero in stage 2.

The two classes here are the configurations of those two pipelines: the
allocators and Algorithm 2/3 controllers a mix engine is built from.
"""

from __future__ import annotations

from .allocation import Allocator
from .baselines import BaselineAllocator
from .engine import JointSlotAllocation, SequentialBufferedAllocation, SlotAllocation
from .greedy import GreedyAllocator
from .monitoring import LocationMonitoringController, RegionMonitoringController

__all__ = ["MixAllocator", "BaselineMixAllocator"]


class MixAllocator:
    """Algorithm 5: joint data acquisition for a mix of query types.

    Args:
        joint: the stage-2 allocator (paper: Algorithm 1 / greedy).
        lm_controller / rm_controller: the Algorithm 2/3 controllers.
    """

    def __init__(
        self,
        joint: Allocator | None = None,
        lm_controller: LocationMonitoringController | None = None,
        rm_controller: RegionMonitoringController | None = None,
    ) -> None:
        self.joint = joint if joint is not None else GreedyAllocator()
        self.lm_controller = (
            lm_controller if lm_controller is not None else LocationMonitoringController()
        )
        self.rm_controller = (
            rm_controller if rm_controller is not None else RegionMonitoringController()
        )

    def allocation(self) -> SlotAllocation:
        """Every emitted query in one ``joint`` call."""
        return JointSlotAllocation(self.joint)


class BaselineMixAllocator:
    """The Section 4.7 baseline: sequential per-type execution.

    Aggregates run first through the Section 4.4 baseline; their sensors
    then cost nothing for the point stage ("the cost of selected sensors is
    set to zero for subsequent queries"), which runs user point queries and
    desired-time-only monitoring point queries through the Section 4.3
    baseline.  Event-detection slot queries (redundant-sampling sets, like
    aggregates) run in the first stage.
    """

    def __init__(self) -> None:
        self.aggregate_stage = BaselineAllocator()
        self.point_stage = BaselineAllocator()
        self.lm_controller = LocationMonitoringController(
            opportunistic=False, scheduled_only=True
        )
        self.rm_controller = RegionMonitoringController(
            weight_fn=lambda k: 1.0, use_shared_sensors=False
        )

    def allocation(self) -> SlotAllocation:
        """Aggregate and event kinds first, then everything else."""
        return SequentialBufferedAllocation(
            self.aggregate_stage, self.point_stage, stage1_kinds=("aggregate", "event")
        )
