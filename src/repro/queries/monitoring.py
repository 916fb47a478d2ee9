"""Continuous queries: location and region monitoring (Section 2.3).

Continuous queries are never allocated sensors directly — each slot the
controllers of :mod:`repro.core.monitoring` derive *point queries* from them
(Algorithms 2 and 3) and feed those into the joint sensor selection.  This
module owns the query state and valuations:

* :class:`LocationMonitoringQuery` — eq. (16)/(17): value of the samples
  collected so far is ``B_q * G(T') * mean(Theta)`` where ``G`` is the
  residual-sum ratio of the regression model fit on the desired vs. the
  achieved sampling times.
* :class:`RegionMonitoringQuery` — eq. (7): per-slot value of a sensor set
  is ``B_q * F(S) * mean(theta)`` with ``F`` the GP expected variance
  reduction (eq. 6) over the region's cells.
"""

from __future__ import annotations

import bisect
from typing import Sequence

import numpy as np

from ..phenomena import (
    GaussianProcessField,
    HarmonicRegressionModel,
    VarianceReductionState,
    residual_sum_of_squares,
)
from ..phenomena.sampling_times import window_series
from ..sensors import SensorSnapshot
from ..spatial import Location, Region, as_xy
from ..spatial.geometry import require_finite_location, require_positive
from .aggregate import sensor_quality
from .base import new_query_id, require_budget
from .point import _query_quality

__all__ = ["ContinuousQuery", "LocationMonitoringQuery", "RegionMonitoringQuery"]


class ContinuousQuery:
    """Lifecycle shared by monitoring queries: active in ``[t1, t2]``."""

    def __init__(self, budget: float, t1: int, t2: int, query_id: str | None = None) -> None:
        require_budget(budget)
        if t2 < t1:
            raise ValueError("t2 must be >= t1")
        self.budget = budget
        self.t1 = t1
        self.t2 = t2
        self.query_id = query_id if query_id is not None else new_query_id("cq")
        self.spent = 0.0  # the running cost account C-hat of Algorithms 2/3

    @property
    def duration(self) -> int:
        return self.t2 - self.t1 + 1

    def active(self, t: int) -> bool:
        return self.t1 <= t <= self.t2

    def expired(self, t: int) -> bool:
        return t > self.t2

    @property
    def remaining_budget(self) -> float:
        return max(0.0, self.budget - self.spent)


class LocationMonitoringQuery(ContinuousQuery):
    """Monitor a phenomenon at one location over ``[t1, t2]`` (query Q1).

    Args:
        location: the monitored location ``q.l``.
        t1, t2: the monitoring period.
        desired_times: the requested sampling times ``q.T`` (Section 2.3),
            typically produced by :func:`repro.phenomena.schedule_for_window`.
        budget: total budget for the whole period.
        series: the historical data the eq. 17 gain ratio is computed on.
        model: the regression model family fitted to ``series``.
        theta_min / dmax: quality parameters for the derived point queries.

    State (Algorithm 2's ``q.T'``, ``q.C-hat``, ``q.lst``, ``q.nst``):
        ``sampled_times`` and ``qualities`` record the successful samples;
        ``spent`` the payments so far; the schedule pointer tracks the next
        desired time that has not been covered yet.
    """

    def __init__(
        self,
        location: Location,
        t1: int,
        t2: int,
        desired_times: Sequence[int],
        budget: float,
        series: np.ndarray,
        model: HarmonicRegressionModel,
        theta_min: float = 0.2,
        dmax: float = 5.0,
        query_id: str | None = None,
    ) -> None:
        super().__init__(budget, t1, t2, query_id)
        times = sorted(set(int(t) for t in desired_times))
        if any(not (t1 <= t <= t2) for t in times):
            raise ValueError("desired sampling times must lie in [t1, t2]")
        require_positive("dmax", dmax)
        require_finite_location("location", location)
        self.location = location
        self.desired_times = times
        self.series = np.asarray(series, dtype=float)
        self.model = model
        self.theta_min = theta_min
        self.dmax = dmax
        self.sampled_times: list[int] = []
        self.qualities: list[float] = []
        self.last_scheduled_hit: int | None = None  # q.lst
        # Eq. 17's residuals are scoped to the query's own window: the
        # model's job is reconstructing the phenomenon during [t1, t2]
        # (see repro.phenomena.sampling_times.schedule_for_window).
        self._window = window_series(self.series, t1, self.duration)
        self._desired_ssr = residual_sum_of_squares(
            model, self._window, self._offsets(times)
        )

    # ------------------------------------------------------------------
    # schedule bookkeeping (q.nst / q.lst of Algorithm 2)
    # ------------------------------------------------------------------
    def next_scheduled_time(self) -> int | None:
        """First desired time not yet covered by any sample (``q.nst``)."""
        last = self.sampled_times[-1] if self.sampled_times else self.t1 - 1
        idx = bisect.bisect_right(self.desired_times, last)
        return self.desired_times[idx] if idx < len(self.desired_times) else None

    def has_missed_schedule(self, t: int) -> bool:
        """Sampling at the last scheduled time failed (the paper's catch-up
        condition): the next uncovered desired time already lies in the past."""
        nst = self.next_scheduled_time()
        return nst is not None and nst < t

    def past_schedule(self, t: int) -> bool:
        """``t`` is greater than the final requested sampling time."""
        return not self.desired_times or t > self.desired_times[-1]

    def relevant_mask(
        self,
        xy: np.ndarray,
        gamma: np.ndarray | None = None,
        trust: np.ndarray | None = None,
    ) -> np.ndarray:
        """Vectorized serve-eligibility prescreen for this monitored location.

        Continuous queries are never allocated sensors directly — the
        controllers derive point queries that carry their own masks
        through the allocators — so *no built-in path calls this*.  It
        completes the batch-relevance protocol for API consumers
        (dashboards, feasibility checks) that ask "which announced sensors
        could ever serve a sample for me": the derived point queries
        inherit this query's ``theta_min``/``dmax``, and the mask is
        exactly their shared quality gate (pinned against
        ``PointQuery.relevant`` by the geometry parity suite).  Requires
        the quality columns (eq. 4 gates on inaccuracy and trust, not just
        distance).
        """
        return _query_quality(self, xy, gamma, trust) > 0.0

    # ------------------------------------------------------------------
    # valuation (eqs. 16, 17)
    # ------------------------------------------------------------------
    def _offsets(self, times: Sequence[int]) -> list[int]:
        """Map absolute slots onto offsets within the query window."""
        return [t - self.t1 for t in times if self.t1 <= t <= self.t2]

    def gain_ratio(self, sampled: Sequence[int]) -> float:
        """Eq. (17): ``G(T') = (sum r^2 | T) / (sum r^2 | T')``."""
        achieved_ssr = residual_sum_of_squares(
            self.model, self._window, self._offsets(sampled)
        )
        if achieved_ssr <= 0.0:
            return 1.0 if self._desired_ssr <= 0.0 else float("inf")
        return self._desired_ssr / achieved_ssr

    def value_of(self, sampled: Sequence[int], qualities: Sequence[float]) -> float:
        """Eq. (16): ``B_q * G(T') * mean(Theta)``."""
        if not qualities:
            return 0.0
        mean_quality = sum(qualities) / len(qualities)
        return self.budget * self.gain_ratio(sampled) * mean_quality

    def achieved_value(self) -> float:
        """Current value of the collected samples."""
        return self.value_of(self.sampled_times, self.qualities)

    def marginal_gain(self, t: int, expected_quality: float = 1.0) -> float:
        """``Delta v_t`` of Algorithm 2: value of one more sample at ``t``.

        ``expected_quality`` is the anticipated reading quality ("v_q
        considers ... the expected quality of a sensor reading before the
        actual sensor selection"); the default of 1 prices a perfect sample
        and lets the point-query allocation discount by the actual quality.
        """
        hypothetical = self.value_of(
            self.sampled_times + [t], self.qualities + [expected_quality]
        )
        return max(0.0, hypothetical - self.achieved_value())

    @property
    def surplus(self) -> float:
        """Extra budget of Algorithm 2: achieved value minus money spent."""
        return self.achieved_value() - self.spent

    # ------------------------------------------------------------------
    # state transition (Algorithm 2's ApplyResults)
    # ------------------------------------------------------------------
    def apply_sample(self, t: int, quality: float, payment: float) -> None:
        """Record a successful sample at slot ``t``."""
        if payment < 0:
            raise ValueError("payment must be non-negative for a successful sample")
        self.sampled_times.append(t)
        self.qualities.append(quality)
        self.spent += payment
        if self.desired_times and t >= self.desired_times[0]:
            idx = bisect.bisect_right(self.desired_times, t)
            covered = self.desired_times[idx - 1]
            if self.last_scheduled_hit is None or covered > self.last_scheduled_hit:
                self.last_scheduled_hit = covered

    def quality_of_results(self) -> float:
        """Achieved valuation over the maximum (``B_q``, attained by a
        perfect-quality sample at every desired time)."""
        if self.budget == 0:
            return 0.0
        return self.achieved_value() / self.budget


class RegionMonitoringQuery(ContinuousQuery):
    """Monitor a phenomenon over a region during ``[t1, t2]`` (query Q2).

    Args:
        region: the monitored region ``q.r``.
        budget: total budget over the query lifetime.
        gp: Gaussian-process model of the phenomenon (hyper-parameters
            learned from historical data, Section 4.6).
        cell_size: rasterization of the region into the target locations
            ``V`` of eq. (6).
        dmax: radius for the derived point queries (how far a sensor may be
            from a requested sampling location and still serve it).
    """

    def __init__(
        self,
        region: Region,
        t1: int,
        t2: int,
        budget: float,
        gp: GaussianProcessField,
        cell_size: float = 1.0,
        dmax: float = 2.0,
        theta_min: float = 0.0,
        query_id: str | None = None,
    ) -> None:
        super().__init__(budget, t1, t2, query_id)
        require_positive("dmax", dmax)
        require_positive("cell_size", cell_size)
        self.region = region
        self.gp = gp
        self.dmax = dmax
        self.theta_min = theta_min
        self.cells = list(region.grid_cells(cell_size))
        if not self.cells:
            raise ValueError("region rasterizes to zero cells")
        # q.S is aggregated online (count + quality sum): a query's sensor
        # log grows by the full selected set every slot, so a month-long
        # monitoring query would otherwise hold an unbounded list.
        self.used_sensor_count = 0
        self.used_quality_sum = 0.0
        self.slot_values: list[float] = []
        self.slot_planned_values: list[float] = []

    def relevant_mask(
        self,
        xy: np.ndarray,
        gamma: np.ndarray | None = None,
        trust: np.ndarray | None = None,
    ) -> np.ndarray:
        """Vectorized in-region test for Algorithm 3's sensor scans.

        A sensor contributes variance reduction (and shared-sensor value)
        only from inside the monitored region; the controllers use this
        mask to replace their per-snapshot ``region.contains`` loops.
        Purely geometric — ``gamma``/``trust`` are ignored.
        """
        return self.region.contains_many(as_xy(xy))

    # ------------------------------------------------------------------
    # valuation (eq. 7)
    # ------------------------------------------------------------------
    def variance_reduction(self, locations: Sequence[Location]) -> float:
        """``F(S)`` of eq. (6) over the region's cells."""
        return self.gp.variance_reduction(list(locations), self.cells)

    def reduction_state(self) -> VarianceReductionState:
        """Fresh incremental ``F`` evaluator (used by Algorithm 4)."""
        return VarianceReductionState(self.gp, self.cells)

    def slot_value(self, snapshots: Sequence[SensorSnapshot]) -> float:
        """Eq. (7) applied to the sensors used in one slot."""
        if not snapshots:
            return 0.0
        reduction = self.variance_reduction([s.location for s in snapshots])
        mean_quality = sum(sensor_quality(s) for s in snapshots) / len(snapshots)
        return self.budget * reduction * mean_quality

    # ------------------------------------------------------------------
    # state transitions (Algorithm 3's ApplyResults)
    # ------------------------------------------------------------------
    def record_slot(
        self,
        achieved: Sequence[SensorSnapshot],
        planned_value: float,
        payment: float,
    ) -> float:
        """Book one slot's outcome; returns the achieved slot value.

        ``planned_value`` is the valuation of the sampling plan Algorithm 4
        produced; the achieved set may exceed it thanks to sensors shared
        from other queries (``A_{r,t}``), which is how the paper's Figure
        9(b) quality-of-results rises above 1.
        """
        if payment < 0:
            raise ValueError("payment must be non-negative")
        value = self.slot_value(achieved)
        self.slot_values.append(value)
        self.slot_planned_values.append(planned_value)
        self.spent += payment
        self.used_sensor_count += len(achieved)
        self.used_quality_sum += sum(sensor_quality(s) for s in achieved)
        return value

    def quality_of_results(self) -> float:
        """Mean of per-slot achieved/planned valuation ratios.

        "Most of the times, the average quality of results is more than 1,
        which means that the valuation of sensors selected for each query
        is more than what was requested" (Section 4.6) — extra shared
        sensors push individual slots above 1.
        """
        ratios = [
            achieved / planned
            for achieved, planned in zip(self.slot_values, self.slot_planned_values)
            if planned > 0
        ]
        if not ratios:
            return 0.0
        return float(sum(ratios) / len(ratios))

    def achieved_value(self) -> float:
        """Total achieved slot value over the lifetime so far."""
        return float(sum(self.slot_values))
