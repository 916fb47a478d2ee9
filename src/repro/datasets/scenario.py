"""Scenarios: reproducible worlds, and the declarative spec layer.

The paper compares algorithms on *identical* inputs — same mobility, same
sensor attributes, same query stream.  A :class:`Scenario` freezes the
mobility into a replayable trace (a recorded one, or the recipe of a
seeded generative world) and pins the fleet seed, so
:meth:`Scenario.make_fleet` hands every algorithm an indistinguishable
fresh copy of the world.

:class:`ScenarioSpec` sits on top: a JSON-serializable declaration of an
arbitrary experiment — which dataset/world, which query streams (any mix
of point, aggregate, location-monitoring and region-monitoring workloads),
which allocator and slot-allocation strategy — that compiles to a
:class:`~repro.core.engine.SlotEngine`.  The paper's four fixed figure
families become four entries in this space; the CLI (``repro scenario``)
runs any of them from a file.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import Any

import numpy as np

from ..core.engine import ALLOCATION_RANKS
from ..mobility import MobilityTrace, TraceMobility
from ..queries import AggregateQueryWorkload, RegionMonitoringWorkload
from ..sensors import (
    BetaTrust,
    FleetConfig,
    FullTrust,
    SensorFleet,
    TieredTrust,
    UniformTrust,
)
from ..spatial import Region

__all__ = ["Scenario", "StreamSpec", "ScenarioSpec"]


@dataclass(frozen=True)
class Scenario:
    """A frozen world: trace + working region + fleet parameters.

    Attributes:
        name: dataset label ("RWM", "RNC", "INTEL").
        trace: the per-slot sensor positions, replayed identically by
            every fleet (recorded frames, or a generated world's recipe
            that each fleet steps one slot at a time).
        working_region: the aggregator's hotspot.
        fleet_config: population-level sensor parameters (Section 4.1).
        fleet_seed: seed for per-sensor attribute draws — fixed, so every
            :meth:`make_fleet` call yields identical sensors.
        dmax: the eq. 4 distance cutoff used by this dataset's experiments
            (paper: 5 for RWM, 10 for RNC).
    """

    name: str
    trace: MobilityTrace
    working_region: Region
    fleet_config: FleetConfig
    fleet_seed: int
    dmax: float

    @property
    def n_slots(self) -> int:
        return self.trace.n_slots

    @property
    def n_sensors(self) -> int:
        return self.trace.n_sensors

    def make_fleet(self) -> SensorFleet:
        """A fresh fleet replaying the trace from slot 0 (its own replay)."""
        rng = np.random.default_rng(self.fleet_seed)
        return SensorFleet(
            TraceMobility(self.trace), self.working_region, self.fleet_config, rng
        )

    def with_config(self, fleet_config: FleetConfig) -> "Scenario":
        """Same world, different sensor economics (Figure 6 variations)."""
        return replace(self, fleet_config=fleet_config)


# ----------------------------------------------------------------------
# declarative scenario specs
# ----------------------------------------------------------------------
_ALLOCATORS = ("optimal", "local_search", "randomized_local_search", "greedy", "baseline")

#: JSON-declarable trust models for the ``fleet.trust_model`` override.
_TRUST_MODELS = {
    "full": FullTrust,
    "uniform": UniformTrust,
    "beta": BetaTrust,
    "tiered": TieredTrust,
}


def _trust_model_from_payload(payload):
    """Build a trust model from its JSON form: a kind string, or a dict
    ``{"kind": ..., **params}`` (list params become tuples)."""
    if isinstance(payload, str):
        payload = {"kind": payload}
    payload = dict(payload)
    kind = payload.pop("kind", None)
    if kind not in _TRUST_MODELS:
        raise ValueError(
            f"unknown trust model {kind!r}; choose from {sorted(_TRUST_MODELS)}"
        )
    for key, value in payload.items():
        if isinstance(value, list):
            payload[key] = tuple(value)
    return _TRUST_MODELS[kind](**payload)


@dataclass(frozen=True)
class StreamSpec:
    """One query stream of a scenario.

    Attributes:
        kind: ``point`` | ``aggregate`` | ``location_monitoring`` |
            ``region_monitoring`` | ``event``.
        params: workload constructor overrides (e.g. ``n_queries``,
            ``budget``, ``budget_factor``, ``arrivals_per_slot``); the
            world's region and ``dmax`` are filled in automatically.
        controller: monitoring-controller overrides (e.g. ``alpha``,
            ``opportunistic``, ``scheduled_only``, ``use_shared_sensors``,
            ``paper_weighting``); ignored for one-shot kinds.
    """

    kind: str
    params: dict[str, Any] = field(default_factory=dict)
    controller: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.kind not in ALLOCATION_RANKS:
            raise ValueError(
                f"unknown stream kind {self.kind!r}; choose from "
                f"{sorted(ALLOCATION_RANKS)}"
            )

    @classmethod
    def from_dict(cls, payload: dict[str, Any] | str) -> "StreamSpec":
        if isinstance(payload, str):
            return cls(kind=payload)
        extra = set(payload) - {"kind", "params", "controller"}
        if extra:
            raise ValueError(f"unknown StreamSpec fields: {sorted(extra)}")
        return cls(
            kind=payload["kind"],
            params=dict(payload.get("params", {})),
            controller=dict(payload.get("controller", {})),
        )

    def to_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {"kind": self.kind}
        if self.params:
            out["params"] = dict(self.params)
        if self.controller:
            out["controller"] = dict(self.controller)
        return out


def _require_count(name: str, value: Any, minimum: int) -> None:
    """Refuse a ``bool``, a non-integer or an integer below ``minimum``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < minimum:
        kind = "a non-negative integer" if minimum == 0 else f"an integer >= {minimum}"
        raise ValueError(f"{name} must be {kind}, got {value!r}")


def _require_amount(
    name: str, value: Any, low: float, high: float = math.inf, *, positive: bool = False
) -> None:
    """Refuse a ``bool``, a non-number, NaN, infinity or a value outside
    ``[low, high]`` (outside ``(0, high]`` when ``positive``)."""
    if (
        isinstance(value, bool)
        or not isinstance(value, numbers.Real)
        or not math.isfinite(value)
        or not low <= value <= high
        or (positive and value <= 0)
    ):
        if positive:
            bounds = "> 0"
        elif high == math.inf:
            bounds = f">= {low:g}"
        else:
            bounds = f"in [{low:g}, {high:g}]"
        raise ValueError(f"{name} must be a finite number {bounds}, got {value!r}")


#: Stream ``params`` checked at load: counts (with their minimum), amounts
#: (with their bounds) and geometric lengths (finite and positive).
_STREAM_COUNTS = {
    "n_queries": 0,
    "mean_queries": 1,
    "count_spread": 0,
    "max_live": 0,
    "arrivals_per_slot": 0,
    "queries_per_slot": 0,
}
_STREAM_AMOUNTS = {
    "budget": (0.0, math.inf),
    "budget_spread": (0.0, math.inf),
    "budget_factor": (0.0, math.inf),
    "theta_min": (0.0, 1.0),
}
_STREAM_LENGTHS = ("dmax", "sensing_range", "coverage_radius", "min_side", "max_side")
#: The stream kinds that draw query regions, and the workload holding
#: their ``min_side``/``max_side`` defaults.
_REGION_WORKLOADS = {
    "aggregate": AggregateQueryWorkload,
    "region_monitoring": RegionMonitoringWorkload,
}


def _check_stream_params(name: str, stream: StreamSpec) -> None:
    """Refuse a stream's bad counts, amounts and geometry, naming the key."""
    params = stream.params
    for key, minimum in _STREAM_COUNTS.items():
        if key in params:
            _require_count(f"{name}.{key}", params[key], minimum)
    for key, (low, high) in _STREAM_AMOUNTS.items():
        if key in params:
            _require_amount(f"{name}.{key}", params[key], low, high)
    for key in _STREAM_LENGTHS:
        if key in params:
            _require_amount(f"{name}.{key}", params[key], 0.0, positive=True)
    workload = _REGION_WORKLOADS.get(stream.kind)
    if workload is not None and ("min_side" in params or "max_side" in params):
        defaults = {f.name: f.default for f in fields(workload)}
        low = params.get("min_side", defaults["min_side"])
        high = params.get("max_side", defaults["max_side"])
        if low > high:
            raise ValueError(
                f"{name}.min_side must be <= max_side, got {low!r} > {high!r}"
            )


@dataclass(frozen=True)
class ScenarioSpec:
    """A complete, declarable experiment: world + streams + allocation.

    Compiles to a :class:`~repro.core.engine.SlotEngine` via :meth:`build`;
    :meth:`run` builds and runs it.  Everything is JSON round-trippable
    (:meth:`from_json` / :meth:`to_dict`), which is what the
    ``repro scenario`` CLI consumes.

    Attributes:
        name: free-form label.
        dataset: ``rwm`` | ``rnc`` | ``intel`` (region-monitoring streams
            need ``intel`` — the only world with a learned GP field).
        seed: world seed (trace + fleet attributes).
        workload_seed: seed of the shared workload rng (defaults to
            ``seed + 17`` at build time when left ``None``).
        n_sensors / n_slots / rnc_presence: world sizing.
        allocator: ``optimal`` | ``local_search`` |
            ``randomized_local_search`` | ``greedy`` | ``baseline``.
        allocation: ``joint`` (one allocator call over every emitted query)
            or ``sequential`` (the Section 4.7 buffered baseline).
        streams: the query streams; order fixes workload rng consumption.
        fleet: :class:`~repro.sensors.FleetConfig` overrides (JSON-able
            fields only, e.g. ``lifetime``, ``linear_energy``; a
            ``trust_model`` entry declares one of the
            :mod:`repro.sensors.trust` models, e.g.
            ``{"kind": "tiered", "levels": [...], "weights": [...]}``).
        mobility: optional mobility override for the world.  ``None``
            keeps the dataset's native trace;
            ``{"kind": "churn", "fraction": 0.01}`` replaces it with a
            :class:`~repro.mobility.ChurnMobility` world — a
            near-stationary fleet where that fraction of sensors relocates
            per slot — kept as a generated
            :class:`~repro.mobility.MobilityTrace` (seeded from the world
            seed, so it is as reproducible as the native trace, and each
            fleet replays it one slot at a time).
        service: optional streaming-service block consumed by
            ``repro serve`` / ``repro loadgen``
            (:class:`~repro.service.ServiceConfig`): ticker pacing
            (``tick_interval``), admission control (``max_queue_depth``,
            ``max_admitted_per_tick``) and an optional open-loop
            ``arrivals`` profile (``{"profile": "poisson"|"bursty",
            "rate": ..., "seed": ...}``).  Ignored by batch runs — the
            declared streams double as the service's arrival templates.
    """

    name: str
    dataset: str = "rwm"
    seed: int = 2013
    workload_seed: int | None = None
    n_sensors: int = 100
    n_slots: int = 10
    rnc_presence: float = 30.0
    allocator: str = "greedy"
    allocation: str = "joint"
    streams: tuple[StreamSpec, ...] = (StreamSpec("point"),)
    fleet: dict[str, Any] = field(default_factory=dict)
    mobility: dict[str, Any] | None = None
    service: dict[str, Any] | None = None

    def __post_init__(self) -> None:
        if self.dataset not in ("rwm", "rnc", "intel"):
            raise ValueError(f"unknown dataset {self.dataset!r}")
        if self.allocator not in _ALLOCATORS:
            raise ValueError(
                f"unknown allocator {self.allocator!r}; choose from {_ALLOCATORS}"
            )
        if self.allocation not in ("joint", "sequential"):
            raise ValueError(f"unknown allocation {self.allocation!r}")
        if not self.streams:
            raise ValueError("a scenario needs at least one stream")
        _require_count("seed", self.seed, 0)
        if self.workload_seed is not None:
            _require_count("workload_seed", self.workload_seed, 0)
        _require_count("n_sensors", self.n_sensors, 1)
        _require_count("n_slots", self.n_slots, 1)
        for i, stream in enumerate(self.streams):
            _check_stream_params(f"streams[{i}].params", stream)
        if self.mobility is not None:
            kind = self.mobility.get("kind")
            if kind != "churn":
                raise ValueError(f"unknown mobility override kind {kind!r}")
            _require_amount(
                "mobility.fraction", self.mobility.get("fraction", 0.01), 0.0, 1.0
            )
            extra = set(self.mobility) - {"kind", "fraction"}
            if extra:
                raise ValueError(f"unknown mobility fields: {sorted(extra)}")
        if self.service is not None:
            from ..service.marketplace import ServiceConfig

            ServiceConfig.from_payload(self.service)  # validation only
        # Cross-field: the BILP/local-search allocators schedule single-sensor
        # point queries only (monitoring streams qualify — they emit derived
        # point queries; event streams emit EventSlotQuery sets); reject
        # incompatible combinations at declaration time instead of deep
        # inside the first slot.
        point_only = ("optimal", "local_search", "randomized_local_search")
        if self.allocator in point_only and any(
            s.kind in ("aggregate", "event") for s in self.streams
        ):
            raise ValueError(
                f"allocator {self.allocator!r} handles point queries only; "
                f"aggregate/event streams need 'greedy' or 'baseline'"
            )

    # ------------------------------------------------------------------
    # serialization
    # ------------------------------------------------------------------
    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "ScenarioSpec":
        payload = dict(payload)
        streams = tuple(
            StreamSpec.from_dict(s) for s in payload.pop("streams", [{"kind": "point"}])
        )
        # Retired knob: every kernel resolves relevance through its grid
        # candidate views, so the values that used to turn sharding on are
        # still accepted (and ignored); the ones that selected the deleted
        # dense kernel are refused.
        sharding = payload.pop("sharding", None)
        if sharding is not None and sharding is not True and sharding != "auto":
            raise ValueError(
                f"'sharding': {sharding!r} is no longer supported: the dense "
                "kernel and the shard cell size were removed (every kernel "
                "shards); drop the field or set it to true/\"auto\""
            )
        # Retired knob: every slot builds its state fresh from the slot's
        # announcements, so every value the knob used to take loads (and
        # selects nothing).
        incremental = payload.pop("incremental", None)
        if incremental not in (None, "auto") and not isinstance(incremental, bool):
            raise ValueError(
                f"'incremental': {incremental!r} is not supported: the knob is "
                "retired (every slot builds its state fresh from its "
                "announcements); drop the field"
            )
        known = {
            "name", "dataset", "seed", "workload_seed", "n_sensors", "n_slots",
            "rnc_presence", "allocator", "allocation", "fleet",
            "mobility", "service",
        }
        extra = set(payload) - known
        if extra:
            raise ValueError(f"unknown ScenarioSpec fields: {sorted(extra)}")
        return cls(streams=streams, **payload)

    @classmethod
    def from_json(cls, path: str | Path) -> "ScenarioSpec":
        return cls.from_dict(json.loads(Path(path).read_text()))

    def to_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "name": self.name,
            "dataset": self.dataset,
            "seed": self.seed,
            "n_sensors": self.n_sensors,
            "n_slots": self.n_slots,
            "allocator": self.allocator,
            "allocation": self.allocation,
            "streams": [s.to_dict() for s in self.streams],
        }
        if self.workload_seed is not None:
            out["workload_seed"] = self.workload_seed
        if self.dataset == "rnc":
            out["rnc_presence"] = self.rnc_presence
        if self.fleet:
            out["fleet"] = dict(self.fleet)
        if self.mobility is not None:
            out["mobility"] = dict(self.mobility)
        if self.service is not None:
            out["service"] = dict(self.service)
        return out

    @classmethod
    def example(cls) -> "ScenarioSpec":
        """A ready-to-run mixed-workload demo (also shown by the CLI)."""
        return cls(
            name="mixed-city-demo",
            dataset="rwm",
            seed=2013,
            n_sensors=80,
            n_slots=8,
            allocator="greedy",
            streams=(
                StreamSpec("point", params={"n_queries": 40, "budget": 15.0}),
                StreamSpec("aggregate", params={"mean_queries": 5, "count_spread": 2}),
                StreamSpec(
                    "location_monitoring",
                    params={"max_live": 10, "arrivals_per_slot": 3},
                ),
            ),
        )

    # ------------------------------------------------------------------
    # compilation
    # ------------------------------------------------------------------
    def _override_trace(self) -> MobilityTrace:
        """The ``mobility`` block's generated churn trace over the dataset's
        movement region (the native trace is never built)."""
        from ..mobility import PAPER_RNC_REGION, ChurnMobility
        from ..phenomena import INTEL_LAB_REGION
        from .rwm import RWM_REGION

        region = {"rwm": RWM_REGION, "rnc": PAPER_RNC_REGION, "intel": INTEL_LAB_REGION}
        return MobilityTrace.generated(
            ChurnMobility, region[self.dataset], self.n_sensors, self.n_slots, self.seed,
            fraction=float(self.mobility.get("fraction", 0.01)),
        )

    def build(self):
        """Compile the spec into a ready-to-run ``SlotEngine``."""
        from ..core import engine as _engine
        from ..core.baselines import BaselineAllocator
        from ..core.greedy import GreedyAllocator
        from ..core.local_search import (
            LocalSearchPointAllocator,
            RandomizedLocalSearchAllocator,
        )
        from ..core.monitoring import (
            LocationMonitoringController,
            RegionMonitoringController,
        )
        from ..core.optimal import OptimalPointAllocator
        from ..core.sampling import paper_weight_function
        from ..queries import (
            EventDetectionWorkload,
            LocationMonitoringWorkload,
            PointQueryWorkload,
        )
        from .intel import build_intel_scenario
        from .ozone import build_ozone_dataset
        from .rnc import build_rnc_scenario
        from .rwm import build_rwm_scenario

        fleet_overrides = dict(self.fleet)
        if "trust_model" in fleet_overrides:
            fleet_overrides["trust_model"] = _trust_model_from_payload(
                fleet_overrides["trust_model"]
            )
        for key, value in fleet_overrides.items():
            if isinstance(value, list):  # JSON ranges -> tuples
                fleet_overrides[key] = tuple(value)
        fleet_config = FleetConfig(**fleet_overrides) if fleet_overrides else None
        gp = None
        trace = None if self.mobility is None else self._override_trace()
        if self.dataset == "rwm":
            scenario = build_rwm_scenario(
                self.seed, self.n_sensors, self.n_slots, fleet_config=fleet_config,
                trace=trace,
            )
        elif self.dataset == "rnc":
            scenario = build_rnc_scenario(
                self.seed, self.n_sensors, self.rnc_presence, self.n_slots,
                fleet_config=fleet_config, trace=trace,
            )
        else:
            world = build_intel_scenario(
                self.seed, self.n_sensors, self.n_slots, fleet_config=fleet_config,
                trace=trace,
            )
            scenario, gp = world.scenario, world.gp

        region = scenario.working_region
        ozone = None

        streams: list = []
        for spec in self.streams:
            if spec.kind == "point":
                workload = PointQueryWorkload(
                    region, **{"dmax": scenario.dmax, **spec.params}
                )
                streams.append(
                    _engine.OneShotStream(workload, kind="point", quality_label="point")
                )
            elif spec.kind == "aggregate":
                workload = AggregateQueryWorkload(
                    region, **{"sensing_range": scenario.dmax, **spec.params}
                )
                streams.append(
                    _engine.OneShotStream(
                        workload, kind="aggregate", quality_label="aggregate"
                    )
                )
            elif spec.kind == "location_monitoring":
                if ozone is None:
                    ozone = build_ozone_dataset(self.seed, n_slots=max(50, self.n_slots))
                workload = LocationMonitoringWorkload(
                    region, ozone.values, ozone.model(),
                    **{"dmax": scenario.dmax, **spec.params},
                )
                options = dict(spec.controller)
                controller = LocationMonitoringController(**options)
                streams.append(
                    _engine.LocationMonitoringStream(workload, controller=controller)
                )
            elif spec.kind == "event":
                workload = EventDetectionWorkload(
                    region,
                    **{"threshold": 50.0, "dmax": scenario.dmax, **spec.params},
                )
                streams.append(
                    _engine.EventDetectionStream(workload)
                )
            else:  # region_monitoring
                if gp is None:
                    raise ValueError(
                        "region_monitoring streams need the 'intel' dataset "
                        "(the only world with a learned GP field)"
                    )
                workload = RegionMonitoringWorkload(
                    region, gp, **{"sensing_radius": scenario.dmax, **spec.params}
                )
                options = dict(spec.controller)
                if not options.pop("paper_weighting", True):
                    options["weight_fn"] = lambda k: 1.0
                else:
                    options.setdefault("weight_fn", paper_weight_function)
                controller = RegionMonitoringController(**options)
                streams.append(
                    _engine.RegionMonitoringStream(workload, controller=controller)
                )

        factories = {
            "optimal": OptimalPointAllocator,
            "local_search": LocalSearchPointAllocator,
            "randomized_local_search": RandomizedLocalSearchAllocator,
            "greedy": GreedyAllocator,
            "baseline": BaselineAllocator,
        }
        if self.allocation == "sequential":
            allocation = _engine.SequentialBufferedAllocation(
                factories[self.allocator](), factories[self.allocator]()
            )
        else:
            allocation = _engine.JointSlotAllocation(factories[self.allocator]())

        workload_seed = (
            self.workload_seed if self.workload_seed is not None else self.seed + 17
        )
        return _engine.SlotEngine(
            scenario.make_fleet(),
            streams,
            allocation,
            np.random.default_rng(workload_seed),
        )

    def run(self, n_slots: int | None = None):
        """Build the engine and run it (default: the spec's ``n_slots``)."""
        return self.build().run(n_slots if n_slots is not None else self.n_slots)
