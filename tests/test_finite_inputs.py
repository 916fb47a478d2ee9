"""Non-finite prices, budgets, query geometry and sensor positions are
rejected where they enter.

Every boundary check used to read ``x < 0``, which NaN and inf pass: a
NaN-priced sensor was then selected ahead of a strictly better one and
settled a ``nan`` payment, and a NaN ``dmax`` or region bound failed deep
in the slot with ``cannot convert float NaN to integer``.  Each entry point
now refuses non-finite values at construction time with a one-line reason
that names the field.
"""

from __future__ import annotations

import json
import math

import numpy as np
import pytest

from helpers import make_snapshot
from repro.cli import main
from repro.core import Aggregator
from repro.datasets import ScenarioSpec, build_intel_scenario, build_rwm_scenario
from repro.phenomena import GaussianProcessField, RBFKernel
from repro.queries import (
    EventDetectionQuery,
    EventSlotQuery,
    LocationMonitoringQuery,
    MultiSensorPointQuery,
    PointQuery,
    RegionMonitoringQuery,
    SpatialAggregateQuery,
    TrajectoryQuery,
)
from repro.queries.point import reading_quality
from repro.sensors import (
    FixedEnergyCost,
    LinearEnergyCost,
    PrivacyCostModel,
    SensorSnapshot,
)
from repro.sensors.state import FleetState
from repro.service import ServiceConfig
from repro.spatial import (
    AreaCoverage,
    Location,
    Region,
    Trajectory,
    TrajectoryCoverage,
)

NON_FINITE = [math.nan, math.inf, -math.inf]
IDS = ["nan", "inf", "-inf"]


@pytest.mark.parametrize("value", NON_FINITE, ids=IDS)
def test_snapshot_rejects_non_finite_cost(value):
    with pytest.raises(ValueError, match="finite and non-negative"):
        SensorSnapshot(0, Location(0.0, 0.0), value, 0.1, 1.0)
    # The rejected snapshot is the NaN-priced sensor that used to win.
    with pytest.raises(ValueError):
        make_snapshot(0, cost=value)


@pytest.mark.parametrize("value", NON_FINITE, ids=IDS)
def test_query_rejects_non_finite_budget(value):
    with pytest.raises(ValueError, match="budget must be finite"):
        PointQuery(Location(0.0, 0.0), budget=value)
    with pytest.raises(ValueError, match="budget must be finite"):
        SpatialAggregateQuery(Region(0, 0, 5, 5), budget=value)


@pytest.fixture(scope="module")
def intel_gp():
    return build_intel_scenario(11, n_sensors=10, n_slots=5).gp


@pytest.mark.parametrize("value", NON_FINITE, ids=IDS)
@pytest.mark.parametrize(
    "make",
    [
        lambda b, gp: LocationMonitoringQuery(
            Location(1.0, 1.0), 0, 5, [1, 3], budget=b, series=np.zeros(10), model=None,
        ),
        lambda b, gp: RegionMonitoringQuery(
            region=Region(5, 5, 20, 20), t1=0, t2=4, budget=b, gp=gp
        ),
        lambda b, gp: EventDetectionQuery(
            Location(1.0, 1.0), 0, 5, threshold=1.0, confidence=0.9, budget=b
        ),
    ],
    ids=["location-monitoring", "region-monitoring", "event-detection"],
)
def test_continuous_queries_reject_non_finite_budget(make, value, intel_gp):
    """A NaN budget used to pass ``budget < 0`` and leave the query with a
    ``remaining_budget`` of 0.0 and a ``nan`` quality."""
    with pytest.raises(
        ValueError, match=f"^budget must be finite and non-negative, got {value}$"
    ):
        make(value, intel_gp)


@pytest.mark.parametrize("value", NON_FINITE, ids=IDS)
def test_service_config_rejects_non_finite_tick_interval(value):
    """An infinite tick used to sleep forever between slots."""
    with pytest.raises(
        ValueError, match=f"^tick_interval must be finite and >= 0, got {value}$"
    ):
        ServiceConfig(tick_interval=value)
    assert ServiceConfig(tick_interval=0.0).tick_interval == 0.0


def test_serve_refuses_an_infinite_tick_with_one_line(tmp_path, capsys):
    spec = {
        "name": "tick-inf", "dataset": "rwm", "seed": 3, "n_sensors": 40,
        "n_slots": 1, "streams": [{"kind": "point", "params": {"n_queries": 3}}],
    }
    path = tmp_path / "tick.json"
    path.write_text(json.dumps(spec))
    argv = ["serve", "--spec", str(path), "--tick", "inf", "--slots", "1", "--exit-after"]
    assert main(argv) == 2
    assert capsys.readouterr().err == (
        "error building service for tick-inf: "
        "tick_interval must be finite and >= 0, got inf\n"
    )


def fleet_state(n=3, **overrides):
    columns = dict(
        gamma=np.full(n, 0.1),
        trust=np.ones(n),
        base_price=np.full(n, 10.0),
        energy_beta=np.zeros(n),
        linear_energy=False,
        sensitivity=np.zeros(n),
        privacy_window=5,
        lifetime=np.full(n, 50),
    )
    columns.update(overrides)
    return FleetState(**columns)


@pytest.mark.parametrize(
    "column,message",
    [
        ("base_price", "base_price must be finite"),
        ("energy_beta", "beta must be finite"),
        ("gamma", "inaccuracy"),
        ("trust", "trust"),
    ],
)
def test_fleet_state_rejects_nan_columns(column, message):
    fleet_state()  # the defaults are valid
    values = np.array([0.5, math.nan, 0.5])
    with pytest.raises(ValueError, match=message):
        fleet_state(**{column: values})


def test_fleet_state_rejects_infinite_price():
    with pytest.raises(ValueError, match="base_price must be finite"):
        fleet_state(base_price=np.array([10.0, math.inf, 10.0]))


@pytest.mark.parametrize("value", NON_FINITE, ids=IDS)
def test_fleet_state_rejects_non_finite_positions(value):
    state = fleet_state()
    good = np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
    for row, axis in ((1, 0), (2, 1)):
        xy = good.copy()
        xy[row, axis] = value
        with pytest.raises(ValueError) as info:
            state.set_positions(xy)
        expected = [float(c) for c in good[row]]
        expected[axis] = value
        assert str(info.value) == (
            f"positions must be finite, got row {row} ({expected[0]}, {expected[1]})"
        )
    # Nothing was stored: the state still has no positions, and a valid
    # frame afterwards announces every sensor.
    assert state.xy is None
    state.set_positions(good)
    batch = state.announce(0, Region.from_origin(10.0, 10.0))
    assert list(batch.ids) == [0, 1, 2]
    # A refused frame leaves the stored one and its version untouched.
    version = state.positions_version
    with pytest.raises(ValueError, match="positions must be finite, got row 1"):
        state.set_positions([[1.0, 1.0], [value, 2.0], [3.0, 3.0]])
    assert state.positions_version == version
    assert np.array_equal(state.xy, good)


def test_nan_position_reports_the_first_bad_row():
    state = fleet_state()
    with pytest.raises(ValueError, match=r"^positions must be finite, got row 1 \(nan, 2\.0\)$"):
        state.set_positions([[1.0, 1.0], [math.nan, 2.0], [math.inf, 3.0]])


@pytest.mark.parametrize("value", NON_FINITE, ids=IDS)
def test_cost_models_reject_non_finite_parameters(value):
    with pytest.raises(ValueError, match="base_price must be finite"):
        FixedEnergyCost(value)
    with pytest.raises(ValueError, match="base_price must be finite"):
        LinearEnergyCost(value, 1.0)
    with pytest.raises(ValueError, match="beta must be finite"):
        LinearEnergyCost(10.0, value)
    with pytest.raises(ValueError, match="base_price must be finite"):
        PrivacyCostModel(base_price=value)


NAN_SPEC = {
    "name": "nan-price",
    "dataset": "rwm",
    "seed": 3,
    "n_sensors": 40,
    "n_slots": 2,
    "fleet": {"base_price": math.nan},
    "streams": [{"kind": "point", "params": {"n_queries": 5, "budget": 12.0}}],
}


def test_nan_priced_spec_is_rejected_before_any_slot(tmp_path, capsys):
    spec = ScenarioSpec.from_dict(NAN_SPEC)
    with pytest.raises(ValueError, match="base_price must be finite"):
        spec.build()
    # Python's json writes and reads NaN, so a spec file can carry one.
    path = tmp_path / "nan.json"
    path.write_text(json.dumps(NAN_SPEC))
    assert main(["scenario", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.strip() == (
        "error running nan-price: base_price must be finite and non-negative"
    )


# ----------------------------------------------------------------------
# query geometry
# ----------------------------------------------------------------------
REGION = Region(0.0, 0.0, 10.0, 10.0)
PATH = Trajectory((Location(1.0, 1.0), Location(8.0, 6.0)))
GP = GaussianProcessField(RBFKernel(1.0, 2.0), noise=0.2)


@pytest.mark.parametrize("value", NON_FINITE, ids=IDS)
@pytest.mark.parametrize("corner", range(4))
def test_region_rejects_non_finite_bounds(corner, value):
    bounds = [0.0, 0.0, 5.0, 5.0]
    bounds[corner] = value
    with pytest.raises(ValueError, match="region bounds must be finite"):
        Region(*bounds)


@pytest.mark.parametrize("value", NON_FINITE, ids=IDS)
def test_random_subregion_rejects_non_finite_min_side(value):
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError, match="min_side must be finite"):
        Region.random_subregion(REGION, rng, min_side=value)


def test_random_subregion_rejects_nan_max_side():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError, match="max_side must not be NaN"):
        Region.random_subregion(REGION, rng, max_side=math.nan)


def test_random_subregion_infinite_max_side_caps_nothing():
    """``max_side=inf`` means no cap, the same draws as ``None``."""
    uncapped = Region.random_subregion(REGION, np.random.default_rng(4), max_side=math.inf)
    default = Region.random_subregion(REGION, np.random.default_rng(4))
    assert uncapped == default
    with pytest.raises(ValueError, match="min_side exceeds"):
        Region.random_subregion(REGION, np.random.default_rng(4), max_side=-math.inf)


@pytest.mark.parametrize("value", NON_FINITE, ids=IDS)
def test_aggregate_query_rejects_non_finite_sensing_range(value):
    with pytest.raises(ValueError, match="sensing_range must be finite and positive"):
        SpatialAggregateQuery(REGION, budget=10.0, sensing_range=value)
    # Workloads derive the budget from the range: the range is named, not
    # the NaN budget it produced.
    with pytest.raises(ValueError, match="sensing_range must be finite and positive"):
        SpatialAggregateQuery(REGION, budget=math.nan, sensing_range=value)


@pytest.mark.parametrize("value", NON_FINITE, ids=IDS)
def test_aggregate_query_rejects_non_finite_coverage_radius(value):
    with pytest.raises(ValueError, match="coverage_radius must be finite and positive"):
        SpatialAggregateQuery(REGION, budget=10.0, coverage_radius=value)


@pytest.mark.parametrize("value", NON_FINITE, ids=IDS)
@pytest.mark.parametrize(
    "make",
    [
        lambda r: AreaCoverage(REGION, r),
        lambda r: TrajectoryCoverage(PATH, r),
        lambda r: TrajectoryQuery(PATH, budget=10.0, sensing_range=r),
    ],
    ids=["area", "trajectory", "trajectory-query"],
)
def test_coverage_rejects_non_finite_sensing_range(make, value):
    with pytest.raises(ValueError, match="sensing_range must be finite and positive"):
        make(value)


@pytest.mark.parametrize("value", NON_FINITE, ids=IDS)
@pytest.mark.parametrize(
    "make,field",
    [
        (lambda v: AreaCoverage(REGION, 2.0, cell_size=v), "cell_size"),
        (lambda v: TrajectoryCoverage(PATH, 2.0, spacing=v), "spacing"),
        (
            lambda v: RegionMonitoringQuery(REGION, 0, 3, 10.0, GP, cell_size=v),
            "cell_size",
        ),
        (lambda v: RegionMonitoringQuery(REGION, 0, 3, 10.0, GP, dmax=v), "dmax"),
    ],
    ids=["area", "trajectory", "region-monitoring", "region-monitoring-dmax"],
)
def test_rasterization_rejects_non_finite_resolution(make, field, value):
    """A NaN cell size used to die converting to an integer, and an
    infinite one to rasterize silently into a single cell or sample."""
    with pytest.raises(ValueError, match=f"{field} must be finite and positive"):
        make(value)


@pytest.mark.parametrize("value", NON_FINITE, ids=IDS)
@pytest.mark.parametrize(
    "make",
    [
        lambda d: PointQuery(Location(1.0, 1.0), budget=10.0, dmax=d),
        lambda d: MultiSensorPointQuery(
            Location(1.0, 1.0), budget=10.0, n_readings=2, dmax=d
        ),
        lambda d: EventSlotQuery(
            Location(1.0, 1.0), budget=10.0, required_confidence=0.9,
            theta_min=0.1, dmax=d, parent_id="ev",
        ),
        lambda d: reading_quality(make_snapshot(0), Location(1.0, 1.0), d),
        lambda d: EventDetectionQuery(
            Location(1.0, 1.0), 0, 5, threshold=1.0, confidence=0.9,
            budget=10.0, dmax=d,
        ),
        lambda d: LocationMonitoringQuery(
            Location(1.0, 1.0), 0, 5, [1, 3], budget=10.0,
            series=np.zeros(10), model=None, dmax=d,
        ),
    ],
    ids=[
        "point", "multi-point", "event-slot", "reading-quality",
        "event-detection", "location-monitoring",
    ],
)
def test_point_queries_reject_non_finite_dmax(make, value):
    with pytest.raises(ValueError, match="dmax must be finite and positive"):
        make(value)


@pytest.mark.parametrize("value", NON_FINITE, ids=IDS)
@pytest.mark.parametrize("axis", ["x", "y"])
@pytest.mark.parametrize(
    "make",
    [
        lambda loc: PointQuery(loc, budget=10.0),
        lambda loc: MultiSensorPointQuery(loc, budget=10.0, n_readings=2),
        lambda loc: EventSlotQuery(
            loc, budget=10.0, required_confidence=0.9, theta_min=0.1, dmax=4.0,
            parent_id="ev",
        ),
        lambda loc: EventDetectionQuery(
            loc, 0, 5, threshold=1.0, confidence=0.9, budget=10.0
        ),
        lambda loc: LocationMonitoringQuery(
            loc, 0, 5, [1, 3], budget=10.0, series=np.zeros(10), model=None,
        ),
    ],
    ids=["point", "multi-point", "event-slot", "event-detection", "location-monitoring"],
)
def test_location_queries_reject_non_finite_location(make, axis, value):
    xy = {"x": 1.0, "y": 1.0, axis: value}
    with pytest.raises(ValueError, match="location must be finite"):
        make(Location(xy["x"], xy["y"]))


# One spec per field a scenario spec can set; the query locations, the
# region bounds themselves and the coverage functions' ranges have no spec
# field of their own (they come from the world region and ``min_side`` /
# ``max_side`` / ``coverage_radius``), so the constructor tests above cover
# them.  The spec refuses each at load, naming the stream key.
POSITIVE = " must be a finite number > 0, got nan"
GEOMETRY_SPECS = {
    "nan-min-side": (
        {"kind": "aggregate", "params": {"mean_queries": 3, "count_spread": 0, "min_side": math.nan}},
        "min_side" + POSITIVE,
    ),
    "nan-max-side": (
        {"kind": "aggregate", "params": {"mean_queries": 3, "count_spread": 0, "max_side": math.nan}},
        "max_side" + POSITIVE,
    ),
    "nan-sensing-range": (
        {"kind": "aggregate", "params": {"mean_queries": 3, "count_spread": 0, "sensing_range": math.nan}},
        "sensing_range" + POSITIVE,
    ),
    "nan-coverage-radius": (
        {"kind": "aggregate", "params": {"mean_queries": 3, "count_spread": 0, "coverage_radius": math.nan}},
        "coverage_radius" + POSITIVE,
    ),
    "nan-point-dmax": (
        {"kind": "point", "params": {"n_queries": 5, "dmax": math.nan}},
        "dmax" + POSITIVE,
    ),
    "nan-monitoring-dmax": (
        {"kind": "location_monitoring", "params": {"dmax": math.nan}},
        "dmax" + POSITIVE,
    ),
    "nan-event-dmax": (
        {"kind": "event", "params": {"dmax": math.nan}},
        "dmax" + POSITIVE,
    ),
    "nan-monitoring-budget": (
        {"kind": "location_monitoring", "params": {"budget_factor": math.nan}},
        "budget_factor must be a finite number >= 0, got nan",
    ),
}


@pytest.mark.parametrize("name", sorted(GEOMETRY_SPECS))
def test_nan_geometry_spec_exits_with_one_line(name, tmp_path, capsys):
    stream, reason = GEOMETRY_SPECS[name]
    spec = {
        "name": name, "dataset": "rwm", "seed": 3, "n_sensors": 40,
        "n_slots": 1, "streams": [stream],
    }
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(spec))
    assert main(["scenario", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error loading {path}: streams[0].params.{reason}\n"


@pytest.mark.parametrize("budget", [math.nan, -5.0], ids=["nan", "negative"])
def test_aggregator_account_rejects_nan_and_negative_budget(budget):
    """A NaN budget compares false against every remaining-budget check, so
    the user's queries used to re-queue forever."""
    agg = Aggregator(build_rwm_scenario(seed=3, n_sensors=10, n_slots=2).make_fleet())
    with pytest.raises(ValueError, match="account budget must be non-negative or inf"):
        agg.open_account("user", budget=budget)
    assert "user" not in agg.accounts
    assert math.isinf(agg.open_account("user").budget)
    assert agg.open_account("free", budget=0.0).budget == 0.0
