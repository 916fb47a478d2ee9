"""Non-finite prices and budgets are rejected where they enter.

Every boundary check used to read ``x < 0``, which NaN and inf pass: a
NaN-priced sensor was then selected ahead of a strictly better one and
settled a ``nan`` payment.  Each entry point now refuses non-finite
values at construction time, before any slot runs.
"""

from __future__ import annotations

import json
import math

import numpy as np
import pytest

from helpers import make_snapshot
from repro.cli import main
from repro.datasets import ScenarioSpec
from repro.queries import PointQuery, SpatialAggregateQuery
from repro.sensors import (
    FixedEnergyCost,
    LinearEnergyCost,
    PrivacyCostModel,
    SensorSnapshot,
)
from repro.sensors.state import FleetState
from repro.spatial import Location, Region

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
