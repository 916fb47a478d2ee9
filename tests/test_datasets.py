"""Tests for the scenario builders."""

from __future__ import annotations

import pytest

from repro.datasets import (
    RWM_REGION,
    RWM_WORKING_REGION,
    build_intel_scenario,
    build_ozone_dataset,
    build_rnc_scenario,
    build_rwm_scenario,
)
from repro.mobility import PAPER_RNC_WORKING_REGION, RandomWaypointMobility
from repro.sensors import FleetConfig


class TestRwmScenario:
    def test_paper_geometry(self):
        assert RWM_REGION.width == 80.0
        assert RWM_WORKING_REGION.width == 50.0

    def test_build_defaults(self):
        scenario = build_rwm_scenario(seed=5, n_sensors=30, n_slots=6)
        assert scenario.name == "RWM"
        assert scenario.n_sensors == 30
        assert scenario.n_slots == 6
        assert scenario.dmax == 5.0

    def test_fleets_are_identical_replays(self):
        scenario = build_rwm_scenario(seed=6, n_sensors=20, n_slots=5)
        a, b = scenario.make_fleet(), scenario.make_fleet()
        snap_a = a.announcements()
        snap_b = b.announcements()
        assert [(s.sensor_id, s.location, s.cost) for s in snap_a] == [
            (s.sensor_id, s.location, s.cost) for s in snap_b
        ]
        # Advancing one fleet does not disturb the other.
        a.advance()
        assert b.clock == 0

    def test_builds_share_one_recipe(self):
        s1 = build_rwm_scenario(seed=7, n_sensors=10, n_slots=4)
        s2 = build_rwm_scenario(seed=7, n_sensors=10, n_slots=4)
        assert s1.trace == s2.trace and hash(s1.trace) == hash(s2.trace)
        assert s1.trace.recipe.model is RandomWaypointMobility
        assert s1.trace != build_rwm_scenario(seed=8, n_sensors=10, n_slots=4).trace

    def test_with_config_swaps_economics_only(self):
        scenario = build_rwm_scenario(seed=8, n_sensors=10, n_slots=4)
        modified = scenario.with_config(FleetConfig(lifetime=3))
        assert modified.trace is scenario.trace
        assert modified.fleet_config.lifetime == 3


class TestRncScenario:
    def test_build_and_presence(self):
        scenario = build_rnc_scenario(
            seed=11, n_sensors=150, target_presence=30.0, n_slots=10
        )
        assert scenario.name == "RNC"
        assert scenario.dmax == 10.0
        presence = scenario.trace.mean_presence(PAPER_RNC_WORKING_REGION)
        assert 0.5 * 30 <= presence <= 2.0 * 30

    def test_fleet_announces_inside_working_region(self):
        scenario = build_rnc_scenario(
            seed=11, n_sensors=150, target_presence=30.0, n_slots=10
        )
        fleet = scenario.make_fleet()
        for snap in fleet.announcements():
            assert scenario.working_region.contains(snap.location)


class TestIntelScenario:
    def test_build(self):
        world = build_intel_scenario(seed=13, n_sensors=10, n_slots=6)
        assert world.scenario.name == "INTEL"
        assert world.scenario.working_region.width == 20.0
        assert world.scenario.dmax == 2.0
        assert world.gp.kernel.variance > 0

    def test_field_and_gp_consistent_scale(self):
        world = build_intel_scenario(seed=13, n_sensors=10, n_slots=6)
        # Learned variance within an order of magnitude of the generator's.
        assert 0.05 <= world.gp.kernel.variance <= 20.0

    def test_invalid_training_fraction(self):
        with pytest.raises(ValueError):
            build_intel_scenario(seed=1, training_fraction=0.0)


class TestOzoneDataset:
    def test_build(self):
        data = build_ozone_dataset(seed=17, n_slots=50)
        assert len(data.series) == 50
        assert data.model().period == data.period

    def test_cached(self):
        assert build_ozone_dataset(seed=18) is build_ozone_dataset(seed=18)

    def test_values_array(self):
        data = build_ozone_dataset(seed=17)
        assert data.values.shape == (50,)
