"""Tests for the mobility substrate (RWM, waypoint, trace, stationary, RNC)."""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.datasets import RWM_WORKING_REGION, Scenario, build_rwm_scenario
from repro.mobility import (
    PAPER_RNC_REGION,
    PAPER_RNC_WORKING_REGION,
    ChurnMobility,
    MobilityTrace,
    NokiaCampaignSynthesizer,
    RandomWaypointMobility,
    StationaryMobility,
    TraceMobility,
    WaypointMobility,
)
from repro.sensors import FleetConfig
from repro.spatial import Location, Region

REGION = Region.from_origin(80, 80)


class TestRandomWaypoint:
    def test_population_size(self):
        model = RandomWaypointMobility(REGION, 50, np.random.default_rng(0))
        assert model.n_sensors == 50
        assert len(model.locations()) == 50

    def test_positions_stay_in_region(self):
        model = RandomWaypointMobility(REGION, 30, np.random.default_rng(1))
        for _ in range(100):
            model.advance()
            assert all(REGION.contains(p) for p in model.locations())

    def test_axis_aligned_steps(self):
        model = RandomWaypointMobility(REGION, 20, np.random.default_rng(2))
        before = model.locations()
        model.advance()
        after = model.locations()
        for a, b in zip(before, after):
            # One coordinate unchanged (or clamped at the border).
            moved_x = abs(a.x - b.x) > 1e-12
            moved_y = abs(a.y - b.y) > 1e-12
            assert not (moved_x and moved_y)

    def test_step_bounded_by_max_speed(self):
        model = RandomWaypointMobility(
            REGION, 40, np.random.default_rng(3), max_speed_choices=(4.0, 5.0)
        )
        for _ in range(20):
            before = model.locations()
            model.advance()
            for a, b in zip(before, model.locations()):
                assert a.distance_to(b) <= 5.0 + 1e-9

    def test_max_speed_choices_respected(self):
        model = RandomWaypointMobility(
            REGION, 100, np.random.default_rng(4), max_speed_choices=(4.0, 5.0)
        )
        assert set(np.unique(model.max_speeds)) <= {4.0, 5.0}

    def test_invalid_args(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            RandomWaypointMobility(REGION, 0, rng)
        with pytest.raises(ValueError):
            RandomWaypointMobility(REGION, 5, rng, max_speed_choices=())

    def test_present_in_subregion(self):
        model = RandomWaypointMobility(REGION, 100, np.random.default_rng(5))
        hotspot = Region.centered_in(REGION, 50, 50)
        present = model.present_in(hotspot)
        assert all(hotspot.contains(model.location_of(i)) for i in present)

    def test_run_records_frames(self):
        model = RandomWaypointMobility(REGION, 10, np.random.default_rng(6))
        frames = model.run(5)
        assert len(frames) == 5
        assert all(len(f) == 10 for f in frames)

    def test_run_invalid(self):
        model = RandomWaypointMobility(REGION, 10, np.random.default_rng(6))
        with pytest.raises(ValueError):
            model.run(0)

    def test_deterministic_given_seed(self):
        a = RandomWaypointMobility(REGION, 10, np.random.default_rng(42))
        b = RandomWaypointMobility(REGION, 10, np.random.default_rng(42))
        a.advance()
        b.advance()
        assert a.locations() == b.locations()


class TestWaypointMobility:
    def test_reaches_targets_eventually(self):
        model = WaypointMobility(REGION, 5, np.random.default_rng(0), max_pause=0)
        start = model.locations()
        for _ in range(200):
            model.advance()
        assert model.locations() != start

    def test_stays_in_region(self):
        model = WaypointMobility(REGION, 20, np.random.default_rng(1))
        for _ in range(100):
            model.advance()
            assert all(REGION.contains(p) for p in model.locations())

    def test_invalid_speeds(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            WaypointMobility(REGION, 5, rng, min_speed=0.0)
        with pytest.raises(ValueError):
            WaypointMobility(REGION, 5, rng, min_speed=5.0, max_speed=1.0)


class _RecordingRng:
    """Wrap a Generator, logging every draw batch for the replay reference."""

    def __init__(self, rng: np.random.Generator) -> None:
        self._rng = rng
        self.log: list[np.ndarray] = []

    def uniform(self, low=0.0, high=1.0, size=None):
        out = self._rng.uniform(low, high, size=size)
        self.log.append(np.atleast_1d(np.array(out, copy=True)))
        return out

    def integers(self, low, high=None, size=None):
        out = self._rng.integers(low, high, size=size)
        self.log.append(np.atleast_1d(np.array(out, copy=True)))
        return out


class _DrawQueue:
    def __init__(self, log):
        self._log = list(log)

    def next(self) -> np.ndarray:
        return self._log.pop(0)

    @property
    def empty(self) -> bool:
        return not self._log


def _reference_advance(positions, targets, speeds, pauses, draws: _DrawQueue):
    """Per-sensor replay of one WaypointMobility slot.

    Consumes the *recorded* draw batches of the vectorized ``advance()`` in
    its documented phase order (arrival pauses / target xs / target ys /
    trip speeds) but applies every kinematic update in a scalar per-sensor
    loop — so any vectorization bug (masking, broadcasting, float
    grouping) diverges from this reference immediately.
    """
    n = len(positions)
    was_pausing = pauses > 0
    pauses[was_pausing] -= 1
    arrived = []
    for i in range(n):
        if was_pausing[i]:
            continue
        delta = targets[i] - positions[i]
        dist = np.hypot(delta[0], delta[1])
        if dist <= speeds[i]:
            positions[i] = targets[i]
            arrived.append(i)
        else:
            positions[i] = positions[i] + delta / dist * speeds[i]
    if arrived:
        pause_draws = draws.next()
        for k, i in enumerate(arrived):
            pauses[i] = pause_draws[k]
    arrived_set = set(arrived)
    needs = [
        i
        for i in range(n)
        if (was_pausing[i] or i in arrived_set) and pauses[i] == 0
    ]
    if needs:
        xs, ys, speed_draws = draws.next(), draws.next(), draws.next()
        for k, i in enumerate(needs):
            targets[i] = (xs[k], ys[k])
            speeds[i] = speed_draws[k]


class TestWaypointReplayParity:
    """The loop-free ``advance()`` is positionally identical to a scalar
    per-sensor reference replaying the same recorded draws (the seeded
    equivalent the vectorization documents)."""

    def test_vectorized_advance_matches_scalar_replay(self):
        model = WaypointMobility(
            REGION, 40, np.random.default_rng(99), min_speed=1.0,
            max_speed=6.0, max_pause=3,
        )
        positions = model._positions.copy()
        targets = model._targets.copy()
        speeds = model._speeds.copy()
        pauses = model._pauses.copy()
        recorder = _RecordingRng(model._rng)
        model._rng = recorder
        for step in range(80):
            recorder.log.clear()
            model.advance()
            draws = _DrawQueue(recorder.log)
            _reference_advance(positions, targets, speeds, pauses, draws)
            assert draws.empty, f"unconsumed draw batches at step {step}"
            np.testing.assert_array_equal(model._positions, positions)
            np.testing.assert_array_equal(model._targets, targets)
            np.testing.assert_array_equal(model._speeds, speeds)
            np.testing.assert_array_equal(model._pauses, pauses)

    def test_sample_targets_override_is_honoured(self):
        class PinnedTargets(WaypointMobility):
            def sample_targets(self, indices):
                return np.column_stack([1.0 + indices, np.full(len(indices), 2.0)])

        model = PinnedTargets(REGION, 5, np.random.default_rng(0), max_pause=0)
        assert model._targets[3, 0] == 4.0
        assert set(model._targets[:, 1]) == {2.0}

    def test_override_below_the_nokia_synthesizer_is_honoured(self):
        """A subclass of an intermediate model with its own destinations
        (the Nokia synthesizer) still wins with its override."""

        class Commuters(NokiaCampaignSynthesizer):
            def sample_targets(self, indices):
                return np.tile([3.0, 4.0], (len(indices), 1))

        model = Commuters(
            np.random.default_rng(0), n_sensors=6, target_presence=2.0, max_pause=0
        )
        assert set(model._targets[:, 0]) == {3.0}
        assert set(model._targets[:, 1]) == {4.0}

    def test_zero_pause_reassigns_immediately(self):
        model = WaypointMobility(REGION, 30, np.random.default_rng(5), max_pause=0)
        for _ in range(50):
            model.advance()
            # With max_pause=0 nobody ever pauses: every sensor always has
            # a live trip (positive speed).
            assert (model._pauses == 0).all()
            assert (model._speeds > 0).all()


class TestMobilityTrace:
    def _trace(self) -> MobilityTrace:
        frames = [
            [Location(0, 0), Location(5, 5)],
            [Location(1, 0), Location(5, 6)],
            [Location(2, 0), Location(5, 7)],
        ]
        return MobilityTrace.from_frames(Region.from_origin(10, 10), frames)

    def test_dimensions(self):
        trace = self._trace()
        assert trace.n_slots == 3
        assert trace.n_sensors == 2

    def test_empty_trace_rejected(self):
        with pytest.raises(ValueError):
            MobilityTrace(Region.from_origin(1, 1), ())

    def test_ragged_frames_rejected(self):
        with pytest.raises(ValueError):
            MobilityTrace.from_frames(
                Region.from_origin(10, 10),
                [[Location(0, 0)], [Location(0, 0), Location(1, 1)]],
            )

    def test_replay_and_hold_at_end(self):
        replay = TraceMobility(self._trace())
        assert replay.locations()[0] == Location(0, 0)
        replay.advance()
        assert replay.locations()[0] == Location(1, 0)
        replay.advance()
        replay.advance()  # past the end: hold the last frame
        assert replay.locations()[0] == Location(2, 0)
        assert replay.cursor == 2

    def test_reset(self):
        replay = TraceMobility(self._trace())
        replay.advance()
        replay.reset()
        assert replay.cursor == 0
        assert replay.locations()[0] == Location(0, 0)

    def test_save_load_roundtrip(self, tmp_path):
        trace = self._trace()
        path = tmp_path / "trace.json"
        trace.save(path)
        loaded = MobilityTrace.load(path)
        assert loaded.region == trace.region
        assert loaded.frames == trace.frames

    def test_mean_presence(self):
        trace = self._trace()
        sub = Region(0, 0, 3, 3)
        # Sensor 0 is inside sub at every slot; sensor 1 never.
        assert trace.mean_presence(sub) == pytest.approx(1.0)


class TestArrayNativeTrace:
    """``MobilityTrace.from_xy``: lazy Location frames over stacked arrays."""

    def _xy_frames(self):
        rng = np.random.default_rng(3)
        return [rng.uniform(0, 10, size=(4, 2)) for _ in range(3)]

    def test_equals_eager_trace(self):
        frames_xy = self._xy_frames()
        lazy = MobilityTrace.from_xy(Region.from_origin(10, 10), frames_xy)
        eager = MobilityTrace.from_frames(
            Region.from_origin(10, 10),
            [[Location(float(x), float(y)) for x, y in f] for f in frames_xy],
        )
        assert lazy.n_slots == 3 and lazy.n_sensors == 4
        assert lazy == eager
        assert eager == lazy

    def test_frame_xy_serves_arrays_without_materializing(self):
        frames_xy = self._xy_frames()
        lazy = MobilityTrace.from_xy(Region.from_origin(10, 10), frames_xy)
        for t in range(3):
            np.testing.assert_array_equal(lazy.frame_xy(t), frames_xy[t])
        # No Location frame was built by the array accessors.
        assert lazy.frames._frames == [None, None, None]
        # Indexing materializes (and caches) the requested frame only.
        frame = lazy.frames[1]
        assert frame[2] == Location(*map(float, frames_xy[1][2]))
        assert lazy.frames._frames[0] is None

    def test_replay_save_load_roundtrip(self, tmp_path):
        frames_xy = self._xy_frames()
        lazy = MobilityTrace.from_xy(Region.from_origin(10, 10), frames_xy)
        replay = TraceMobility(lazy)
        np.testing.assert_array_equal(replay.locations_xy(), frames_xy[0])
        replay.advance()
        assert replay.locations()[0] == Location(*map(float, frames_xy[1][0]))
        path = tmp_path / "lazy-trace.json"
        lazy.save(path)
        loaded = MobilityTrace.load(path)
        assert loaded == lazy

    def test_mean_presence_matches_scalar_walk(self):
        frames_xy = self._xy_frames()
        lazy = MobilityTrace.from_xy(Region.from_origin(10, 10), frames_xy)
        sub = Region(0, 0, 5, 5)
        expected = sum(
            sum(1 for loc in frame if sub.contains(loc)) for frame in lazy.frames
        ) / lazy.n_slots
        assert lazy.mean_presence(sub) == expected

    def test_validation(self):
        region = Region.from_origin(10, 10)
        with pytest.raises(ValueError):
            MobilityTrace.from_xy(region, [np.zeros((2, 3))])
        with pytest.raises(ValueError):
            MobilityTrace.from_xy(region, [np.zeros((2, 2)), np.zeros((3, 2))])


#: Generated worlds: (model, constructor params), for RWM and churn.
GENERATED = pytest.mark.parametrize(
    "model,params",
    [
        (RandomWaypointMobility, {}),
        (RandomWaypointMobility, {"max_speed_choices": (2.0, 3.0)}),
        (ChurnMobility, {"fraction": 0.2}),
    ],
    ids=["rwm", "rwm-slow", "churn"],
)


class TestGeneratedTrace:
    """``MobilityTrace.generated``: a seeded world kept as its recipe."""

    N_SENSORS, N_SLOTS, SEED = 25, 7, 11

    def _trace(self, model, params) -> MobilityTrace:
        return MobilityTrace.generated(
            model, REGION, self.N_SENSORS, self.N_SLOTS, self.SEED, **params
        )

    def _expected(self, model, params) -> list[np.ndarray]:
        live = model(REGION, self.N_SENSORS, np.random.default_rng(self.SEED), **params)
        return live.run_xy(self.N_SLOTS)

    def _scenario(self, model, params) -> Scenario:
        return Scenario(
            name="generated",
            trace=self._trace(model, params),
            working_region=RWM_WORKING_REGION,
            fleet_config=FleetConfig(),
            fleet_seed=self.SEED + 1,
            dmax=5.0,
        )

    @GENERATED
    def test_replay_matches_run_xy_and_holds_the_last_frame(self, model, params):
        expected = self._expected(model, params)
        replay = TraceMobility(self._trace(model, params))
        for t in range(self.N_SLOTS + 3):
            held = min(t, self.N_SLOTS - 1)
            assert np.array_equal(replay.locations_xy(), expected[held]), t
            assert replay.locations() == tuple(
                Location(float(x), float(y)) for x, y in expected[held]
            )
            replay.advance()
        assert replay.cursor == self.N_SLOTS - 1
        replay.reset()
        assert replay.cursor == 0
        assert np.array_equal(replay.locations_xy(), expected[0])

    @GENERATED
    def test_frame_access_walks_forward_and_restarts_backward(self, model, params):
        expected = self._expected(model, params)
        trace = self._trace(model, params)
        assert (trace.n_slots, trace.n_sensors) == (self.N_SLOTS, self.N_SENSORS)
        for t in (0, 3, 6, 2, -1, 0):
            assert np.array_equal(trace.frame_xy(t), expected[t]), t
        assert trace.frames[4] == tuple(
            Location(float(x), float(y)) for x, y in expected[4]
        )
        assert len(list(trace.frames)) == self.N_SLOTS
        with pytest.raises(IndexError):
            trace.frame_xy(self.N_SLOTS)

    @GENERATED
    def test_two_fleets_advanced_alternately_stay_independent(self, model, params):
        expected = self._expected(model, params)
        scenario = self._scenario(model, params)
        a, b = scenario.make_fleet(), scenario.make_fleet()
        for fleet, steps in ((a, 2), (b, 1), (a, 3), (b, 4), (a, 1)):
            for _ in range(steps):
                fleet.advance()
            for other in (a, b):
                assert np.array_equal(
                    other.mobility.locations_xy(), expected[other.clock]
                ), (other.clock, steps)

    @GENERATED
    def test_pickle_round_trips_the_scenario(self, model, params):
        scenario = self._scenario(model, params)
        scenario.trace.frame_xy(3)  # a live analysis walk does not travel
        clone = pickle.loads(pickle.dumps(scenario))
        assert clone == scenario and hash(clone.trace) == hash(scenario.trace)
        assert clone.trace.recipe == scenario.trace.recipe
        assert clone.trace.frames._model is None
        replay, original = TraceMobility(clone.trace), TraceMobility(scenario.trace)
        for _ in range(self.N_SLOTS):
            assert np.array_equal(replay.locations_xy(), original.locations_xy())
            replay.advance()
            original.advance()

    @GENERATED
    def test_frames_handed_out_cannot_mutate_the_model(self, model, params):
        expected = self._expected(model, params)
        trace = self._trace(model, params)
        first = trace.frame_xy(0)
        with pytest.raises(ValueError):
            first[0, 0] = -1.0
        # A later frame is a fresh copy: the churn model writes its buffer
        # in place, and the frame handed out for slot 0 keeps slot 0.
        trace.frame_xy(self.N_SLOTS - 1)
        assert np.array_equal(first, expected[0])
        live = TraceMobility(trace).locations_xy()
        with pytest.raises(ValueError):
            live[0, 0] = -1.0

    def test_equality_compares_recipes_only(self):
        trace = self._trace(ChurnMobility, {"fraction": 0.2})
        assert trace == self._trace(ChurnMobility, {"fraction": 0.2})
        assert trace != self._trace(ChurnMobility, {"fraction": 0.3})
        assert trace != self._trace(RandomWaypointMobility, {})
        # A generated trace never equals a recording, even of its own frames.
        recorded = MobilityTrace.from_xy(
            REGION, self._expected(ChurnMobility, {"fraction": 0.2})
        )
        assert trace != recorded and recorded != trace
        assert trace.recipe is not None and recorded.recipe is None

    def test_save_writes_the_frames(self, tmp_path):
        trace = self._trace(RandomWaypointMobility, {})
        path = tmp_path / "generated.json"
        trace.save(path)
        loaded = MobilityTrace.load(path)
        assert loaded == MobilityTrace.from_xy(
            REGION, self._expected(RandomWaypointMobility, {})
        )

    def test_recipe_is_plain_data(self):
        class Local(RandomWaypointMobility):
            pass

        with pytest.raises(TypeError, match="module-level MobilityModel class"):
            MobilityTrace.generated(Local, REGION, 5, 3, 0)
        with pytest.raises(TypeError, match="module-level MobilityModel class"):
            MobilityTrace.generated(lambda *a: None, REGION, 5, 3, 0)
        with pytest.raises(TypeError, match="unhashable"):
            MobilityTrace.generated(
                RandomWaypointMobility, REGION, 5, 3, 0, max_speed_choices=[1.0]
            )
        with pytest.raises(ValueError, match="at least one sensor and one slot"):
            MobilityTrace.generated(RandomWaypointMobility, REGION, 5, 0, 0)

    def test_rwm_dataset_replays_its_recipe(self):
        scenario = build_rwm_scenario(seed=4, n_sensors=30, n_slots=5)
        recipe = scenario.trace.recipe
        assert recipe.model is RandomWaypointMobility and recipe.seed == 4
        expected = RandomWaypointMobility(
            scenario.trace.region, 30, np.random.default_rng(4)
        ).run_xy(5)
        fleet = scenario.make_fleet()
        for t in range(7):
            assert np.array_equal(fleet.mobility.locations_xy(), expected[min(t, 4)])
            fleet.advance()


class TestStationary:
    def test_never_moves(self):
        positions = [Location(1, 1), Location(2, 2)]
        model = StationaryMobility(Region.from_origin(5, 5), positions)
        model.advance()
        assert model.locations() == tuple(positions)

    def test_rejects_outside_positions(self):
        with pytest.raises(ValueError):
            StationaryMobility(Region.from_origin(5, 5), [Location(9, 9)])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            StationaryMobility(Region.from_origin(5, 5), [])


class TestNokiaSynthesizer:
    def test_default_dimensions_match_paper(self):
        assert PAPER_RNC_REGION.width == 237.0
        assert PAPER_RNC_REGION.height == 300.0
        assert PAPER_RNC_WORKING_REGION.width == 100.0

    def test_population_and_containment(self):
        model = NokiaCampaignSynthesizer(
            np.random.default_rng(0), n_sensors=100, target_presence=20
        )
        assert model.n_sensors == 100
        trace = model.synthesize(5, warmup=2)
        assert trace.n_slots == 5
        for frame in trace.frames:
            assert all(PAPER_RNC_REGION.contains(p) for p in frame)

    def test_anchor_bias_affects_presence(self):
        low = NokiaCampaignSynthesizer(
            np.random.default_rng(1), n_sensors=200, anchor_in_probability=0.0
        ).synthesize(10, warmup=10)
        high = NokiaCampaignSynthesizer(
            np.random.default_rng(1), n_sensors=200, anchor_in_probability=0.9
        ).synthesize(10, warmup=10)
        assert high.mean_presence(PAPER_RNC_WORKING_REGION) > low.mean_presence(
            PAPER_RNC_WORKING_REGION
        )

    def test_calibrated_presence_near_target(self):
        model = NokiaCampaignSynthesizer.calibrated(
            np.random.default_rng(7),
            n_sensors=300,
            target_presence=60.0,
            pilot_slots=30,
            iterations=3,
        )
        trace = model.synthesize(30, warmup=15)
        presence = trace.mean_presence(model.working_region)
        assert 0.6 * 60 <= presence <= 1.5 * 60

    def test_invalid_parameters(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            NokiaCampaignSynthesizer(rng, n_sensors=10, target_presence=50)
        with pytest.raises(ValueError):
            NokiaCampaignSynthesizer(rng, anchor_in_probability=1.5)
        with pytest.raises(ValueError):
            NokiaCampaignSynthesizer(rng, anchors_per_sensor=0)
