"""The curated ``examples/specs/`` scenario files: loadable, round-trippable,
runnable, and sweepable via ``compare_scenarios``."""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from helpers import engine_kernels
from repro.datasets import ScenarioSpec
from repro.experiments import compare_scenarios

SPEC_DIR = Path(__file__).resolve().parent.parent / "examples" / "specs"
SPEC_FILES = sorted(SPEC_DIR.glob("*.json"))
EXPECTED = {
    "adversarial_pricing.json",
    "dense_urban.json",
    "metro_burst.json",
    "metro_scale.json",
    "region_heavy.json",
    "region_storm.json",
    "rush_hour_burst.json",
    "sparse_rural.json",
    "stationary_churn.json",
    "trust_churn.json",
}


def test_curated_set_is_complete():
    assert {p.name for p in SPEC_FILES} >= EXPECTED


@pytest.mark.parametrize("path", SPEC_FILES, ids=lambda p: p.stem)
def test_spec_loads_and_round_trips(path):
    spec = ScenarioSpec.from_json(path)
    assert spec.name
    # to_dict -> from_dict is the CLI/worker wire format.
    assert ScenarioSpec.from_dict(spec.to_dict()) == spec
    # The file itself stays minimal JSON (no trailing spec fields we drop).
    payload = json.loads(path.read_text())
    assert ScenarioSpec.from_dict(payload) == spec


@pytest.mark.parametrize(
    "name", ["trust_churn.json", "adversarial_pricing.json", "sparse_rural.json"]
)
def test_cheap_specs_run(name):
    spec = ScenarioSpec.from_json(SPEC_DIR / name)
    summary = spec.run(2)
    assert summary.n_slots == 2


def test_metro_scale_spec_declares_the_batch_sharded_path(monkeypatch):
    """The metro spec wires 10^5 sensors through the grid-sharded slot
    kernel; a scaled-down build of the same spec must drive it from the
    fleet's AnnouncementBatch (the loop-free slot path it showcases)."""
    import dataclasses

    from repro.core import GreedyAllocator, ValuationKernel
    from repro.sensors import AnnouncementBatch

    spec = ScenarioSpec.from_json(SPEC_DIR / "metro_scale.json")
    assert spec.n_sensors >= 100_000
    small = dataclasses.replace(spec, n_sensors=1500, n_slots=2)
    kernels = engine_kernels(monkeypatch)
    engine = small.build()
    assert isinstance(engine.fleet.announcements(), AnnouncementBatch)
    summary = engine.run(2)
    assert summary.n_slots == 2
    assert len(kernels) == 2
    kernel = kernels[-1]
    assert isinstance(kernel, ValuationKernel)
    assert isinstance(kernel.sensors, AnnouncementBatch)


def test_region_heavy_spec_exercises_the_mask_path(monkeypatch):
    """The region-heavy spec declares 20k sensors under many large
    aggregate queries; a scaled-down build must route those queries
    through the kernel's candidate views and the batch-relevance masks
    (no per-sensor scans), and run."""
    import dataclasses

    from repro.core import ValuationKernel
    from repro.queries import SpatialAggregateQuery
    from repro.sensors import AnnouncementBatch

    spec = ScenarioSpec.from_json(SPEC_DIR / "region_heavy.json")
    assert spec.n_sensors >= 20_000
    assert any(s.kind == "aggregate" for s in spec.streams)
    small = dataclasses.replace(spec, n_sensors=1500, n_slots=2)
    kernels = engine_kernels(monkeypatch)
    engine = small.build()
    summary = engine.run(2)
    assert summary.n_slots == 2
    assert summary.total_queries > 0
    assert len(kernels) == 2
    kernel = kernels[-1]
    assert isinstance(kernel, ValuationKernel)
    assert isinstance(kernel.sensors, AnnouncementBatch)
    # The kernel resolved aggregate candidate views (the memoized
    # per-cell-range gathers behind the mask path).
    probe = SpatialAggregateQuery(
        spec_region(small), budget=10.0, sensing_range=5.0, coverage_radius=2.5
    )
    view = kernel.candidate_view(probe)
    assert len(view) == 4


def test_region_storm_spec_exercises_the_fused_pipeline(monkeypatch):
    """The region-storm spec piles 128 overlapping aggregate queries on
    20k sensors; a scaled-down build must run the fused block pipeline —
    one coverage block, and one world raster, per slot — and run."""
    import dataclasses

    from repro.core import GreedyAllocator, ValuationKernel
    from repro.sensors import AnnouncementBatch
    from repro.spatial import WorldRaster

    spec = ScenarioSpec.from_json(SPEC_DIR / "region_storm.json")
    assert spec.n_sensors >= 20_000
    assert any(s.kind == "aggregate" for s in spec.streams)
    small = dataclasses.replace(spec, n_sensors=1500, n_slots=2)
    kernels = engine_kernels(monkeypatch)
    rasters = []
    init = WorldRaster.__init__

    def counting_init(self, xy):
        rasters.append(len(xy))
        init(self, xy)

    monkeypatch.setattr(WorldRaster, "__init__", counting_init)
    engine = small.build()
    assert type(engine.allocation.allocator) is GreedyAllocator
    summary = engine.run(2)
    assert summary.n_slots == 2
    assert summary.total_queries > 0
    assert len(kernels) == 2
    kernel = kernels[-1]
    assert isinstance(kernel, ValuationKernel)
    batch = kernel.sensors
    assert isinstance(batch, AnnouncementBatch)
    # Every aggregate query of a slot indexed the covered-cell CSR rows of
    # the slot's one coverage block.
    assert len(rasters) == 2


def test_metro_burst_spec_drives_the_marketplace_service():
    """The metro-burst spec declares 10^5 sensors plus a ``service``
    block (bounded queue, per-tick admission cap, bursty arrivals); a
    scaled-down build must honour the admission config under the
    declared burst profile and keep per-slot allocations bit-identical
    to an offline SlotEngine replay of the recorded admission trace."""
    import dataclasses

    from repro.service import (
        BurstyProfile,
        LoadGenerator,
        MarketplaceService,
        replay_admission_trace,
    )

    spec = ScenarioSpec.from_json(SPEC_DIR / "metro_burst.json")
    assert spec.n_sensors >= 100_000
    assert spec.service is not None
    assert spec.service["arrivals"]["profile"] == "bursty"

    small = dataclasses.replace(spec, n_sensors=1200, n_slots=4)
    service = MarketplaceService.from_spec(small)
    assert service.config.max_queue_depth == 256
    assert service.config.max_admitted_per_tick == 96
    generator = LoadGenerator.for_service(service)
    assert isinstance(generator.profile, BurstyProfile)

    n_ticks = 4
    generator.drive(service, n_ticks)
    assert service.metrics.submitted > 0
    # Admission control: never more than the cap per tick, queue bounded.
    assert all(s.admitted <= 96 for s in service.metrics.slots)
    assert service.metrics.max_queue_depth <= 256

    flat = [q for batch in generator.schedule(n_ticks) for q in batch]
    replayed = replay_admission_trace(small, service.trace, flat)
    assert replayed == service.slot_signatures


def spec_region(spec):
    """A sub-rectangle of the built world's working region for probing."""
    from repro.datasets import build_rwm_scenario
    from repro.spatial import Region

    region = build_rwm_scenario(spec.seed, spec.n_sensors, spec.n_slots).working_region
    return Region.centered_in(region, region.width / 2, region.height / 2)


def test_compare_scenarios_sweeps_spec_files():
    import dataclasses

    storm = ScenarioSpec.from_json(SPEC_DIR / "region_storm.json")
    specs = [
        ScenarioSpec.from_json(SPEC_DIR / "trust_churn.json"),
        ScenarioSpec.from_json(SPEC_DIR / "sparse_rural.json"),
        # The fused-pipeline storm spec, shrunk to sweep size.
        dataclasses.replace(storm, n_sensors=800, n_slots=2),
    ]
    figure = compare_scenarios(specs, n_slots=2)
    assert set(figure.series) == {"trust-churn", "sparse-rural", "region-storm"}
    for series in figure.series.values():
        assert "avg_utility" in series and "satisfaction_ratio" in series


def test_stationary_churn_spec_moves_about_one_percent_per_slot():
    """The stationary-churn spec declares 20k near-stationary sensors
    (~1% relocating per slot, recorded as a replayable trace); a
    scaled-down build must announce batches whose rows, matched by sensor
    id, change by about the declared fraction from slot to slot."""
    import dataclasses

    from repro.core.metrics import SimulationSummary
    from repro.mobility import TraceMobility

    spec = ScenarioSpec.from_json(SPEC_DIR / "stationary_churn.json")
    assert spec.n_sensors >= 20_000
    assert spec.mobility == {"kind": "churn", "fraction": 0.01}
    small = dataclasses.replace(spec, n_sensors=1500, n_slots=3)
    engine = small.build()
    # The mobility override recorded the churn model into a trace.
    assert isinstance(engine.fleet.mobility, TraceMobility)

    batches = []
    announce = engine.fleet.announcements

    def keep_batch():
        batches.append(announce())
        return batches[-1]

    engine.fleet.announcements = keep_batch
    summary = SimulationSummary()
    for _ in range(3):
        engine.step(summary)
    churns = []
    for prev, batch in zip(batches, batches[1:]):
        # Fleet batches list ids ascending: a row is fresh when its sensor
        # newly announced or announced somewhere else the slot before.
        pos = np.minimum(np.searchsorted(prev.ids, batch.ids), len(prev.ids) - 1)
        kept = prev.ids[pos] == batch.ids
        moved = (prev.xy[pos] != batch.xy).any(axis=1)
        churns.append(np.count_nonzero(~kept | moved) / len(batch.ids))
    # Warm slots see ~the declared 1% churn (announced-subset sampling
    # keeps it the same order of magnitude).
    assert churns and all(0.0 < c <= 0.05 for c in churns)
