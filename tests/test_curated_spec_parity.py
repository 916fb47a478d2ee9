"""Whole-engine parity on the curated ``examples/specs/`` workloads.

The synthetic parity suites pin the production greedy against its
oracles on generated query streams; this one runs the two curated
region-heavy specs — ``region_storm`` (many overlapping aggregates) and
``stationary_churn`` (the incremental path's home regime) — scaled to CI
size, across every corner of the slot paths that remain: the production
kernel's candidate views and the full-fleet :class:`oracles.DenseKernel`,
full-rebuild and incremental slot state.  In each corner
the production greedy must settle exactly what the per-row oracle
(:class:`oracles.PerRowGreedyAllocator`) settles, and the four corners
must settle the same thing as each other.
"""

from __future__ import annotations

import dataclasses
from pathlib import Path

import pytest

from oracles import DenseKernel, PerRowGreedyAllocator, compile_greedy_as, compile_kernel_as
from repro.core.metrics import SimulationSummary
from repro.datasets import ScenarioSpec
from repro.experiments.replay import allocation_signature

SPEC_DIR = Path(__file__).resolve().parent.parent / "examples" / "specs"
SPEC_NAMES = ["region_storm", "stationary_churn"]

#: (dense oracle kernel?, incremental) corners: DenseKernel + production
#: candidate-view kernel, full-rebuild + incremental slot state.
KNOB_CORNERS = [
    (True, False),
    (True, "auto"),
    (False, False),
    (False, "auto"),
]
CORNER_IDS = ["dense-rebuild", "dense-incremental", "grid-rebuild", "grid-incremental"]


def scaled_spec(name: str, **overrides) -> ScenarioSpec:
    """A CI-sized variant of a curated example spec."""
    spec = ScenarioSpec.from_json(SPEC_DIR / f"{name}.json")
    defaults = {"n_sensors": 160, "n_slots": 3}
    return dataclasses.replace(spec, **{**defaults, **overrides})


def slot_signatures(spec: ScenarioSpec, dense: bool = False, monkeypatch=None):
    """Per-slot exact allocation signatures (selected/assignments/values/
    payments) from a fresh engine build of ``spec`` — on the
    :class:`~oracles.DenseKernel` oracle when ``dense``."""
    if dense:
        with monkeypatch.context() as patch:
            compile_kernel_as(patch, DenseKernel)
            return slot_signatures(spec)
    engine = spec.build()
    summary = SimulationSummary()
    sigs = []
    for _ in range(spec.n_slots):
        engine.step(summary)
        sigs.append(allocation_signature(engine.last_result))
    return sigs


@pytest.mark.parametrize("spec_name", SPEC_NAMES)
@pytest.mark.parametrize("dense,incremental", KNOB_CORNERS, ids=CORNER_IDS)
def test_greedy_matches_per_row_oracle(spec_name, dense, incremental, monkeypatch):
    spec = scaled_spec(spec_name, incremental=incremental)
    production = slot_signatures(spec, dense, monkeypatch)
    with monkeypatch.context() as patch:
        compile_greedy_as(patch, PerRowGreedyAllocator)
        oracle = slot_signatures(spec, dense, monkeypatch)
    assert all(sig is not None for sig in production)
    assert production == oracle  # exact: selected, assignments, values, payments


@pytest.mark.parametrize("spec_name", SPEC_NAMES)
def test_knob_corners_settle_identically(spec_name, monkeypatch):
    base = scaled_spec(spec_name)
    runs = [
        slot_signatures(
            dataclasses.replace(base, incremental=incremental), dense, monkeypatch
        )
        for dense, incremental in KNOB_CORNERS
    ]
    assert all(sig is not None for sig in runs[0])
    assert all(run == runs[0] for run in runs[1:])
