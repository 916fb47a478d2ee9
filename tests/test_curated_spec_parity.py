"""Whole-engine parity on the curated ``examples/specs/`` workloads.

The synthetic parity suites pin the production greedy against its
oracles on generated query streams; this one runs the two curated
region-heavy specs — ``region_storm`` (many overlapping aggregates) and
``stationary_churn`` (the patched slot state's home regime) — scaled to
CI size, across every corner of the slot paths that remain: the
production kernel's candidate views and the full-fleet
:class:`oracles.DenseKernel`, slot state rebuilt every slot
(:func:`oracles.rebuild_slot_state`) and patched every warm slot
(:func:`oracles.patch_slot_state`).  In each corner
the production greedy must settle exactly what the per-row oracle
(:class:`oracles.PerRowGreedyAllocator`) settles, and the four corners
must settle the same thing as each other.
"""

from __future__ import annotations

import dataclasses
from pathlib import Path

import pytest

from oracles import (
    SLOT_STATES,
    DenseKernel,
    PerRowGreedyAllocator,
    compile_greedy_as,
    compile_kernel_as,
)
from repro.core.metrics import SimulationSummary
from repro.datasets import ScenarioSpec
from repro.experiments.replay import allocation_signature

SPEC_DIR = Path(__file__).resolve().parent.parent / "examples" / "specs"
SPEC_NAMES = ["region_storm", "stationary_churn"]

#: (dense oracle kernel?, slot state) corners: DenseKernel + production
#: candidate-view kernel, full-rebuild + always-patch slot state.
KNOB_CORNERS = [
    (True, "rebuild"),
    (True, "patch"),
    (False, "rebuild"),
    (False, "patch"),
]
CORNER_IDS = ["dense-rebuild", "dense-incremental", "grid-rebuild", "grid-incremental"]


def scaled_spec(name: str) -> ScenarioSpec:
    """A CI-sized variant of a curated example spec."""
    spec = ScenarioSpec.from_json(SPEC_DIR / f"{name}.json")
    return dataclasses.replace(spec, n_sensors=160, n_slots=3)


def slot_signatures(spec: ScenarioSpec, monkeypatch, dense: bool, slot_state: str):
    """Per-slot exact allocation signatures (selected/assignments/values/
    payments) from a fresh engine build of ``spec`` — on the
    :class:`~oracles.DenseKernel` oracle when ``dense``, keeping slot state
    the ``slot_state`` way (a :data:`oracles.SLOT_STATES` name)."""
    with monkeypatch.context() as patch:
        if dense:
            compile_kernel_as(patch, DenseKernel)
        SLOT_STATES[slot_state](patch)
        engine = spec.build()
        summary = SimulationSummary()
        sigs = []
        for _ in range(spec.n_slots):
            engine.step(summary)
            sigs.append(allocation_signature(engine.last_result))
    return sigs


@pytest.mark.parametrize("spec_name", SPEC_NAMES)
@pytest.mark.parametrize("dense,slot_state", KNOB_CORNERS, ids=CORNER_IDS)
def test_greedy_matches_per_row_oracle(spec_name, dense, slot_state, monkeypatch):
    spec = scaled_spec(spec_name)
    production = slot_signatures(spec, monkeypatch, dense, slot_state)
    with monkeypatch.context() as patch:
        compile_greedy_as(patch, PerRowGreedyAllocator)
        oracle = slot_signatures(spec, monkeypatch, dense, slot_state)
    assert all(sig is not None for sig in production)
    assert production == oracle  # exact: selected, assignments, values, payments


@pytest.mark.parametrize("spec_name", SPEC_NAMES)
def test_knob_corners_settle_identically(spec_name, monkeypatch):
    base = scaled_spec(spec_name)
    runs = [
        slot_signatures(base, monkeypatch, dense, slot_state)
        for dense, slot_state in KNOB_CORNERS
    ]
    assert all(sig is not None for sig in runs[0])
    assert all(run == runs[0] for run in runs[1:])
