"""Whole-engine parity on the curated ``examples/specs/`` workloads.

The synthetic parity suites pin the production greedy against its
oracles on generated query streams; this one runs curated specs —
``region_storm`` (many overlapping aggregates), ``stationary_churn`` (a
near-stationary fleet where a few sensors move per slot),
``adversarial_pricing`` (steep linear energy and windowed privacy
prices) and ``trust_churn`` (tiered trust under point and event
streams) — scaled to CI size, on both kernels: the production kernel's
candidate views and the full-fleet :class:`oracles.DenseKernel`.  On
each kernel the production greedy must settle exactly what the per-row
oracle (:class:`oracles.PerRowGreedyAllocator`) settles, and the two
kernels must settle the same thing as each other.
"""

from __future__ import annotations

import dataclasses
from pathlib import Path

import pytest

from oracles import (
    DenseKernel,
    PerRowGreedyAllocator,
    compile_greedy_as,
    compile_kernel_as,
)
from repro.core.metrics import SimulationSummary
from repro.datasets import ScenarioSpec
from repro.experiments.replay import allocation_signature

SPEC_DIR = Path(__file__).resolve().parent.parent / "examples" / "specs"
SPEC_NAMES = ["region_storm", "stationary_churn", "adversarial_pricing", "trust_churn"]

#: kernel corners: the full-fleet DenseKernel oracle, the production
#: candidate-view kernel.
KERNEL_CORNERS = [True, False]
CORNER_IDS = ["dense", "grid"]


def scaled_spec(name: str) -> ScenarioSpec:
    """A CI-sized variant of a curated example spec."""
    spec = ScenarioSpec.from_json(SPEC_DIR / f"{name}.json")
    return dataclasses.replace(spec, n_sensors=160, n_slots=3)


def slot_signatures(spec: ScenarioSpec, monkeypatch, dense: bool):
    """Per-slot exact allocation signatures (selected/assignments/values/
    payments) from a fresh engine build of ``spec`` — on the
    :class:`~oracles.DenseKernel` oracle when ``dense``."""
    with monkeypatch.context() as patch:
        if dense:
            compile_kernel_as(patch, DenseKernel)
        engine = spec.build()
        summary = SimulationSummary()
        sigs = []
        for _ in range(spec.n_slots):
            engine.step(summary)
            sigs.append(allocation_signature(engine.last_result))
    return sigs


@pytest.mark.parametrize("spec_name", SPEC_NAMES)
@pytest.mark.parametrize("dense", KERNEL_CORNERS, ids=CORNER_IDS)
def test_greedy_matches_per_row_oracle(spec_name, dense, monkeypatch):
    spec = scaled_spec(spec_name)
    production = slot_signatures(spec, monkeypatch, dense)
    with monkeypatch.context() as patch:
        compile_greedy_as(patch, PerRowGreedyAllocator)
        oracle = slot_signatures(spec, monkeypatch, dense)
    assert all(sig is not None for sig in production)
    assert production == oracle  # exact: selected, assignments, values, payments


@pytest.mark.parametrize("spec_name", SPEC_NAMES)
def test_knob_corners_settle_identically(spec_name, monkeypatch):
    base = scaled_spec(spec_name)
    runs = [slot_signatures(base, monkeypatch, dense) for dense in KERNEL_CORNERS]
    assert all(sig is not None for sig in runs[0])
    assert all(run == runs[0] for run in runs[1:])
