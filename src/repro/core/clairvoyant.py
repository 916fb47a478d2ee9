"""Clairvoyant reference for the long-horizon problem (eq. 1).

The paper formulates the ideal objective — choose sensor allocations over
the *whole* period ``T`` knowing every future query, location and price —
and immediately argues it cannot be solved in practice (queries arrive
online, mobility is uncontrolled, prices change), motivating the myopic
per-slot objective (eq. 2) everything else in the library optimizes.

For *tiny* instances the ideal is still computable, and that makes it a
valuable reference: the gap between the myopic schedule and the clairvoyant
one measures what the paper's simplification costs.  Two couplings make
eq. 1 differ from a sequence of independent slots, and both are modelled
here:

* **lifetime**: a sensor used now cannot be used after its reading budget
  is exhausted;
* **privacy-history pricing**: a report at slot ``t`` raises the sensor's
  eq. 14 privacy loss (and hence its price) in the following window.

The solver enumerates, slot by slot, every subset of per-slot winners via
depth-first search over sensor-usage states — exponential, guarded by an
explicit size limit, and meant for tests and the myopic-gap ablation bench.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..queries import PointQuery
from ..sensors import Sensor, SensorSnapshot
from ..spatial import Location
from .point_problem import PointProblem

__all__ = ["ClairvoyantPlan", "solve_clairvoyant", "simulate_myopic_gap"]


@dataclass(frozen=True)
class ClairvoyantPlan:
    """Optimal multi-slot schedule for a frozen tiny instance."""

    total_utility: float
    per_slot_selected: tuple[tuple[int, ...], ...]  # sensor ids per slot


@dataclass
class _World:
    """Frozen multi-slot instance: everything eq. 1 assumes is known."""

    queries_per_slot: list[list[PointQuery]]
    positions_per_slot: list[list[Location]]
    sensors: list[Sensor]

    @property
    def n_slots(self) -> int:
        return len(self.queries_per_slot)


def _snapshots_for(
    world: _World, t: int, readings_used: tuple[int, ...], histories: tuple[tuple[int, ...], ...]
) -> list[SensorSnapshot]:
    snapshots = []
    for i, sensor in enumerate(world.sensors):
        if readings_used[i] >= sensor.lifetime:
            continue
        energy = max(0.0, 1.0 - readings_used[i] / sensor.lifetime)
        cost = sensor.energy_model(energy) + sensor.privacy_model(histories[i], t)
        snapshots.append(
            SensorSnapshot(
                sensor_id=i,
                location=world.positions_per_slot[t][i],
                cost=cost,
                inaccuracy=sensor.inaccuracy,
                trust=sensor.trust,
            )
        )
    return snapshots


def _slot_candidates(queries: list[PointQuery], snapshots: list[SensorSnapshot]):
    """All (selected-subset, utility) pairs worth considering in one slot."""
    if not queries or not snapshots:
        yield (), 0.0
        return
    problem = PointProblem.build(queries, snapshots)
    n = problem.n_sensors
    import itertools

    for size in range(0, n + 1):
        for combo in itertools.combinations(range(n), size):
            mask = np.zeros(n, dtype=bool)
            mask[list(combo)] = True
            utility = problem.utility(mask) if size else 0.0
            sensor_ids = tuple(problem.sensors[c].sensor_id for c in combo)
            yield sensor_ids, float(utility)


def solve_clairvoyant(
    queries_per_slot: Sequence[Sequence[PointQuery]],
    positions_per_slot: Sequence[Sequence[Location]],
    sensors: Sequence[Sensor],
    max_sensors: int = 6,
    max_slots: int = 5,
) -> ClairvoyantPlan:
    """Exact eq. 1 optimum by exhaustive search over per-slot selections.

    Raises:
        ValueError: when the instance exceeds the tractability guard.
    """
    if len(sensors) > max_sensors:
        raise ValueError(f"clairvoyant search limited to {max_sensors} sensors")
    if len(queries_per_slot) > max_slots:
        raise ValueError(f"clairvoyant search limited to {max_slots} slots")
    if len(queries_per_slot) != len(positions_per_slot):
        raise ValueError("queries and positions must cover the same slots")
    world = _World(
        [list(q) for q in queries_per_slot],
        [list(p) for p in positions_per_slot],
        list(sensors),
    )

    best_utility = -np.inf
    best_plan: tuple[tuple[int, ...], ...] = ()

    def recurse(
        t: int,
        readings_used: tuple[int, ...],
        histories: tuple[tuple[int, ...], ...],
        acc_utility: float,
        chosen: tuple[tuple[int, ...], ...],
    ) -> None:
        nonlocal best_utility, best_plan
        if t == world.n_slots:
            if acc_utility > best_utility:
                best_utility, best_plan = acc_utility, chosen
            return
        snapshots = _snapshots_for(world, t, readings_used, histories)
        for selected, slot_utility in _slot_candidates(world.queries_per_slot[t], snapshots):
            new_used = list(readings_used)
            new_hist = [list(h) for h in histories]
            for sid in selected:
                new_used[sid] += 1
                new_hist[sid].append(t)
            recurse(
                t + 1,
                tuple(new_used),
                tuple(tuple(h) for h in new_hist),
                acc_utility + slot_utility,
                chosen + (selected,),
            )

    recurse(
        0,
        tuple(0 for _ in sensors),
        tuple(() for _ in sensors),
        0.0,
        (),
    )
    return ClairvoyantPlan(float(best_utility), best_plan)


def simulate_myopic_gap(
    queries_per_slot: Sequence[Sequence[PointQuery]],
    positions_per_slot: Sequence[Sequence[Location]],
    sensors: Sequence[Sensor],
    myopic_allocator,
) -> tuple[float, float]:
    """Run the myopic policy on the frozen world; return (myopic, optimal).

    The myopic side replays the exact slot protocol: announce at current
    history/energy, allocate with ``myopic_allocator``, book measurements.
    """
    import copy

    plan = solve_clairvoyant(queries_per_slot, positions_per_slot, sensors)
    world_sensors = [copy.deepcopy(s) for s in sensors]
    world = _World(
        [list(q) for q in queries_per_slot],
        [list(p) for p in positions_per_slot],
        world_sensors,
    )
    myopic_total = 0.0
    for t in range(world.n_slots):
        used = tuple(s.readings_taken for s in world_sensors)
        hist = tuple(tuple(s.report_history) for s in world_sensors)
        snapshots = _snapshots_for(world, t, used, hist)
        result = myopic_allocator.allocate(world.queries_per_slot[t], snapshots)
        myopic_total += result.total_utility
        for sid in result.selected:
            world_sensors[sid].record_measurement(t)
    return myopic_total, plan.total_utility
