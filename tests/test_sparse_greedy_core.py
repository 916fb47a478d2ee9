"""The paired-CSR greedy core: per-column net re-sums, work counters, and
the oracles it is checked against.

* :func:`repro.core.greedy.resum_nets` re-sums each column's net over its
  own entries in query order; it must match a sequential Python ``sum``
  (and the dense oracle's full-height ``cumsum``) bit for bit on
  adversarial magnitudes, zero gains and whole zero rows.
* ``GreedyAllocator.last_counters`` are deterministic: pinned on one
  seeded point + aggregate slot, and derived independently from the
  scalar ``Query.relevant`` and the allocation itself — which shows that
  every gathered pair is a relevant one.
* The oracle guard: a method an oracle class defines must exist on the
  class it subclasses (or be one the oracle introduces), so a production
  rename cannot silently turn an oracle into production; and the per-row
  oracle's refresh hook really runs in a parity case.
"""

from __future__ import annotations

import types

import numpy as np
import pytest

import oracles
from helpers import make_snapshot
from oracles import DenseGreedyAllocator, PerRowGreedyAllocator
from repro.core import GreedyAllocator, ValuationKernel
from repro.core.greedy import COUNTERS, gain_setup, resum_nets
from repro.queries import AggregateQueryWorkload, PointQuery
from repro.sensors.state import announcement_batch
from repro.spatial import Location, Region

SIDE = 30.0


def random_csr(rng, n_queries=37, n=53):
    """Adversarial entry gains over a random relevance pattern: magnitudes
    from 1e-12 to 1e12, 60% zero gains, whole zero rows, and columns with
    no entries at all."""
    relevant = rng.random((n_queries, n)) < 0.7
    relevant[:, rng.choice(n, size=5, replace=False)] = False  # empty columns
    rows, cols = np.nonzero(relevant)
    gains = rng.uniform(0.0, 1.0, size=rows.size)
    gains *= 10.0 ** rng.integers(-12, 12, size=rows.size)
    gains[rng.random(rows.size) < 0.6] = 0.0
    gains[np.isin(rows, rng.choice(n_queries, size=10))] = 0.0  # whole zero rows
    col_ptr = np.zeros(n + 1, dtype=np.intp)
    np.cumsum(np.bincount(cols, minlength=n), out=col_ptr[1:])
    col_entries = np.argsort(cols, kind="stable")
    return rows, cols, gains, col_ptr, col_entries


class TestResumNets:
    @pytest.mark.parametrize("seed", range(8))
    def test_matches_sequential_sum_bitwise(self, seed):
        rng = np.random.default_rng(8000 + seed)
        n_queries, n = 37, 53
        rows, cols, gains, col_ptr, col_entries = random_csr(rng, n_queries, n)
        costs = rng.uniform(0.5, 5.0, size=n)
        columns = np.sort(rng.choice(n, size=30, replace=False))
        net = np.full(n, np.nan)
        summed = resum_nets(gains, col_ptr, col_entries, costs, columns, net)
        assert summed == int(np.isin(cols, columns).sum())
        for j in columns:
            total = 0.0
            for e in range(len(cols)):  # row-major: query order per column
                if cols[e] == j and gains[e] != 0.0:
                    total += gains[e]
            assert net[j] == total - costs[j]
        untouched = np.setdiff1d(np.arange(n), columns)
        assert np.isnan(net[untouched]).all()
        # The dense loop's full-height cumsum over the same gains agrees.
        gain_matrix = np.zeros((n_queries, n))
        gain_matrix[rows, cols] = gains
        dense = np.full(n, np.nan)
        DenseGreedyAllocator._recompute_net(gain_matrix, costs, columns, dense)
        assert np.array_equal(dense[columns], net[columns])

    def test_all_zero_columns(self):
        rows = np.array([0, 0, 1, 3], dtype=np.intp)
        cols = np.array([1, 4, 1, 2], dtype=np.intp)
        gains = np.zeros(4)
        col_ptr = np.zeros(7, dtype=np.intp)
        np.cumsum(np.bincount(cols, minlength=6), out=col_ptr[1:])
        col_entries = np.argsort(cols, kind="stable")
        costs = np.arange(6, dtype=float) + 1.0
        net = np.full(6, np.nan)
        resum_nets(gains, col_ptr, col_entries, costs, np.arange(6), net)
        assert np.array_equal(net, -costs)
        assert not np.signbit(net + costs).any()  # +0.0 sums, never -0.0

    @pytest.mark.parametrize("seed", range(3))
    def test_column_view_lists_each_columns_queries_in_order(self, seed):
        rng = np.random.default_rng(8100 + seed)
        queries, sensors = point_aggregate_slot(rng)
        batch = announcement_batch(sensors)
        setup = gain_setup(queries, batch, ValuationKernel.from_sensors(batch))
        col_ptr, col_entries = setup.column_view
        dense = oracles.dense_relevance(setup)
        for j in range(setup.roster.n_sensors):
            entries = col_entries[col_ptr[j] : col_ptr[j + 1]]
            assert np.array_equal(setup.entry_cols[entries], np.full(entries.size, j))
            assert np.array_equal(setup.entry_rows[entries], np.flatnonzero(dense[:, j]))
        for i in range(len(queries)):
            assert np.array_equal(setup.row_columns(i), np.flatnonzero(dense[i]))


# ----------------------------------------------------------------------
# deterministic work counters
# ----------------------------------------------------------------------
def point_aggregate_slot(rng, n=40):
    region = Region.from_origin(SIDE, SIDE)
    sensors = [
        make_snapshot(
            i,
            x=float(rng.uniform(0, SIDE)),
            y=float(rng.uniform(0, SIDE)),
            cost=float(rng.uniform(1, 6)),
            inaccuracy=float(rng.uniform(0, 0.3)),
            trust=float(rng.uniform(0.5, 1.0)),
        )
        for i in range(n)
    ]
    points = [
        PointQuery(
            Location(float(rng.uniform(0, SIDE)), float(rng.uniform(0, SIDE))),
            budget=12.0,
            dmax=6.0,
        )
        for _ in range(6)
    ]
    aggregates = AggregateQueryWorkload(
        region, budget_factor=6.0, mean_queries=3, count_spread=0,
        sensing_range=6.0, coverage_radius=3.0, min_side=8.0, max_side=14.0,
    ).generate(0, rng)
    return points + aggregates, sensors


def derived_counters(queries, sensors, result):
    """The counters, re-derived from the scalar ``Query.relevant`` and the
    allocation's pick order: gathering exactly the refreshed rows' relevant
    pairs, evaluating the live ones, re-summing each dirty column over its
    relevant queries."""
    relevant = {
        q.query_id: {s.sensor_id for s in sensors if q.relevant(s)} for q in queries
    }
    by_sensor: dict[int, int] = {}
    for qid, sids in relevant.items():
        for sid in sids:
            by_sensor[sid] = by_sensor.get(sid, 0) + 1
    counts = dict.fromkeys(COUNTERS, 0)
    for q in queries:
        if type(q) is not PointQuery:
            counts["pairs_gathered"] += len(relevant[q.query_id])
            counts["pairs_evaluated"] += len(relevant[q.query_id])
    counts["net_entries_resummed"] = sum(by_sensor.values())
    picked: set[int] = set()
    for sid in result.selected:  # insertion order is round order
        counts["rounds"] += 1
        picked.add(sid)
        if len(picked) == len(by_sensor):
            break  # nothing left alive: no refresh after the last pick
        grown = [q for q, sids in result.assignments.items() if sid in sids]
        dirty: set[int] = set()
        for qid in grown:
            counts["pairs_gathered"] += len(relevant[qid])
            live = relevant[qid] - picked
            counts["pairs_evaluated"] += len(live)
            dirty |= live
        counts["net_entries_resummed"] += sum(by_sensor[s] for s in dirty)
    return counts


class TestWorkCounters:
    # One seeded point + aggregate slot, pinned exactly.
    PINNED = {
        "rounds": 16,
        "pairs_gathered": 666,
        "pairs_evaluated": 503,
        "net_entries_resummed": 798,
    }

    def _slot(self):
        return point_aggregate_slot(np.random.default_rng(4242))

    def test_pinned_values(self):
        queries, sensors = self._slot()
        allocator = GreedyAllocator()
        allocator.allocate(queries, sensors)
        assert allocator.last_counters == self.PINNED

    @pytest.mark.parametrize("seed", range(6))
    def test_every_gathered_pair_is_relevant(self, seed):
        queries, sensors = point_aggregate_slot(np.random.default_rng(4300 + seed))
        allocator = GreedyAllocator()
        result = allocator.allocate(queries, sensors)
        assert result.selected, "slot must select something to exercise refreshes"
        assert allocator.last_counters == derived_counters(queries, sensors, result)

    def test_reset_on_each_allocate(self):
        queries, sensors = self._slot()
        allocator = GreedyAllocator()
        allocator.allocate(queries, sensors)
        assert allocator.last_counters["rounds"] > 0
        allocator.allocate([], sensors)
        assert allocator.last_counters == dict.fromkeys(COUNTERS, 0)


# ----------------------------------------------------------------------
# oracle guard
# ----------------------------------------------------------------------
#: Methods an oracle adds on top of the class it subclasses.  Everything
#: else it defines overrides a method of its base.
INTRODUCED = {
    "ScalarGreedyAllocator": {"_allocate_scalar"},
    "DenseGreedyAllocator": {"_refresh_rows", "_recompute_net"},
    "OracleMixAllocator": {"allocate_slot"},
    "OracleBaselineMixAllocator": {"allocate_slot"},
}


def oracle_subclasses():
    """The oracle classes that subclass a production (``repro``) class."""
    found = []
    for cls in vars(oracles).values():
        if not isinstance(cls, type) or cls.__module__ != oracles.__name__:
            continue
        if any(base.__module__.startswith("repro.") for base in cls.__mro__):
            found.append(cls)
    return found


class TestOracleGuard:
    def test_guard_covers_the_greedy_oracles(self):
        names = {cls.__name__ for cls in oracle_subclasses()}
        assert set(INTRODUCED) <= names
        assert {"PerRowGreedyAllocator", "DenseKernel"} <= names

    @pytest.mark.parametrize("cls", oracle_subclasses(), ids=lambda c: c.__name__)
    def test_every_defined_method_exists_on_the_base(self, cls):
        (base,) = cls.__bases__
        introduced = INTRODUCED.get(cls.__name__, set())
        for name, raw in vars(cls).items():
            if name.startswith("__") or not isinstance(
                raw, (types.FunctionType, staticmethod, classmethod)
            ):
                continue
            if name in introduced:
                assert not hasattr(base, name), (
                    f"{cls.__name__}.{name} overrides {base.__name__}.{name}; "
                    "drop it from INTRODUCED"
                )
            else:
                assert hasattr(base, name), (
                    f"{cls.__name__}.{name} overrides nothing on "
                    f"{base.__name__}: the oracle no longer runs its own path"
                )

    def test_per_row_hook_runs_in_a_parity_case(self, monkeypatch):
        calls = {"per_row": 0, "dense_net": 0}
        per_row = PerRowGreedyAllocator._refresh_rows
        dense_net = DenseGreedyAllocator._recompute_net

        def spy_rows(self, *args):
            calls["per_row"] += 1
            return per_row(self, *args)

        def spy_net(*args):
            calls["dense_net"] += 1
            return dense_net(*args)

        monkeypatch.setattr(PerRowGreedyAllocator, "_refresh_rows", spy_rows)
        monkeypatch.setattr(
            DenseGreedyAllocator, "_recompute_net", staticmethod(spy_net)
        )
        queries, sensors = point_aggregate_slot(np.random.default_rng(4242))
        oracle = PerRowGreedyAllocator().allocate(queries, sensors)
        production = GreedyAllocator().allocate(queries, sensors)
        assert calls["per_row"] > 1 and calls["dense_net"] > 1
        assert production.assignments == oracle.assignments
        assert production.values == oracle.values
        assert production.payments == oracle.payments
