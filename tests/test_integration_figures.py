"""Integration tests: tiny-scale runs of every figure, checking the
qualitative shapes the paper reports (Section 4)."""

from __future__ import annotations

import dataclasses

import pytest

from repro.experiments import CI, fig2, fig7, fig8, fig9, fig10, trust_sweep

# A micro scale: every figure end-to-end in seconds.
MICRO = dataclasses.replace(
    CI,
    n_slots=4,
    point_queries_per_slot=40,
    rwm_sensors=50,
    rnc_sensors=120,
    rnc_presence=25.0,
    budgets=(7, 35),
    query_counts=(30, 60),
    aggregate_mean_queries=6,
    aggregate_budget_factors=(7, 35),
    monitoring_budget_factors=(15, 25),
    lm_max_live=12,
    lm_arrivals_per_slot=4,
    intel_sensors=15,
    mix_budget_factors=(15,),
)


@pytest.fixture(scope="module")
def fig2_result():
    return fig2(MICRO, seed=99)


class TestFig2Shapes:
    def test_sharing_algorithms_dominate_baseline(self, fig2_result):
        assert fig2_result.dominates("Optimal", "Baseline", "avg_utility", slack=1e-9)
        assert fig2_result.dominates("LocalSearch", "Baseline", "avg_utility", slack=1e-9)

    def test_optimal_at_least_local_search(self, fig2_result):
        assert fig2_result.dominates("Optimal", "LocalSearch", "avg_utility", slack=1e-6)

    def test_baseline_collapses_at_small_budget(self, fig2_result):
        i = fig2_result.x_values.index(7)
        assert fig2_result.metric("Baseline", "satisfaction_ratio")[i] == 0.0
        assert fig2_result.metric("Optimal", "satisfaction_ratio")[i] > 0.0

    def test_utility_grows_with_budget(self, fig2_result):
        series = fig2_result.metric("Optimal", "avg_utility")
        assert series[-1] > series[0]


class TestFig7Shapes:
    def test_greedy_dominates_baseline(self):
        result = fig7(MICRO, seed=99)
        assert result.dominates("Greedy", "Baseline", "avg_utility", slack=1e-9)


class TestFig8Shapes:
    def test_alg2_beats_baseline_on_quality(self):
        result = fig8(MICRO, seed=99)
        # At the largest budget factor the full algorithm must not lose on
        # result quality (opportunistic + catch-up sampling vs rigid
        # schedule).
        assert (
            result.metric("Alg2-O", "avg_quality")[-1]
            >= result.metric("Baseline", "avg_quality")[-1] - 1e-9
        )


class TestFig9Shapes:
    def test_alg3_beats_baseline(self):
        result = fig9(MICRO, seed=99)
        assert result.dominates("Alg3", "Baseline", "avg_utility", slack=1e-9)


class TestFig10Shapes:
    def test_alg5_beats_baseline(self):
        result = fig10(MICRO, seed=99)
        assert result.dominates("Alg5", "Baseline", "avg_utility", slack=1e-9)

    def test_lm_quality_advantage(self):
        result = fig10(MICRO, seed=99)
        assert (
            result.metric("Alg5", "quality_location_monitoring")[-1]
            >= result.metric("Baseline", "quality_location_monitoring")[-1] - 1e-9
        )


class TestTrustSweep:
    def test_more_trust_more_utility(self):
        result = trust_sweep(MICRO, seed=99)
        full = result.metric("FullTrust", "avg_utility")[0]
        mid = result.metric("Uniform[0.5,1]", "avg_utility")[0]
        low = result.metric("Uniform[0,1]", "avg_utility")[0]
        assert full >= mid >= low
