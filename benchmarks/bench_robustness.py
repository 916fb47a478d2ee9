"""Seed-robustness of the headline result (Figure 2's ordering).

A reproduced ordering should not hinge on one lucky seed;
this bench replicates Figure 2 over several seeds and requires the
Optimal >= LocalSearch >= Baseline ordering to hold in every replicate.
"""

from __future__ import annotations

from conftest import run_once
from repro.experiments import fig2, ordering_robustness, replicate

SEEDS = (101, 202, 303)


def sweep(scale):
    return replicate(fig2, scale, seeds=SEEDS)


def test_fig2_ordering_seed_robustness(benchmark, scale):
    replicated = run_once(benchmark, sweep, scale)
    print()
    print(replicated.format("avg_utility"))
    assert ordering_robustness(replicated, "Optimal", "Baseline", "avg_utility") == 1.0
    assert (
        ordering_robustness(replicated, "LocalSearch", "Baseline", "avg_utility") == 1.0
    )
    assert (
        ordering_robustness(
            replicated, "Optimal", "LocalSearch", "avg_utility", slack=1e-6
        )
        == 1.0
    )
