"""Local-search scheduling of point queries (Section 3.1.2).

The utility of a sensor set (eq. 12)::

    u(S') = sum_l max_{s in S'} v_l(s) - sum_{s in S'} c_s

is non-monotone submodular, so the paper applies Feige, Mirrokni and
Vondrák's deterministic Local Search [3]: start from the best singleton,
repeatedly add any element improving ``u`` by more than a ``(1 + eps/n^2)``
factor, then delete any element whose removal improves similarly, and
finally return the better of ``W`` and ``S \\ W``.  This guarantees a
``(1/3 - eps/n)``-approximation with ``O(n^3 log n)`` utility evaluations;
the randomized 2/5-approximation variant from the same paper is provided as
:class:`RandomizedLocalSearchAllocator` (mentioned but unused in the
paper's experiments).

Our implementation evaluates add/delete phases in vectorized form over the
value matrix, so each pass costs ``O(L * n)`` numpy work instead of
``O(L * n)`` Python-level utility calls.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..queries import PointQuery
from ..sensors import SensorSnapshot
from .allocation import AllocationResult
from .point_problem import PointProblem
from .valuation import ValuationKernel

__all__ = ["LocalSearchPointAllocator", "RandomizedLocalSearchAllocator"]


def _best_and_second(values: np.ndarray, member_idx: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-location best value, best member column, and second-best value
    over the member columns (clamped at zero — an unserved location
    contributes nothing, per eq. 12's implicit ``max(., 0)``)."""
    sub = values[:, member_idx]
    order = np.argsort(sub, axis=1)
    best_pos = order[:, -1]
    best = sub[np.arange(len(sub)), best_pos]
    if len(member_idx) > 1:
        second = sub[np.arange(len(sub)), order[:, -2]]
    else:
        second = np.zeros(len(sub))
    return (
        np.maximum(best, 0.0),
        member_idx[best_pos],
        np.maximum(second, 0.0),
    )


class LocalSearchPointAllocator:
    """Deterministic Feige et al. local search on eq. (12).

    Args:
        epsilon: improvement threshold parameter; a move must improve the
            utility by more than ``epsilon * |u| / n^2`` to be taken (the
            paper's ``(1 + eps/n^2)`` multiplicative test, with an absolute
            floor to guarantee termination near ``u = 0``).
    """

    name = "LocalSearch"

    def __init__(self, epsilon: float = 0.01) -> None:
        if epsilon <= 0:
            raise ValueError("epsilon must be positive")
        self.epsilon = epsilon

    # ------------------------------------------------------------------
    def allocate(
        self,
        queries: Sequence[PointQuery],
        sensors: Sequence[SensorSnapshot],
        kernel: ValuationKernel | None = None,
    ) -> AllocationResult:
        # ``kernel`` is the Allocator protocol's; the dense rows need none.
        problem = PointProblem.build(list(queries), sensors)
        if problem.n_sensors == 0 or problem.n_locations == 0:
            return AllocationResult()
        member_mask = self.search(problem)
        winners = problem.assign_winners(member_mask)
        result = problem.settle(winners)
        result.verify()
        return result

    # ------------------------------------------------------------------
    def search(self, problem: PointProblem) -> np.ndarray:
        """Run the local search; returns the selected-member mask."""
        values, costs = problem.values, problem.costs
        n = problem.n_sensors

        # Start with the single sensor maximizing u({v}).
        singleton_utilities = np.maximum(values, 0.0).sum(axis=0) - costs
        best_single = int(singleton_utilities.argmax())
        if singleton_utilities[best_single] <= 0.0:
            return np.zeros(n, dtype=bool)

        member = np.zeros(n, dtype=bool)
        member[best_single] = True
        utility = float(singleton_utilities[best_single])

        max_moves = 4 * n * n  # safety valve; the threshold bounds moves anyway
        for _ in range(max_moves):
            threshold = self.epsilon * max(abs(utility), 1.0) / (n * n)
            member_idx = np.flatnonzero(member)
            best, _, second = _best_and_second(values, member_idx)

            # Add phase: gain(a) = sum_l max(v_la - best_l, 0) - c_a.
            gains = np.maximum(values - best[:, None], 0.0).sum(axis=0) - costs
            gains[member] = -np.inf
            add_candidate = int(gains.argmax())
            if gains[add_candidate] > threshold:
                member[add_candidate] = True
                utility += float(gains[add_candidate])
                continue

            # Delete phase: removing w loses, at each location it wins,
            # the drop to the second-best member, but refunds its cost.
            deltas = np.full(n, -np.inf)
            for w in member_idx:
                wins = (values[:, w] >= best) & (best > 0.0) & (values[:, w] > 0.0)
                loss = (best[wins] - second[wins]).sum()
                deltas[w] = costs[w] - loss
            delete_candidate = int(deltas.argmax())
            if deltas[delete_candidate] > threshold and member.sum() > 1:
                member[delete_candidate] = False
                utility += float(deltas[delete_candidate])
                continue
            break

        # Feige et al.: return the better of W and S \ W.
        complement = ~member
        if problem.utility(complement) > problem.utility(member):
            member = complement
        # Post-process: members that win no location only add cost.
        winners = problem.assign_winners(member)
        useful = set(winners.values())
        for col in np.flatnonzero(member):
            if int(col) not in useful:
                member[col] = False
        return member


class RandomizedLocalSearchAllocator(LocalSearchPointAllocator):
    """The randomized 2/5-approximation variant of [3].

    Runs the deterministic search on a random perturbation of the value
    matrix (smoothed local search), several times, and keeps the best
    outcome by true utility.  Provided for completeness; the paper's
    experiments use only the deterministic variant.
    """

    name = "RandomizedLocalSearch"

    def __init__(
        self,
        epsilon: float = 0.01,
        n_restarts: int = 3,
        noise_scale: float = 0.05,
        seed: int = 0,
    ) -> None:
        super().__init__(epsilon)
        if n_restarts < 1:
            raise ValueError("n_restarts must be >= 1")
        if noise_scale < 0:
            raise ValueError("noise_scale must be non-negative")
        self.n_restarts = n_restarts
        self.noise_scale = noise_scale
        self.seed = seed

    def search(self, problem: PointProblem) -> np.ndarray:
        rng = np.random.default_rng(self.seed)
        best_mask = super().search(problem)
        best_utility = problem.utility(best_mask)
        original = problem.values
        for _ in range(self.n_restarts):
            noise = 1.0 + self.noise_scale * rng.standard_normal(original.shape)
            problem.values = original * np.clip(noise, 0.5, 1.5)
            try:
                mask = super().search(problem)
            finally:
                problem.values = original
            utility = problem.utility(mask)
            if utility > best_utility:
                best_mask, best_utility = mask, utility
        return best_mask
