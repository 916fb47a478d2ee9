"""Optimal scheduling of single-sensor point queries (Section 3.1.1, eq. 9).

The per-slot problem is expressed as a Binary Integer Linear Program::

    max  sum_{l, i} v'_l(s_i) Y_l^i  -  sum_i c_i X_i
    s.t. Y_l^i <= X_i          for all i, l
         sum_i Y_l^i <= 1      for all l

We solve it with HiGHS through :func:`scipy.optimize.milp` using a *sparse*
formulation: a variable ``Y_l^i`` is instantiated only when ``v_l(s_i) > 0``
(the paper's eq. 10 assigns value −1 to all other pairs purely to forbid
them — omitting the variable is equivalent and shrinks paper-scale
instances from ~60k to a few thousand binaries).

An exhaustive reference solver over sensor subsets is included for
validating optimality on small instances (used heavily by the test suite).
"""

from __future__ import annotations

import itertools
from typing import Sequence

import numpy as np
from scipy import sparse
from scipy.optimize import Bounds, LinearConstraint, milp

from ..queries import PointQuery
from ..sensors import SensorSnapshot
from .allocation import AllocationResult
from .errors import SolverError
from .point_problem import PointProblem
from .valuation import ValuationKernel

__all__ = ["OptimalPointAllocator", "exhaustive_point_search"]


class OptimalPointAllocator:
    """Exact BILP scheduling of single-sensor point queries.

    Args:
        time_limit: optional HiGHS wall-clock limit in seconds; on timeout
            the incumbent is rejected and :class:`SolverError` raised (the
            experiments never hit this at paper scale).
        mip_rel_gap: relative optimality gap tolerance (0 = prove optimal).
        sparse: prune valueless ``Y_l^i`` variables (default).  ``False``
            instantiates every pair with eq. 10's literal −1 objective
            entry — same optimum, far larger model; kept for the ablation
            benchmark and as an executable proof of the equivalence.
    """

    name = "Optimal"

    def __init__(
        self,
        time_limit: float | None = None,
        mip_rel_gap: float = 0.0,
        sparse: bool = True,
    ) -> None:
        self.time_limit = time_limit
        self.mip_rel_gap = mip_rel_gap
        self.sparse = sparse

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

        if self.sparse:
            rows, cols = np.nonzero(problem.values > 0.0)
            if len(rows) == 0:
                return AllocationResult()
            pair_values = problem.values[rows, cols]
        else:
            # Dense eq. 10 formulation: v'_l(s_i) = -1 for valueless pairs.
            if not (problem.values > 0.0).any():
                return AllocationResult()
            rows, cols = np.indices(problem.values.shape)
            rows, cols = rows.ravel(), cols.ravel()
            pair_values = np.where(
                problem.values.ravel() > 0.0, problem.values.ravel(), -1.0
            )

        used_sensors = np.unique(cols)
        sensor_var = {int(col): k for k, col in enumerate(used_sensors)}
        n_x = len(used_sensors)
        n_y = len(rows)
        n_vars = n_x + n_y

        # Objective (milp minimizes): costs on X, negated values on Y.
        objective = np.concatenate(
            [problem.costs[used_sensors], -pair_values]
        )

        # Y_k - X_{i(k)} <= 0
        coupling = sparse.lil_matrix((n_y, n_vars))
        for k, col in enumerate(cols):
            coupling[k, n_x + k] = 1.0
            coupling[k, sensor_var[int(col)]] = -1.0

        # sum_{k in location l} Y_k <= 1
        location_rows: dict[int, list[int]] = {}
        for k, row in enumerate(rows):
            location_rows.setdefault(int(row), []).append(k)
        capacity = sparse.lil_matrix((len(location_rows), n_vars))
        for c_idx, (_, ks) in enumerate(sorted(location_rows.items())):
            for k in ks:
                capacity[c_idx, n_x + k] = 1.0

        constraints = [
            LinearConstraint(coupling.tocsr(), -np.inf, 0.0),
            LinearConstraint(capacity.tocsr(), -np.inf, 1.0),
        ]
        options: dict[str, float] = {"mip_rel_gap": self.mip_rel_gap}
        if self.time_limit is not None:
            options["time_limit"] = self.time_limit
        solution = milp(
            c=objective,
            constraints=constraints,
            integrality=np.ones(n_vars),
            bounds=Bounds(0.0, 1.0),
            options=options,
        )
        if solution.status != 0 or solution.x is None:
            raise SolverError(f"HiGHS failed: status={solution.status} {solution.message}")

        winners: dict[int, int] = {}
        y = solution.x[n_x:]
        for k in np.flatnonzero(y > 0.5):
            winners[int(rows[k])] = int(cols[k])
        result = problem.settle(winners)
        result.verify()
        return result


def exhaustive_point_search(
    queries: Sequence[PointQuery], sensors: Sequence[SensorSnapshot]
) -> tuple[AllocationResult, float]:
    """Brute-force optimum over all sensor subsets (reference for tests).

    Returns the best allocation and its eq.-(12) utility.  Exponential in
    the number of sensors — keep instances small.
    """
    problem = PointProblem.build(list(queries), sensors)
    n = problem.n_sensors
    if n > 20:
        raise ValueError("exhaustive search is limited to <= 20 sensors")
    best_mask = np.zeros(n, dtype=bool)
    best_utility = 0.0
    for size in range(1, n + 1):
        for combo in itertools.combinations(range(n), size):
            mask = np.zeros(n, dtype=bool)
            mask[list(combo)] = True
            utility = problem.utility(mask)
            if utility > best_utility + 1e-12:
                best_utility = utility
                best_mask = mask
    winners = problem.assign_winners(best_mask)
    # Sensors that win no location only add cost; drop them.
    winning_cols = set(winners.values())
    for col in np.flatnonzero(best_mask):
        if int(col) not in winning_cols:
            best_mask[col] = False
    result = problem.settle(winners)
    result.verify()
    return result, problem.utility(best_mask)
