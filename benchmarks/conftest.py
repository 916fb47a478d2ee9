"""Benchmark configuration.

Figure benches run at the scale selected by ``REPRO_SCALE`` (default
``ci``); set ``REPRO_SCALE=paper`` to regenerate the published-size series
(minutes instead of seconds).  Every bench prints the reproduced series so
``pytest benchmarks/ --benchmark-only -s`` doubles as the results report.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

from repro.experiments import get_scale

# The greedy reference allocators (``oracles``) live with the parity suites;
# the benches time the production greedy against them.
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))


@pytest.fixture(scope="session")
def scale():
    return get_scale()


def run_once(benchmark, fn, *args, **kwargs):
    """Run ``fn`` exactly once under the benchmark timer.

    Figure reproductions are long deterministic sweeps — repeating them for
    statistics would multiply minutes for no insight.
    """
    return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)
