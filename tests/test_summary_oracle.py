"""Seeded run-summary oracle: the exact ``summary_payload`` text of four specs.

``fixtures/summary_oracle.json`` maps each case name below to the
``json.dumps(summary_payload(...))`` text of a 4-slot run, recorded before
the location-monitoring, region-monitoring and event streams moved onto
one live-stream base.  The text is compared byte for byte, so any change
to a float, a counter, the order of the quality labels or the order of a
slot's ``extras`` keys fails here.  Never re-record the fixture to make a
change pass.

The cases cover every stream kind a spec can declare: aggregate + point +
location monitoring (``rush_hour_burst``), point + event (``trust_churn``),
point + region monitoring over the learned GP field (an ``intel`` world
whose overlapping regions book shared-sensor contributions, several of
them on one sensor, so the payment refunds of Algorithm 5's step 5 run),
and the rush-hour mix again under the Section 4.7 sequential baseline.

The region-monitoring case reads a GP posterior computed with BLAS, whose
last bits may depend on the BLAS thread count (see README, "Determinism").
Every case therefore runs in a child process pinned to one BLAS thread.

Regenerate (only when a change is *meant* to move these outputs)::

    OMP_NUM_THREADS=1 OPENBLAS_NUM_THREADS=1 PYTHONPATH=src \\
        python tests/test_summary_oracle.py > tests/fixtures/summary_oracle.json
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
FIXTURE = Path(__file__).parent / "fixtures" / "summary_oracle.json"
SPECS = ROOT / "examples" / "specs"
N_SLOTS = 4

INTEL_REGIONS = {
    "name": "intel-regions",
    "dataset": "intel",
    "seed": 41,
    "n_sensors": 30,
    "n_slots": N_SLOTS,
    "allocator": "greedy",
    "streams": [
        {"kind": "point", "params": {"n_queries": 60, "budget": 12.0}},
        {
            "kind": "region_monitoring",
            "params": {
                "duration_range": [2, 3], "budget_factor": 20.0,
                "queries_per_slot": 2, "min_side": 6.0, "max_side": 14.0,
            },
        },
    ],
}


def _case_specs() -> dict[str, dict]:
    rush = json.loads((SPECS / "rush_hour_burst.json").read_text())
    return {
        "rush_hour_burst": rush,
        "trust_churn": json.loads((SPECS / "trust_churn.json").read_text()),
        "intel_regions": INTEL_REGIONS,
        "rush_hour_burst_sequential": {
            **rush, "allocator": "baseline", "allocation": "sequential",
        },
    }


def observe() -> dict[str, str]:
    """The payload text of every case, run in this process."""
    from repro.datasets import ScenarioSpec
    from repro.service.metrics import summary_payload

    texts = {}
    for name, payload in _case_specs().items():
        spec = ScenarioSpec.from_dict(payload)
        summary = spec.run(N_SLOTS)
        texts[name] = json.dumps(summary_payload(spec.to_dict(), N_SLOTS, summary))
    return texts


@pytest.fixture(scope="module")
def observed() -> dict[str, str]:
    env = {
        **os.environ,
        "OMP_NUM_THREADS": "1",
        "OPENBLAS_NUM_THREADS": "1",
        "PYTHONPATH": os.pathsep.join(
            [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]
        ),
    }
    out = subprocess.run(
        [sys.executable, __file__], env=env, capture_output=True, text=True,
        check=True,
    )
    return json.loads(out.stdout)


@pytest.mark.parametrize("case", sorted(_case_specs()))
def test_summary_text_matches_the_recording(observed, case):
    recorded = json.loads(FIXTURE.read_text())
    assert observed[case] == recorded[case]


def test_the_recording_covers_every_stream_kind():
    kinds = {
        stream["kind"]
        for payload in _case_specs().values()
        for stream in payload["streams"]
    }
    assert kinds == {
        "aggregate", "point", "location_monitoring", "region_monitoring", "event",
    }


if __name__ == "__main__":
    json.dump(observe(), sys.stdout, indent=1)
    sys.stdout.write("\n")
