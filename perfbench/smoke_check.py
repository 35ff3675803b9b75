"""The benchmark's own test: every workload at smoke size, same checks and names.

Run from the root of a checkout:

    python3 -m pytest -q perfbench/smoke_check.py
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

wl = run._import_workloads()
NAMES = list(wl.WORKLOADS)
EXACT_COUNTS = (
    "dynamics.events",
    "dynamics.trace_points",
    "dynamics.stop.absorbed",
    "dynamics.stop.t_max",
    "dynamics.stop.max_events",
    "edge_process.events",
    "edge_process.census_calls",
    "experiments.run_replicate_s.n",
    "statics.index_bounds_s.n",
)


@pytest.fixture(scope="module")
def specs():
    return run.metric_specs()


@pytest.mark.parametrize("name", NAMES)
def test_default_seed_matches_pins(name, tmp_path, specs):
    doc = run.run_workload(name, wl.DEFAULT_SEED, 0, trace=False, smoke=True, out_root=tmp_path)
    assert doc["correct"], doc["failures"]
    assert doc["attempted"] > 0 and doc["failed"] == 0
    assert set(doc["metrics"]) == set(specs["end_to_end"])
    assert all(value > 0 for value in doc["metrics"].values())


@pytest.mark.parametrize("name", NAMES)
def test_other_seed_passes_invariants(name, tmp_path):
    doc = run.run_workload(name, 12345, 0, trace=False, smoke=True, out_root=tmp_path)
    assert doc["correct"], doc["failures"]


def test_altered_pin_counts_as_failure(tmp_path):
    pinned = wl.load_pinned()
    key = wl.pinned_key("consensus-path20", smoke=True)
    path = sorted(pinned[key])[0]
    pinned[key] = dict(pinned[key], **{path: "0" * 64})
    doc = run.run_workload(
        "consensus-path20", wl.DEFAULT_SEED, 0, False, smoke=True, out_root=tmp_path, pinned=pinned
    )
    assert not doc["correct"]
    assert doc["failed"] == 1 and doc["attempted"] > 1


@pytest.mark.parametrize("name", NAMES)
def test_traced_run_reports_layers_and_repeats_counts(name, tmp_path, specs):
    docs = [
        run.run_workload(name, wl.DEFAULT_SEED, 0, True, smoke=True, out_root=tmp_path / str(k))
        for k in range(2)
    ]
    for doc in docs:
        assert doc["correct"], doc["failures"]
        assert set(doc["metrics"]) == set(specs["per_layer"])
    for metric in EXACT_COUNTS:
        assert docs[0]["metrics"][metric] == docs[1]["metrics"][metric], metric
