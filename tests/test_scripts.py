"""Smoke runs of the threshold-scan scripts with tiny arguments."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(REPO / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, str(REPO / "scripts" / name), *args],
        capture_output=True, text=True, env=env, timeout=120,
    )


@pytest.mark.parametrize("name, args, title, header", [
    (
        "consensus_scan.py",
        ["--graph", "path:6", "--eps-grid", "0.6,1.0", "--reps", "5", "--seed", "1"],
        "graph path:6 (6 vertices), 5 replicates per threshold",
        "P(consensus)",
    ),
    (
        "coexistence_scan.py",
        ["-n", "10", "--eps-grid", "0.05,0.1", "--reps", "3", "--seed", "1"],
        "path n=10, 3 replicates per threshold",
        "min nu",
    ),
], ids=["consensus_scan", "coexistence_scan"])
def test_script_runs(name, args, title, header):
    proc = run_script(name, *args)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == title
    assert header in lines[1]
    assert len(lines) == 4  # title, header, one row per threshold
