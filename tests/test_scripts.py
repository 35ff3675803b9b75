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


PY_SAMPLE = '''"""Module docstring,
over two lines."""

import os  # a comment after code counts


# a comment line
def f(x):
    """Function docstring."""
    s = """a string that is
not a docstring"""
    return x


class C:
    \'\'\'Class docstring.\'\'\'

    y = 1
'''

C_SAMPLE = '''/* a block comment
   over two lines */
#include <stdint.h>

// a line comment
int f(int x) { /* inline */ return x; }  // trailing
const char *s = "// not a comment";
/* */ int g;
'''


def test_code_lines_counts_python_and_c(tmp_path):
    # python: import, def, s = (two lines), return, class, y = 1
    (tmp_path / "a.py").write_text(PY_SAMPLE)
    # c: include, int f, const char, int g
    (tmp_path / "b.c").write_text(C_SAMPLE)
    (tmp_path / "notes.txt").write_text("not counted\n")
    proc = run_script("code_lines.py", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    assert [line.split()[0] for line in proc.stdout.splitlines()] == ["7", "4", "11"]
    assert proc.stdout.splitlines()[-1].split()[1] == "total"
